import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsolsim.observables import ellipse_arrays
from qsolsim.state import (
    CumulantState,
    GridSpec,
    fundamental_soliton,
    reorder_s,
    thermal_state,
    validate,
)


class TestGridSpec:
    def test_positions_centering(self):
        grid = GridSpec(m=5, dx=0.5)
        assert np.allclose(grid.positions(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_even_grid_offset(self):
        grid = GridSpec(m=4, dx=1.0)
        assert np.allclose(grid.positions(), [-2.0, -1.0, 0.0, 1.0])

    @pytest.mark.parametrize("kwargs", [
        dict(m=0, dx=0.1), dict(m=4, dx=0.0), dict(m=4, dx=-1.0),
        dict(m=4, dx=0.1, boundary="reflecting"), dict(m=5, dx=math.inf),
        dict(m=2.5, dx=0.1), dict(m=True, dx=0.1),
    ])
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


class TestThermalState:
    def test_p_function_vacuum_is_noiseless(self):
        st_ = thermal_state(GridSpec(m=4, dx=0.1), 0.0, 1.0)
        assert np.all(st_.cuu == 0.0) and np.all(st_.cvv == 0.0)

    def test_wigner_vacuum_quarter(self):
        st_ = thermal_state(GridSpec(m=4, dx=0.1), 0.0, 0.0)
        assert np.allclose(st_.cuu, 0.25 * np.eye(4))
        assert np.allclose(st_.cvv, 0.25 * np.eye(4))

    def test_reservoir_occupation_shifts_diagonal(self):
        st_ = thermal_state(GridSpec(m=3, dx=0.1), 1e-16, 0.0)
        assert np.allclose(np.diag(st_.cuu), 0.25 + 5e-17, rtol=0, atol=1e-30)

    def test_rejects_negative_occupation(self):
        with pytest.raises(ValueError):
            thermal_state(GridSpec(m=3, dx=0.1), -0.1, 0.0)


class TestFundamentalSoliton:
    def test_center_amplitude(self):
        grid = GridSpec(m=201, dx=0.1)
        st_ = fundamental_soliton(grid, 1e8, 0.0, 0.0)
        assert st_.cu[grid.m // 2] == pytest.approx(1e4, rel=1e-14)
        assert np.all(st_.cv == 0.0)

    def test_profile_samples(self):
        grid = GridSpec(m=201, dx=0.1)
        st_ = fundamental_soliton(grid, 1.0, 0.0, 0.0)
        x = grid.positions()
        j = np.argmin(np.abs(x - 4.0))
        assert st_.cu[j] == pytest.approx(1.0 / math.cosh(4.0), rel=1e-12)
        assert st_.cu[j] == pytest.approx(0.0366, rel=2e-3)

    def test_total_intensity_riemann_sum(self):
        # independent oracle: integral of sech^2 over the line is exactly 2,
        # so the cell sum of cu^2 approaches 2 n0 / dx on a wide grid
        grid = GridSpec(m=200, dx=0.1)
        n0 = 1e8
        st_ = fundamental_soliton(grid, n0, 0.0, 0.0)
        total = float(np.sum(st_.cu ** 2))
        half_width = grid.dx * (grid.m // 2)
        tail = 2.0 * n0 * (1.0 - math.tanh(half_width)) / grid.dx
        assert total == pytest.approx(2.0 * n0 / grid.dx, abs=10 * tail + 1e-3 * n0)
        assert total == pytest.approx(2.0 * n0 / grid.dx, rel=1e-7)


class TestReorderS:
    def test_identity(self):
        st_ = thermal_state(GridSpec(m=3, dx=0.1), 0.2, 0.5)
        again = reorder_s(st_, 0.5)
        assert np.array_equal(again.cuu, st_.cuu)

    def test_vacuum_gains_quarter_from_p_to_wigner(self):
        vac = thermal_state(GridSpec(m=3, dx=0.1), 0.0, 1.0)
        wig = reorder_s(vac, 0.0)
        assert np.allclose(wig.cuu, 0.25 * np.eye(3))
        assert np.allclose(wig.cvv, 0.25 * np.eye(3))

    @given(s1=st.floats(-1, 1), s2=st.floats(-1, 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_is_identity(self, s1, s2):
        rng = np.random.default_rng(3)
        grid = GridSpec(m=4, dx=0.2)
        cuu = rng.normal(size=(4, 4))
        cvv = rng.normal(size=(4, 4))
        state = CumulantState(grid, s1, 0.0, rng.normal(size=4), rng.normal(size=4),
                              0.5 * (cuu + cuu.T), rng.normal(size=(4, 4)),
                              0.5 * (cvv + cvv.T))
        back = reorder_s(reorder_s(state, s2), s1)
        assert np.allclose(back.cuu, state.cuu, atol=1e-15)
        assert np.allclose(back.cvv, state.cvv, atol=1e-15)
        assert np.array_equal(back.cuv, state.cuv)

    def test_composes_additively(self):
        st_ = thermal_state(GridSpec(m=3, dx=0.1), 0.1, -0.5)
        direct = reorder_s(st_, 0.75)
        stepped = reorder_s(reorder_s(st_, 0.25), 0.75)
        assert np.allclose(direct.cuu, stepped.cuu, atol=1e-16)


class TestValidate:
    def test_thermal_state_passes_with_margin(self):
        n_th = 0.3
        report = validate(thermal_state(GridSpec(m=5, dx=0.1), n_th, 0.0))
        assert report.ok
        # uncertainty product on the thermal diagonal is 1/4 + n_th/2 exactly
        assert report.heisenberg_margin == pytest.approx(n_th / 2, rel=1e-12)

    def test_flags_asymmetry(self):
        st_ = thermal_state(GridSpec(m=4, dx=0.1), 0.0, 0.0)
        cuu = st_.cuu.copy()
        cuu[0, 1] += 1e-3
        bad = CumulantState(st_.grid, st_.s, st_.t, st_.cu, st_.cv, cuu, st_.cuv, st_.cvv)
        report = validate(bad)
        assert not report.ok
        assert any("asymmetry" in issue for issue in report.issues)

    def test_flags_cvv_asymmetry(self):
        st_ = thermal_state(GridSpec(m=4, dx=0.1), 0.0, 0.0)
        cvv = st_.cvv.copy()
        cvv[2, 0] -= 1e-3
        bad = CumulantState(st_.grid, st_.s, st_.t, st_.cu, st_.cv, st_.cuu, st_.cuv, cvv)
        report = validate(bad)
        assert report.cvv_asymmetry == pytest.approx(1e-3, rel=1e-12)
        assert report.issues == ("cvv asymmetry 1.000e-03",)

    def test_flags_uncertainty_product_below_a_quarter(self):
        # cuu = cvv = 0.01 I at s = 0: both axes 0.01, product 0.01 < 1/4
        grid = GridSpec(m=3, dx=0.1)
        small = 0.01 * np.eye(3)
        report = validate(CumulantState(grid, 0.0, 0.0, np.zeros(3), np.zeros(3),
                                        small, np.zeros((3, 3)), small))
        assert report.heisenberg_margin == pytest.approx(-0.24, rel=1e-12)
        assert report.issues == ("uncertainty product 0.010000 below 1/4",)

    def test_flags_unphysical_axis(self):
        st_ = thermal_state(GridSpec(m=4, dx=0.1), 0.0, 0.0)
        cvv = st_.cvv.copy()
        cvv[2, 2] = -0.3  # b + s/4 <= 0
        bad = CumulantState(st_.grid, st_.s, st_.t, st_.cu, st_.cv, st_.cuu, st_.cuv, cvv)
        report = validate(bad)
        assert not report.ok
        assert any("unphysical" in issue for issue in report.issues)

    def test_axes_are_the_ellipse_arrays_axes(self):
        # validate and the observables read B, b from one definition
        rng = np.random.default_rng(3)
        m = 9
        a = rng.normal(scale=0.2, size=(2 * m, 2 * m))
        cov = a @ a.T + 0.3 * np.eye(2 * m)
        state = CumulantState(GridSpec(m=m, dx=0.2), -0.3, 0.0, rng.normal(size=m),
                              rng.normal(size=m), cov[:m, :m], cov[:m, m:], cov[m:, m:])
        report = validate(state)
        big, small, _ = ellipse_arrays(state)
        assert report.min_major_axis == float(np.min(big + 0.25 * state.s))
        assert report.min_minor_axis == float(np.min(small + 0.25 * state.s))
        assert report.min_uncertainty_product == float(np.min(np.sqrt(
            (big + 0.25 * state.s) * (small + 0.25 * state.s))))

    def test_flags_nan(self):
        st_ = thermal_state(GridSpec(m=4, dx=0.1), 0.0, 0.0)
        cu = st_.cu.copy()
        cu[1] = np.nan
        bad = CumulantState(st_.grid, st_.s, st_.t, cu, st_.cv, st_.cuu, st_.cuv, st_.cvv)
        assert not validate(bad).finite


def test_flatten_round_trip():
    rng = np.random.default_rng(11)
    grid = GridSpec(m=6, dx=0.3, boundary="periodic")
    cuu = rng.normal(size=(6, 6))
    cvv = rng.normal(size=(6, 6))
    state = CumulantState(grid, 0.4, 1.25, rng.normal(size=6), rng.normal(size=6),
                          0.5 * (cuu + cuu.T), rng.normal(size=(6, 6)),
                          0.5 * (cvv + cvv.T))
    rebuilt = state.with_flat(state.flatten(), state.t)
    for name in ("cu", "cv", "cuu", "cuv", "cvv"):
        assert np.array_equal(getattr(rebuilt, name), getattr(state, name))
