import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsolsim.params import (
    C_LIGHT,
    HBAR,
    K_BOLTZMANN,
    PhysicalInputs,
    ScaledInputs,
    ScaledParams,
    derive_scales,
    gaussian_validity_ratio,
    rhs_coefficients,
    thermal_occupation,
)
from qsolsim.state import GridSpec

GRID = GridSpec(m=200, dx=0.1)


def paper_inputs(t0=2e-12):
    return PhysicalInputs(t0=t0, D=20.0, Gamma=0.3, lambda_c=1.5e-6, T=300.0)


class TestThermalOccupation:
    def test_zero_temperature_limit(self):
        assert thermal_occupation(1.5e-6, 0.0) == 0.0

    def test_unit_occupation_identity(self):
        # hbar * omega = kT ln 2  =>  occupation exactly 1
        t_match = HBAR * 2 * math.pi * C_LIGHT / (1.5e-6 * K_BOLTZMANN * math.log(2.0))
        assert thermal_occupation(1.5e-6, t_match) == pytest.approx(1.0, rel=1e-12)

    def test_telecom_room_temperature(self):
        # independent evaluation of the Bose factor with the same constants
        x = HBAR * (2 * math.pi * C_LIGHT / 1.5e-6) / (K_BOLTZMANN * 300.0)
        expected = 1.0 / math.expm1(x)
        value = thermal_occupation(1.5e-6, 300.0)
        assert value == pytest.approx(expected, rel=1e-13)
        assert value == pytest.approx(1.3013104841205678e-14, rel=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            thermal_occupation(-1e-6, 300.0)
        with pytest.raises(ValueError):
            thermal_occupation(1.5e-6, -1.0)

    def test_cold_reservoir_gives_exactly_zero(self):
        # hbar omega / k_B T is about 9.6e3 here: exp(x) would overflow
        # (math.expm1 raises OverflowError), and the occupation is zero
        assert thermal_occupation(1.5e-6, 1.0) == 0.0

    @pytest.mark.parametrize("lambda_c, T", [(1.5e-6, 1e-300), (1e-300, 1e-300)])
    def test_underflowing_product_gives_zero(self, lambda_c, T):
        # lambda_c * k_B * T underflows to 0: the T -> 0 limit, not a division by zero
        assert thermal_occupation(lambda_c, T) == 0.0

    @pytest.mark.parametrize("lambda_c, T", [(1e300, 1e300), (1e154, 1e154)])
    def test_overflowing_occupation_is_rejected(self, lambda_c, T):
        # the product overflows (x = 0), or 1 / x does
        with pytest.raises(ValueError, match="thermal occupation overflows"):
            thermal_occupation(lambda_c, T)


class TestDeriveScales:
    def test_two_ps_pulse(self):
        scaled = derive_scales(paper_inputs(2e-12), GRID)
        assert scaled.x_d == pytest.approx(170.0, rel=0.03)
        assert scaled.gamma_t == pytest.approx(5.8e-3, rel=0.03)

    def test_ten_ps_pulse(self):
        scaled = derive_scales(paper_inputs(10e-12), GRID)
        assert scaled.x_d == pytest.approx(4.2e3, rel=0.03)
        assert scaled.gamma_t == pytest.approx(1.4e-1, rel=0.05)

    def test_lossless_fiber(self):
        inputs = PhysicalInputs(t0=2e-12, D=20.0, Gamma=0.0)
        assert derive_scales(inputs, GRID).gamma_t == 0.0

    def test_dispersion_length_scales_as_pulse_width_squared(self):
        a = derive_scales(paper_inputs(2e-12), GRID)
        b = derive_scales(paper_inputs(10e-12), GRID)
        assert b.x_d / a.x_d == pytest.approx(25.0, rel=1e-12)

    def test_rejects_zero_dispersion(self):
        with pytest.raises(ValueError):
            PhysicalInputs(t0=2e-12, D=0.0, Gamma=0.3)

    def test_warns_outside_soliton_regime(self):
        with pytest.warns(UserWarning, match="soliton"):
            PhysicalInputs(t0=2e-12, D=20.0, Gamma=0.3, sign_chi=1, sign_omega2=1)

    def test_occupation_override(self):
        scaled = derive_scales(paper_inputs(), GRID, n_th=1e-16)
        assert scaled.n_th == 1e-16

    @pytest.mark.parametrize("extreme", [
        dict(lambda_c=1e300),         # omega_c ** 2 underflows
        dict(t0=1e200, D=1e-300),     # t0 ** 2 overflows
        dict(t0=1e-300, D=1e300),     # x_d underflows: the damping would vanish
    ])
    def test_extreme_inputs_raise_value_error_naming_them(self, extreme):
        inputs = PhysicalInputs(**{**dict(t0=2e-12, D=20.0, Gamma=0.3), **extreme})
        with pytest.raises(ValueError, match=r"t0=.*, D=.*, lambda_c=.*, Gamma=0\.3"):
            derive_scales(inputs, GRID, n_th=0.0)

    def test_scaled_route(self):
        scaled = derive_scales(ScaledInputs(gamma_t=0.05, nbar=1e4), GRID, n_th=0.2)
        assert (scaled.gamma_t, scaled.nbar, scaled.n_th) == (0.05, 1e4, 0.2)
        assert scaled.n0 == 1e4 * GRID.dx
        assert (scaled.disp_sign, scaled.chi_sign, scaled.delta_omega_t) == (-1, 1, 0.0)
        assert math.isnan(scaled.t_d) and math.isnan(scaled.x_d)

    def test_scaled_route_requires_occupation(self):
        with pytest.raises(ValueError, match="scaled mode requires an explicit 'n_th'"):
            derive_scales(ScaledInputs(gamma_t=0.05, nbar=1e4), GRID)

    @given(
        gamma=st.floats(0.01, 10.0),
        t0=st.floats(0.5e-12, 20e-12),
        factor=st.floats(1.5, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_damping_linear_in_loss_and_length(self, gamma, t0, factor):
        base = derive_scales(PhysicalInputs(t0=t0, D=20.0, Gamma=gamma), GRID)
        double_loss = derive_scales(PhysicalInputs(t0=t0, D=20.0, Gamma=factor * gamma), GRID)
        assert double_loss.gamma_t == pytest.approx(factor * base.gamma_t, rel=1e-9)
        # x_d \propto 1/D at fixed t0, and gamma_t \propto x_d
        weaker_dispersion = derive_scales(
            PhysicalInputs(t0=t0, D=20.0 / factor, Gamma=gamma), GRID)
        assert weaker_dispersion.x_d == pytest.approx(factor * base.x_d, rel=1e-9)
        assert weaker_dispersion.gamma_t == pytest.approx(factor * base.gamma_t, rel=1e-9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["t0", "D", "Gamma", "lambda_c", "T", "nbar", "delta_omega"])
def test_physical_inputs_reject_non_finite(name, value):
    kwargs = dict(t0=2e-12, D=20.0, Gamma=0.3, lambda_c=1.5e-6, T=300.0)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        PhysicalInputs(**{**kwargs, name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["gamma_t", "n0", "nbar", "n_th", "delta_omega_t"])
def test_scaled_params_reject_non_finite(name, value):
    # t_d and x_d are provenance only: scaled-mode configs leave them NaN
    kwargs = dict(gamma_t=0.1, disp_sign=-1, chi_sign=1, n0=1e8, nbar=1e9, n_th=0.0,
                  delta_omega_t=0.0, t_d=math.nan, x_d=math.nan)
    ScaledParams(**kwargs)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        ScaledParams(**{**kwargs, name: value})


@pytest.mark.parametrize("value", [0, 2, -0.5, math.nan])
@pytest.mark.parametrize("name", ["sign_chi", "sign_omega2"])
def test_scaled_inputs_reject_signs_other_than_unit(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be \\+1 or -1"):
        ScaledInputs(gamma_t=0.1, nbar=1e9, **{name: value})


@pytest.mark.parametrize("value", [0, 2, -0.5, math.nan])
@pytest.mark.parametrize("name", ["disp_sign", "chi_sign"])
def test_scaled_params_reject_signs_other_than_unit(name, value):
    # a zero sign would silently switch off dispersion or the Kerr term
    kwargs = dict(gamma_t=0.1, disp_sign=-1, chi_sign=1, n0=1e8, nbar=1e9, n_th=0.0,
                  delta_omega_t=0.0, t_d=math.nan, x_d=math.nan)
    with pytest.raises(ValueError, match=f"^{name} must be \\+1 or -1"):
        ScaledParams(**{**kwargs, name: value})


class TestRHSCoefficients:
    def test_paper_cell_scale(self):
        scaled = derive_scales(paper_inputs(), GRID, n_th=1e-16)
        coeffs = rhs_coefficients(scaled, GRID)
        assert scaled.n0 == pytest.approx(1e8, rel=1e-14)
        assert abs(coeffs.chi_t) == pytest.approx(1e-8, rel=1e-14)

    def test_dispersion_coefficient(self):
        scaled = derive_scales(paper_inputs(), GRID, n_th=0.0)
        coeffs = rhs_coefficients(scaled, GRID)
        assert coeffs.d2 == pytest.approx(-50.0, rel=1e-14)

    def test_zero_damping_kills_thermal_source(self):
        inputs = PhysicalInputs(t0=2e-12, D=20.0, Gamma=0.0)
        coeffs = rhs_coefficients(derive_scales(inputs, GRID, n_th=0.7), GRID)
        assert coeffs.thermal_src(0.3) == 0.0

    @given(nbar=st.floats(1e3, 1e12), dx=st.floats(0.01, 1.0),
           sign=st.sampled_from([-1, 1]))
    @settings(max_examples=100, deadline=None)
    def test_kerr_scale_inverts_cell_photon_number(self, nbar, dx, sign):
        grid = GridSpec(m=8, dx=dx)
        inputs = PhysicalInputs(t0=2e-12, D=20.0, Gamma=0.3, nbar=nbar,
                                sign_chi=sign, sign_omega2=-sign)
        scaled = derive_scales(inputs, grid, n_th=0.0)
        coeffs = rhs_coefficients(scaled, grid)
        # identity up to one rounding of the reciprocal
        assert coeffs.chi_t * scaled.n0 == pytest.approx(sign, rel=4e-16)


def test_validity_ratio_matches_quoted_threshold():
    scaled = derive_scales(paper_inputs(), GRID, n_th=1e-16)
    # nbar = 1e9 puts the closure threshold at ~5.6e-3
    assert gaussian_validity_ratio(scaled) == pytest.approx(
        scaled.gamma_t * 1e9 ** 0.25, rel=1e-12)
    assert 0.9 < gaussian_validity_ratio(scaled) / (5.8e-3 / 5.6e-3) < 1.1
