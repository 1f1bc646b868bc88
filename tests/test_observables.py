import math

import numpy as np
import pytest

from qsolsim.observables import (
    LOPulse,
    UnphysicalStateError,
    ellipse_arrays,
    frequency_grid,
    intensity,
    min_delta_omega,
    nr_arrays,
    photon_correlation,
    squeezing_spectrum,
)
from qsolsim.state import CumulantState, GridSpec, fundamental_soliton, reorder_s, thermal_state


def make_state(grid, s, cu=None, cv=None, cuu=None, cuv=None, cvv=None):
    m = grid.m
    zero_v = np.zeros(m)
    zero_m = np.zeros((m, m))
    return CumulantState(
        grid, s, 0.0,
        zero_v if cu is None else np.asarray(cu, float),
        zero_v if cv is None else np.asarray(cv, float),
        zero_m if cuu is None else np.asarray(cuu, float),
        zero_m if cuv is None else np.asarray(cuv, float),
        zero_m if cvv is None else np.asarray(cvv, float),
    )


def single_cell(s, cuu, cvv, cuv=0.0, cu=0.0, cv=0.0):
    grid = GridSpec(m=1, dx=1.0)
    return make_state(grid, s, cu=[cu], cv=[cv],
                      cuu=[[cuu]], cuv=[[cuv]], cvv=[[cvv]])


def correlated_state(m=6, s=0.3, seed=9, strength=0.05):
    """Random physical Gaussian state: vacuum plus a small positive kernel."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(m=m, dx=0.4)
    root = rng.normal(size=(2 * m, 2 * m)) * strength
    cov = root @ root.T  # positive semidefinite correlation on (u, v)
    base = thermal_state(grid, 0.0, s)
    return CumulantState(
        grid, s, 0.0, rng.normal(size=m), rng.normal(size=m),
        base.cuu + cov[:m, :m], cov[:m, m:], base.cvv + cov[m:, m:],
    )


class TestIntensity:
    @pytest.mark.parametrize("s", [-1.0, 0.0, 1.0])
    def test_vacuum_is_dark(self, s):
        state = thermal_state(GridSpec(m=5, dx=0.1), 0.0, s)
        assert np.allclose(intensity(state), 0.0, atol=1e-16)

    def test_thermal_occupation_per_cell(self):
        state = thermal_state(GridSpec(m=5, dx=0.1), 0.31, 0.5)
        assert np.allclose(intensity(state), 0.31, rtol=1e-14)

    def test_soliton_center(self):
        grid = GridSpec(m=41, dx=0.1)
        n0, n_th = 1e6, 0.2
        state = fundamental_soliton(grid, n0, n_th, 0.0)
        # substituting the sech mean and thermal covariances into the
        # intensity formula gives n0 + n_th at the center cell
        assert intensity(state)[grid.m // 2] == pytest.approx(n0 + n_th, rel=1e-12)

    def test_ordering_invariance(self):
        state = correlated_state()
        a = intensity(state)
        b = intensity(reorder_s(state, -0.6))
        assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-10


class TestUncertaintyEllipse:
    def test_diagonal_covariance(self):
        big, small, phi = ellipse_arrays(single_cell(0.0, 0.3, 0.1))
        assert (big[0], small[0], phi[0]) == pytest.approx((0.3, 0.1, 0.0))

    def test_sheared_covariance(self):
        big, small, phi = ellipse_arrays(single_cell(0.0, 0.2, 0.2, cuv=0.1))
        assert (big[0], small[0]) == pytest.approx((0.3, 0.1))
        assert phi[0] == pytest.approx(math.pi / 4)

    def test_isotropic_tie_break(self):
        big, small, phi = ellipse_arrays(single_cell(0.0, 0.2, 0.2))
        assert (big[0], small[0], phi[0]) == pytest.approx((0.2, 0.2, 0.0))

    def test_trace_and_determinant_identities(self):
        state = correlated_state(seed=13)
        big, small, _ = ellipse_arrays(state)
        duu = np.diag(state.cuu)
        dvv = np.diag(state.cvv)
        duv = np.diag(state.cuv)
        assert np.allclose(big + small, duu + dvv, rtol=1e-13)
        assert np.allclose(big * small, duu * dvv - duv ** 2, rtol=1e-11, atol=1e-15)

    def test_covariant_under_reordering(self):
        state = correlated_state(seed=4)
        b0 = ellipse_arrays(state)[1]
        b1 = ellipse_arrays(reorder_s(state, state.s - 0.4))[1]
        assert np.allclose(b1, b0 + 0.1, rtol=1e-12)


class TestSqueezedThermalParams:
    def test_wigner_vacuum(self):
        n, r, _, margin = nr_arrays(single_cell(0.0, 0.25, 0.25))
        assert n[0] == pytest.approx(0.0, abs=1e-14)
        assert r[0] == pytest.approx(0.0, abs=1e-14)
        assert margin[0] == pytest.approx(1.0, rel=1e-12)
        assert not margin[0] < 1.0

    def test_squeezed_vacuum_inverts(self):
        r0 = 0.7
        state = single_cell(0.0, math.exp(2 * r0) / 4, math.exp(-2 * r0) / 4)
        n, r, _, margin = nr_arrays(state)
        assert n[0] == pytest.approx(0.0, abs=1e-12)
        assert r[0] == pytest.approx(r0, rel=1e-12)
        assert margin[0] < 1.0

    def test_thermal_occupation(self):
        n_th = 0.42
        state = single_cell(0.0, 0.25 + n_th / 2, 0.25 + n_th / 2)
        n, r, _, _ = nr_arrays(state)
        assert n[0] == pytest.approx(n_th, rel=1e-12)
        assert r[0] == pytest.approx(0.0, abs=1e-14)

    def test_unphysical_state_raises(self):
        with pytest.raises(UnphysicalStateError):
            nr_arrays(single_cell(0.0, 0.3, -0.3))

    def test_squeezing_conditions_agree(self):
        # b < (1-s)/4 and (2n+1)e^{-2r} < 1 must coincide on random
        # physical states (built from genuine squeezed-thermal parameters)
        rng = np.random.default_rng(21)
        for _ in range(200):
            s = rng.uniform(-1, 1)
            n = rng.uniform(0.0, 2.0)
            r = rng.uniform(0.0, 1.5)
            phi = rng.uniform(-math.pi / 2, math.pi / 2)
            big = 0.5 * (n + 0.5) * math.exp(2 * r) - 0.25 * s
            small = 0.5 * (n + 0.5) * math.exp(-2 * r) - 0.25 * s
            c, d = math.cos(phi), math.sin(phi)
            state = single_cell(
                s,
                cuu=big * c * c + small * d * d,
                cvv=big * d * d + small * c * c,
                cuv=(big - small) * c * d,
            )
            n_fit, r_fit, _, margin = nr_arrays(state)
            b = ellipse_arrays(state)[1][0]
            assert n_fit[0] == pytest.approx(n, rel=1e-10, abs=1e-12)
            assert r_fit[0] == pytest.approx(r, rel=1e-10, abs=1e-12)
            assert (b < 0.25 * (1 - s) - 1e-12) == (margin[0] < 1.0 - 1e-12)


class TestFrequencyGrid:
    def test_reference_grid_bounds(self):
        grid = GridSpec(m=200, dx=0.1)
        omega = frequency_grid(grid)
        # sampling bound pi/dx, minimal spacing 2 pi/(m dx), in w0 = 2 units
        assert omega.max() == pytest.approx(5 * math.pi, rel=1e-12)
        assert omega[1] - omega[0] == pytest.approx(0.05 * math.pi, rel=1e-12)
        assert min_delta_omega(grid) == pytest.approx(0.05 * math.pi, rel=1e-12)

    def test_doubling_cells_halves_spacing(self):
        a = frequency_grid(GridSpec(m=100, dx=0.1))
        b = frequency_grid(GridSpec(m=200, dx=0.1))
        assert (b[1] - b[0]) == pytest.approx((a[1] - a[0]) / 2, rel=1e-12)

    def test_halving_cell_width_doubles_range(self):
        a = frequency_grid(GridSpec(m=100, dx=0.2))
        b = frequency_grid(GridSpec(m=100, dx=0.1))
        assert b.max() == pytest.approx(2 * a.max(), rel=1e-12)

    def test_out_of_band_frequency_rejected(self):
        grid = GridSpec(m=16, dx=0.5)
        state = thermal_state(grid, 0.0, 0.0)
        lo = LOPulse(np.ones(grid.m))
        with pytest.raises(ValueError, match="sampling bound"):
            squeezing_spectrum(state, lo, [10.0])


def naive_spectrum(state, lo_amp, omega_w0, phase):
    """Independent brute-force evaluation of the homodyne spectrum."""
    m = state.grid.m
    x = state.grid.positions()
    s = state.s
    f_l = 0.0
    g_l = 0.0
    omega = 2.0 * float(omega_w0)  # w0 -> inverse pulse-width units
    for j in range(m):
        for k in range(m):
            delta = 1.0 if j == k else 0.0
            br_f = (state.cuu[j, k] + state.cvv[j, k] + 0.5 * (s - 1) * delta
                    - 1j * (state.cuv[j, k] - state.cuv[k, j]))
            br_g = (state.cuu[j, k] - state.cvv[j, k]
                    - 1j * (state.cuv[j, k] + state.cuv[k, j]))
            f_l += np.conj(lo_amp[j]) * lo_amp[k] * np.exp(-1j * omega * x[j] + 1j * omega * x[k]) * br_f
            g_l += lo_amp[j] * lo_amp[k] * np.exp(-1j * omega * x[j] + 1j * omega * x[k]) * br_g
    f_l /= 2 * math.pi
    g_l /= 2 * math.pi
    i0 = (np.sum(np.abs(lo_amp) ** 2) + np.sum(intensity(state))) / (2 * math.pi)
    return 2.0 * np.real(f_l + np.exp(2j * phase) * g_l) / i0


class TestSqueezingSpectrum:
    def test_vacuum_sits_at_shot_noise(self):
        for s in (-1.0, 0.0, 0.7):
            grid = GridSpec(m=12, dx=0.25)
            state = thermal_state(grid, 0.0, s)
            lo = LOPulse.soliton(grid, 100.0)
            res = squeezing_spectrum(state, lo, frequency_grid(grid))
            assert np.max(np.abs(res.s)) < 1e-12
            assert np.max(np.abs(res.s_min)) < 1e-12

    def test_coherent_state_sits_at_shot_noise(self):
        grid = GridSpec(m=10, dx=0.3)
        base = thermal_state(grid, 0.0, 0.0)
        state = CumulantState(grid, 0.0, 0.0, np.linspace(1, 5, 10), np.ones(10),
                              base.cuu, base.cuv, base.cvv)
        lo = LOPulse.soliton(grid, 10.0)
        res = squeezing_spectrum(state, lo, [0.0, 1.0])
        assert np.max(np.abs(res.s)) < 1e-12

    def test_thermal_state_flat_positive_spectrum(self):
        # collapsing the double sum with diagonal covariances leaves
        # n_th * sum |a_L|^2 / (2 pi I0), independent of frequency
        grid = GridSpec(m=16, dx=0.25)
        n_th = 0.6
        state = thermal_state(grid, n_th, 0.3)
        lo = LOPulse.soliton(grid, 50.0)
        res = squeezing_spectrum(state, lo, [0.0, 0.5, 2.0])
        expected = 2.0 * n_th * np.sum(np.abs(lo.amplitudes) ** 2) / (2 * math.pi * res.i0)
        assert np.allclose(res.s, expected, rtol=1e-12)
        assert np.allclose(res.s_min, expected, rtol=1e-12)
        assert np.all(res.s >= 0)

    def test_matches_naive_double_sum(self):
        state = correlated_state(m=7, seed=3)
        lo = LOPulse((1.0 + 0.5j) * np.exp(-state.grid.positions() ** 2))
        for omega, phase in [(0.4, 0.0), (1.1, 0.8), (0.0, -1.2)]:
            res = squeezing_spectrum(state, lo, [omega], phase=phase)
            ref = naive_spectrum(state, lo.amplitudes, omega, phase)
            assert res.s[0] == pytest.approx(ref, rel=1e-12)

    def test_optimal_phase_is_minimum(self):
        state = correlated_state(m=6, seed=17, strength=0.2)
        lo = LOPulse.soliton(state.grid, 25.0)
        omega = [0.7]
        res = squeezing_spectrum(state, lo, omega)
        rng = np.random.default_rng(0)
        for phase in rng.uniform(-math.pi, math.pi, size=100):
            fixed = squeezing_spectrum(state, lo, omega, phase=float(phase))
            assert res.s_min[0] <= fixed.s[0] + 1e-13
        at_opt = squeezing_spectrum(state, lo, omega, phase=float(res.phi_opt[0]))
        assert at_opt.s[0] == pytest.approx(res.s_min[0], rel=1e-10, abs=1e-13)

    def test_ordering_invariance(self):
        state = correlated_state(m=8, seed=23, strength=0.1)
        lo = LOPulse.soliton(state.grid, 30.0)
        omega = frequency_grid(state.grid)
        a = squeezing_spectrum(state, lo, omega)
        b = squeezing_spectrum(reorder_s(state, -0.5), lo, omega)
        scale = np.max(np.abs(a.s_min))
        assert np.max(np.abs(a.s_min - b.s_min)) / scale < 1e-10

    def test_zero_lo_rejected(self):
        with pytest.raises(ValueError):
            LOPulse(np.zeros(4))


class TestPhotonCorrelation:
    def test_coherent_state_is_poissonian(self):
        grid = GridSpec(m=12, dx=0.25)
        base = thermal_state(grid, 0.0, 0.4)
        state = CumulantState(grid, 0.4, 0.0,
                              3.0 / np.cosh(grid.positions()), np.zeros(12),
                              base.cuu, base.cuv, base.cvv)
        res = photon_correlation(state, frequency_grid(grid))
        diag = np.diag(res.eta)
        ok = np.isfinite(diag)
        assert np.max(np.abs(diag[ok])) < 1e-10

    def test_window_floor_enforced(self):
        grid = GridSpec(m=8, dx=0.25)
        state = thermal_state(grid, 0.1, 0.0)
        with pytest.raises(ValueError, match="minimal resolvable"):
            photon_correlation(state, [0.0], delta_omega=0.1 * min_delta_omega(grid))

    def test_thermal_single_window_bunching(self):
        # oracle: a thermal field has <:dN^2:> = <N>^2 per mode, so the full
        # variance is <N>^2 + <N> (Bose-Einstein bunching)
        grid = GridSpec(m=24, dx=0.25, boundary="periodic")
        n_th = 1.7
        state = thermal_state(grid, n_th, 0.0)
        res = photon_correlation(state, [0.0])
        n_mean = res.mean_photon[0]
        # one window of the minimal width holds exactly one spectral mode
        assert n_mean == pytest.approx(n_th, rel=1e-10)
        # normalized variance: <N>^2 / (<N>^2 + <N>)
        eta_expected = n_mean ** 2 / (n_mean ** 2 + n_mean)
        assert res.eta[0, 0] == pytest.approx(eta_expected, rel=1e-10)

    def test_symmetry_and_bounds_on_correlated_state(self):
        state = correlated_state(m=10, seed=31, strength=0.15)
        omega = frequency_grid(state.grid)
        res = photon_correlation(state, omega)
        ok = np.isfinite(res.eta)
        assert np.array_equal(ok, ok.T)
        sym_dev = np.max(np.abs((res.eta - res.eta.T)[ok & ok.T]))
        assert sym_dev < 1e-12
        off = res.eta.copy()
        np.fill_diagonal(off, 0.0)
        assert np.nanmax(np.abs(off)) <= 1.0 + 1e-10

    def test_ordering_invariance(self):
        state = correlated_state(m=8, seed=5, strength=0.1)
        omega = frequency_grid(state.grid)
        a = photon_correlation(state, omega)
        b = photon_correlation(reorder_s(state, 0.9), omega)
        mask = np.isfinite(a.eta) & np.isfinite(b.eta)
        scale = np.max(np.abs(a.eta[mask]))
        assert np.max(np.abs(a.eta[mask] - b.eta[mask])) / scale < 1e-10

    def test_self_correlation_kernel_is_real(self):
        # F(-omega, omega) is a self-correlation and must be real
        state = correlated_state(m=9, seed=41, strength=0.2)
        omega = frequency_grid(state.grid)
        res = photon_correlation(state, omega)
        assert np.all(np.isfinite(res.mean_photon))
        # reconstruct the diagonal directly to check the imaginary part
        from qsolsim.observables import _kernels
        k_f, _ = _kernels(state)
        x = state.grid.positions()
        for w in (0.3, 1.7):
            ph = np.exp(2j * w * x)  # internal units: omega = 2 w
            val = np.conj(ph) @ k_f @ ph
            assert abs(val.imag) < 1e-12 * max(abs(val.real), 1.0)


def test_vacuum_correlation_undefined_entries_are_nan():
    grid = GridSpec(m=8, dx=0.25)
    state = thermal_state(grid, 0.0, 0.0)
    res = photon_correlation(state, [0.0, 1.0])
    assert res.n_undefined == res.eta.size
    assert np.all(~np.isfinite(res.eta))
