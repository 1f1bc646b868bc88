import math

import numpy as np
import pytest

from qsolsim.dynamics import lap_rows
from qsolsim.fock import (
    CutoffOverflowError,
    FockConfig,
    closure_gap,
    coherent_vector,
    cumulants_from_density,
    damped_mean,
    destroy,
    displacement_operator,
    evolve_density,
    hamiltonian,
    initial_density,
    kerr_mean,
    mode_operators,
    squeeze_operator,
    thermal_density,
)
from qsolsim.fock import _liouvillian
from qsolsim.observables import (
    LOPulse,
    intensity,
    nr_arrays,
    photon_correlation,
    squeezing_spectrum,
)


class TestOperatorsAndStates:
    def test_commutator(self):
        a = destroy(30)
        comm = a @ a.conj().T - a.conj().T @ a
        assert np.allclose(np.diag(comm)[:-1], 1.0)

    def test_coherent_state_moments(self):
        alpha = 0.9 - 0.4j
        vec = coherent_vector(40, alpha)
        a = destroy(40)
        assert np.vdot(vec, vec) == pytest.approx(1.0, rel=1e-12)
        assert np.vdot(vec, a @ vec) == pytest.approx(alpha, rel=1e-12)

    def test_displacement_matches_coherent_expansion(self):
        alpha = 0.7 + 0.2j
        disp = displacement_operator(40, alpha)
        vac = np.zeros(40, dtype=complex)
        vac[0] = 1.0
        assert np.allclose(disp @ vac, coherent_vector(40, alpha), atol=1e-10)

    def test_thermal_density_mean(self):
        n = 1.3
        rho = thermal_density(60, n)
        num = destroy(60).conj().T @ destroy(60)
        assert np.trace(rho @ num).real == pytest.approx(n, rel=1e-8)

    def test_two_mode_hamiltonian_is_hermitian(self):
        config = FockConfig(modes=2, cutoff=6, chi_t=0.3, d2=-1.2, delta_omega_t=0.4)
        h = hamiltonian(config)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    @pytest.mark.parametrize("boundary", ["absorbing", "periodic"])
    @pytest.mark.parametrize("modes", [1, 2])
    def test_hamiltonian_uses_the_dynamics_stencil(self, modes, boundary):
        # with d2 = 1 alone, <1_j| H |1_k> = -L[j, k] on one-photon states
        config = FockConfig(modes=modes, cutoff=3, d2=1.0, boundary=boundary)
        h = hamiltonian(config)
        vac = np.zeros(config.dim, dtype=complex)
        vac[0] = 1.0
        one = [a.conj().T @ vac for a in mode_operators(config)]
        stencil = -np.array([[np.vdot(bra, h @ ket) for ket in one] for bra in one])
        assert np.array_equal(stencil, lap_rows(np.eye(modes), boundary))


def _dense_master_equation(config, rho):
    """The master equation written out term by term as dense products."""
    h = hamiltonian(config)
    g, nth = config.gamma_t, config.n_th
    drho = -1j * (h @ rho - rho @ h)
    if g > 0:
        for a in mode_operators(config):
            ad = a.conj().T
            ada = ad @ a
            aad = a @ ad
            drho += g * (nth + 1.0) * (2.0 * (a @ rho @ ad) - ada @ rho - rho @ ada)
            drho += g * nth * (2.0 * (ad @ rho @ a) - aad @ rho - rho @ aad)
    return drho


class _CountingMatmul(np.ndarray):
    """An array that counts the matrix products it takes part in."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            _CountingMatmul.calls += 1
        inputs = tuple(np.asarray(x) for x in inputs)
        if out is not None:
            getattr(ufunc, method)(*inputs, out=tuple(np.asarray(o) for o in out), **kwargs)
            return out[0]
        return getattr(ufunc, method)(*inputs, **kwargs).view(_CountingMatmul)


class TestLiouvillian:
    @pytest.mark.parametrize("n_th", [0.0, 0.4])
    @pytest.mark.parametrize("gamma_t", [0.0, 0.3])
    @pytest.mark.parametrize("boundary", ["absorbing", "periodic"])
    @pytest.mark.parametrize("modes", [1, 2])
    def test_matches_the_dense_master_equation(self, modes, boundary, gamma_t, n_th):
        config = FockConfig(modes=modes, cutoff=6, chi_t=0.3, gamma_t=gamma_t,
                            delta_omega_t=0.4, d2=-0.8, n_th=n_th, boundary=boundary)
        rng = np.random.default_rng(11)
        shape = (config.dim, config.dim)
        rho = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = _dense_master_equation(config, rho)
        got = _liouvillian(config)(rho)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("gamma_t, n_th, products", [
        (0.3, 0.4, 10), (0.3, 0.0, 6), (0.0, 0.4, 2),
    ])
    def test_products_per_evaluation(self, gamma_t, n_th, products):
        config = FockConfig(modes=2, cutoff=4, chi_t=0.3, gamma_t=gamma_t, d2=-0.8,
                            n_th=n_th)
        rhs_rho = _liouvillian(config)
        rho = initial_density(config, "coherent", alphas=[0.3, 0.2j])
        _CountingMatmul.calls = 0
        drho = rhs_rho(rho.view(_CountingMatmul))
        assert _CountingMatmul.calls == products
        assert np.array_equal(np.asarray(drho), rhs_rho(rho))


class TestEvolution:
    def test_damped_oscillator_mean(self):
        config = FockConfig(modes=1, cutoff=30, gamma_t=0.25, delta_omega_t=0.9, n_th=0.1)
        rho0 = initial_density(config, "coherent", alphas=[1.2 + 0.8j])
        rho = evolve_density(config, rho0, [1.4])[0]
        state = cumulants_from_density(config, rho)
        mean = state.cu[0] + 1j * state.cv[0]
        assert mean == pytest.approx(damped_mean(1.2 + 0.8j, 0.25, 0.9, 1.4), abs=1e-9)

    def test_relaxation_to_reservoir_occupation(self):
        config = FockConfig(modes=1, cutoff=25, gamma_t=0.8, n_th=0.6)
        rho0 = initial_density(config, "coherent", alphas=[1.0])
        rho = evolve_density(config, rho0, [18.0])[0]  # ~14 amplitude lifetimes
        state = cumulants_from_density(config, rho)
        assert intensity(state)[0] == pytest.approx(0.6, abs=1e-6)
        assert abs(state.cu[0]) < 1e-6

    def test_kerr_closed_form(self):
        # the analytic Kerr mean (phase convention fixed by the H = chi/2 a+a+aa
        # normal form) against brute-force evolution
        alpha, chi = 1.8, 0.04
        config = FockConfig(modes=1, cutoff=40, chi_t=chi)
        rho0 = initial_density(config, "coherent", alphas=[alpha])
        for t in (0.5, 2.0):
            rho = evolve_density(config, rho0, [t])[0]
            state = cumulants_from_density(config, rho)
            mean = state.cu[0] + 1j * state.cv[0]
            assert mean == pytest.approx(kerr_mean(alpha, chi, t), abs=1e-9)

    def test_photon_balance_with_kerr(self):
        # the Kerr term commutes with the photon number, so
        # <N>(t) - n_th decays exactly at rate 2 gamma
        config = FockConfig(modes=1, cutoff=35, chi_t=0.05, gamma_t=0.3, n_th=0.4)
        rho0 = initial_density(config, "displaced-thermal", alphas=[1.5], n=0.2)
        state0 = cumulants_from_density(config, rho0)
        n0 = intensity(state0)[0]
        for t in (0.3, 1.1):
            rho = evolve_density(config, rho0, [t])[0]
            n_t = intensity(cumulants_from_density(config, rho))[0]
            expected = 0.4 + (n0 - 0.4) * math.exp(-2 * 0.3 * t)
            assert n_t == pytest.approx(expected, rel=1e-8)

    def test_results_follow_the_callers_time_order(self):
        config = FockConfig(modes=1, cutoff=20, gamma_t=0.5)
        rho0 = initial_density(config, "coherent", alphas=[1.0])
        rhos = evolve_density(config, rho0, [1.0, 0.5])
        n_t = [intensity(cumulants_from_density(config, rho))[0] for rho in rhos]
        assert n_t == pytest.approx([math.exp(-1.0), math.exp(-0.5)], rel=1e-8)

    def test_cutoff_overflow_detected(self):
        # heating toward a reservoir occupation the truncation cannot hold
        config = FockConfig(modes=1, cutoff=8, gamma_t=1.0, n_th=5.0)
        rho0 = initial_density(config, "coherent", alphas=[0.0])
        with pytest.raises(CutoffOverflowError):
            evolve_density(config, rho0, [3.0])


class TestCumulantExtraction:
    def test_coherent_state_any_ordering(self):
        config = FockConfig(modes=1, cutoff=30)
        rho = initial_density(config, "coherent", alphas=[0.8 + 0.3j])
        for s in (-1.0, 0.0, 0.85):
            state = cumulants_from_density(config, rho, s=s)
            assert state.cu[0] == pytest.approx(0.8, abs=1e-12)
            assert state.cv[0] == pytest.approx(0.3, abs=1e-12)
            assert state.cuu[0, 0] == pytest.approx((1 - s) / 4, abs=1e-10)
            assert state.cvv[0, 0] == pytest.approx((1 - s) / 4, abs=1e-10)
            assert abs(state.cuv[0, 0]) < 1e-12

    def test_thermal_state_diagonal(self):
        config = FockConfig(modes=1, cutoff=60)
        rho = initial_density(config, "thermal", n=0.9)
        state = cumulants_from_density(config, rho, s=0.3)
        expected = 0.5 * (0.9 + 0.5 * (1 - 0.3))
        assert state.cuu[0, 0] == pytest.approx(expected, rel=1e-7)

    def test_ordering_shift_is_exact(self):
        config = FockConfig(modes=2, cutoff=8)
        rho = initial_density(config, "displaced-thermal", alphas=[0.5, -0.3j], n=0.2)
        a = cumulants_from_density(config, rho, s=0.1)
        b = cumulants_from_density(config, rho, s=0.6)
        shift = 0.25 * (0.6 - 0.1)
        assert np.allclose(a.cuu - b.cuu, shift * np.eye(2), atol=1e-14)
        assert np.allclose(a.cvv - b.cvv, shift * np.eye(2), atol=1e-14)
        assert np.allclose(a.cuv, b.cuv, atol=1e-14)

    def test_squeezed_thermal_round_trip(self):
        # build S(xi) rho_th S+(xi) exactly, extract cumulants, and recover
        # (n, r, theta) through the observables decomposition; moderate
        # parameters keep the squeezed tail far from the truncation edge
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = float(rng.uniform(0.0, 0.8))
            r = float(rng.uniform(0.05, 0.5))
            theta = float(rng.uniform(-math.pi, math.pi))
            cutoff = 60
            squeeze = squeeze_operator(cutoff, r * np.exp(1j * theta))
            rho = squeeze @ thermal_density(cutoff, n) @ squeeze.conj().T
            config = FockConfig(modes=1, cutoff=cutoff, s=0.0)
            state = cumulants_from_density(config, rho, s=0.0)
            n_fit, r_fit, theta_fit, _ = nr_arrays(state)
            assert n_fit[0] == pytest.approx(n, rel=1e-5, abs=1e-7)
            assert r_fit[0] == pytest.approx(r, rel=1e-5, abs=1e-7)
            # theta wraps on the circle
            dev = (theta_fit[0] - theta + math.pi) % (2 * math.pi) - math.pi
            assert abs(dev) < 1e-5


class TestClosureGap:
    def test_linear_dynamics_closed_exactly(self):
        config = FockConfig(modes=1, cutoff=30, gamma_t=0.15, delta_omega_t=0.5, n_th=0.3)
        report = closure_gap(config, "displaced-thermal", [0.5, 1.5], alphas=[1.1], n=0.25)
        assert np.all(report.first_order_gap < 1e-8)
        assert np.all(report.second_order_gap < 1e-8)

    def test_weak_kerr_gap_is_small(self):
        # accumulated nonlinear phase chi |alpha|^2 t = 0.08 << 1
        config = FockConfig(modes=1, cutoff=35, chi_t=0.02, gamma_t=0.1)
        report = closure_gap(config, "coherent", [1.0], alphas=[2.0])
        assert report.first_order_rel[0] < 0.01
        assert report.second_order_rel[0] < 0.01

    def test_strong_kerr_gap_grows(self):
        from qsolsim.integrator import StepControl

        config = FockConfig(modes=1, cutoff=30, chi_t=0.25)
        report = closure_gap(config, "coherent", [0.5, 1.5, 2.5], alphas=[1.5],
                             control=StepControl(atol=1e-13, rtol=1e-11))
        assert report.second_order_gap[-1] > report.second_order_gap[0]
        assert np.all(np.isfinite(report.second_order_gap))
        # the report follows the caller's order of the time grid
        reverse = closure_gap(config, "coherent", [2.5, 1.5, 0.5], alphas=[1.5],
                              control=StepControl(atol=1e-13, rtol=1e-11))
        assert reverse.times.tolist() == [2.5, 1.5, 0.5]
        assert np.array_equal(reverse.second_order_gap, report.second_order_gap[::-1])

    def test_two_mode_hopping_closure_exact(self):
        config = FockConfig(modes=2, cutoff=17, gamma_t=0.1, d2=-0.8, n_th=0.15,
                            dx=0.7, boundary="absorbing")
        report = closure_gap(config, "displaced-thermal", [0.8], alphas=[0.9, 0.4j], n=0.1)
        assert report.first_order_gap[0] < 1e-8
        assert report.second_order_gap[0] < 1e-8

    def test_single_periodic_cell_closure_exact(self):
        # one periodic cell is its own neighbour on both sides: the stencil
        # is 0, so hopping must add no detuning
        config = FockConfig(modes=1, cutoff=14, d2=1.0, boundary="periodic")
        report = closure_gap(config, "coherent", [0.5, 1.0], alphas=[1.0])
        assert np.all(report.first_order_rel < 1e-8)
        assert np.all(report.second_order_rel < 1e-8)


def _gaussian_two_mode_density(config, alphas, squeezes, n_thermal):
    """Exact two-mode Gaussian state: per-mode squeezed displaced thermal."""
    parts = []
    for alpha, zeta in zip(alphas, squeezes):
        squeeze = squeeze_operator(config.cutoff, zeta)
        disp = displacement_operator(config.cutoff, alpha)
        rho = disp @ squeeze @ thermal_density(config.cutoff, n_thermal) \
            @ squeeze.conj().T @ disp.conj().T
        parts.append(rho)
    return np.kron(parts[0], parts[1])


@pytest.fixture(scope="module")
def correlated_gaussian():
    """A correlated two-mode Gaussian state with known density matrix:
    squeezed displaced thermal modes entangled by linear hopping + damping."""
    from qsolsim.integrator import StepControl

    config = FockConfig(modes=2, cutoff=18, chi_t=0.0, gamma_t=0.08, d2=-0.9,
                        delta_omega_t=0.2, n_th=0.1, s=0.0, dx=0.8)
    rho0 = _gaussian_two_mode_density(
        config, alphas=[0.9, 0.5 - 0.5j],
        squeezes=[0.3 * np.exp(0.7j), 0.22 * np.exp(-1.9j)], n_thermal=0.12)
    rho = evolve_density(config, rho0, [0.9],
                         control=StepControl(atol=1e-11, rtol=1e-9))[0]
    state = cumulants_from_density(config, rho, s=0.0, t=0.9)
    return config, rho, state


def _direct_spectrum(config, rho, lo_amp, omega_w0, phase):
    """Operator-level homodyne spectrum: expand <:X(x_j) X(x_k):> over the
    fluctuation operators and contract with the measurement phases."""
    x = config.grid().positions()
    ops = mode_operators(config)
    means = np.array([np.trace(rho @ a) for a in ops])
    d_ops = [a - mu * np.eye(config.dim) for a, mu in zip(ops, means)]

    def avg(op):
        return complex(np.trace(rho @ op))

    m = config.modes
    i0 = (np.sum(np.abs(lo_amp) ** 2)
          + sum(avg(a.conj().T @ a).real for a in ops)) / (2 * math.pi)
    omega = 2.0 * omega_w0
    return float(np.real(sum(
        np.exp(1j * omega * (x[k] - x[j])) * (
            np.exp(2j * phase) * lo_amp[j] * lo_amp[k]
            * avg(d_ops[j].conj().T @ d_ops[k].conj().T)
            + np.exp(-2j * phase) * np.conj(lo_amp[j] * lo_amp[k])
            * avg(d_ops[j] @ d_ops[k])
            + lo_amp[j] * np.conj(lo_amp[k]) * avg(d_ops[j].conj().T @ d_ops[k])
            + np.conj(lo_amp[j]) * lo_amp[k] * avg(d_ops[k].conj().T @ d_ops[j])
        )
        for j in range(m) for k in range(m)
    ))) / (2 * math.pi * i0)


class TestSpectralFormulaAdjudication:
    """The quadrature and photon-number kernels are checked against direct
    operator averages on exactly known density matrices.  This pins down the
    sign conventions of the antisymmetric cross terms in both kernel
    families, and the frequency pairing of the homodyne formula."""

    def test_homodyne_spectrum_on_symmetric_configuration(self):
        # an exchange-symmetric two-mode Gaussian state with a symmetric LO:
        # here the single-pairing kernel formula must match the operator
        # average pointwise at every frequency
        from qsolsim.integrator import StepControl

        config = FockConfig(modes=2, cutoff=18, chi_t=0.0, gamma_t=0.06, d2=-0.7,
                            delta_omega_t=0.15, n_th=0.08, s=0.0, dx=0.8)
        rho0 = _gaussian_two_mode_density(
            config, alphas=[0.7, 0.7],
            squeezes=[0.3 * np.exp(0.5j)] * 2, n_thermal=0.1)
        rho = evolve_density(config, rho0, [0.8],
                             control=StepControl(atol=1e-11, rtol=1e-9))[0]
        state = cumulants_from_density(config, rho, s=0.0, t=0.8)
        lo_amp = np.array([1.1, 1.1], dtype=complex)
        for omega_w0, phase in [(0.0, 0.3), (0.6, -0.9), (1.2, 0.0)]:
            s_direct = _direct_spectrum(config, rho, lo_amp, omega_w0, phase)
            res = squeezing_spectrum(state, LOPulse(lo_amp), [omega_w0], phase=phase)
            assert res.s[0] == pytest.approx(s_direct, rel=2e-4, abs=1e-6)

    def test_homodyne_spectrum_general_state_needs_symmetrization(self, correlated_gaussian):
        # for a spatially asymmetric state the measured spectrum is even in
        # frequency and equals the +-omega average of the kernel formula;
        # the single-pairing value at one sign of omega differs
        config, rho, state = correlated_gaussian
        lo_amp = np.array([0.8 + 0.1j, 1.3 - 0.4j])
        for omega_w0, phase in [(0.6, -0.9), (1.2, 0.0)]:
            s_direct = _direct_spectrum(config, rho, lo_amp, omega_w0, phase)
            res = squeezing_spectrum(state, LOPulse(lo_amp),
                                     [omega_w0, -omega_w0], phase=phase)
            symmetrized = 0.5 * (res.s[0] + res.s[1])
            assert symmetrized == pytest.approx(s_direct, rel=2e-4, abs=1e-6)
            # the direct spectrum itself is even in omega
            s_direct_neg = _direct_spectrum(config, rho, lo_amp, -omega_w0, phase)
            assert s_direct_neg == pytest.approx(s_direct, rel=1e-10, abs=1e-12)

    def test_photon_correlation_matches_operator_average(self, correlated_gaussian):
        config, rho, state = correlated_gaussian
        grid = config.grid()
        x = grid.positions()
        ops = mode_operators(config)
        omegas_w0 = [0.0, 0.8]
        d_omega_w0 = 2.0 * math.pi / (grid.m * grid.dx) / 2.0  # minimal, in w0
        pref = grid.dx * (2.0 * d_omega_w0) / (2 * math.pi)

        def big_a(omega):
            return sum(np.exp(1j * omega * x[j]) * ops[j] for j in range(2))

        def avg(op):
            return complex(np.trace(rho @ op))

        n_mean, variances = [], []
        for w in omegas_w0:
            aw = big_a(2.0 * w)
            n_mean.append(pref * avg(aw.conj().T @ aw).real)
        cov_normal = np.empty((2, 2))
        for i, wi in enumerate(omegas_w0):
            for j, wj in enumerate(omegas_w0):
                ai, aj = big_a(2.0 * wi), big_a(2.0 * wj)
                ordered = avg(ai.conj().T @ aj.conj().T @ ai @ aj).real
                cov_normal[i, j] = pref ** 2 * ordered - n_mean[i] * n_mean[j]
        var = np.diag(cov_normal) + np.array(n_mean)
        eta_direct = cov_normal / np.sqrt(np.outer(var, var))

        res = photon_correlation(state, omegas_w0, delta_omega=d_omega_w0)
        # agreement is limited by the Fock truncation of the Gaussian state
        # (clipped tails perturb the fourth moments); a sign error in any
        # kernel would show up at O(1)
        assert np.allclose(res.mean_photon, n_mean, rtol=1e-8)
        assert np.allclose(res.eta, eta_direct, rtol=1e-3, atol=1e-4)
