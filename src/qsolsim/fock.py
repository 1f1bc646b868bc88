"""Brute-force master-equation oracle in a truncated Fock space.

For one or two cells the full density matrix is small enough to evolve
exactly.  The Lindblad equation for absorption into a thermal reservoir is
evaluated in its quantum-jump form

    drho/dt = -i (H_eff rho - rho H_eff+) + sum_L 2 w_L L rho L+,
    H_eff = H - i sum_L w_L L+ L,

with jumps L = a_j of weight gamma (N_th + 1) and L = a_j+ of weight
gamma N_th; channels of weight 0 are left out.  For L = a_j+, L+ L is the
truncated a_j a_j+, not n_j + 1.  The discrete Hamiltonian is

    H = dw * sum_j a_j+ a_j  -  d2 * sum_jk L[j,k] a_j+ a_k
        + (chi/2) * sum_j a_j+ a_j+ a_j a_j,

where L = ``dynamics.lap_rows`` of the identity is the stencil the cumulant
dynamics uses, so the two descriptions share their discretization exactly.
Moments extracted from rho convert to s-ordered cumulants and certify the
Gaussian closure and the spectral observable formulas at small scale.

Photon numbers here are O(1..100): far below production scale, but the
closure equations are coefficient-form identical at any scale, so agreement
here transfers.  Evolution reuses the package's adaptive Runge-Kutta
integrator on the vectorized density matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import finite, non_negative
from .dynamics import RHSCoefficients, lap_rows, propagate
from .integrator import StepControl, integrate
from .state import CumulantState, GridSpec, _ordering, thermal_state

__all__ = [
    "FockConfig",
    "CutoffOverflowError",
    "destroy",
    "mode_operators",
    "hamiltonian",
    "coherent_vector",
    "displacement_operator",
    "squeeze_operator",
    "thermal_density",
    "initial_density",
    "evolve_density",
    "cumulants_from_density",
    "matching_initial_state",
    "closure_gap",
    "GapReport",
    "damped_mean",
    "kerr_mean",
]


class CutoffOverflowError(RuntimeError):
    """Population reached the top Fock level; the truncation is unreliable."""


@dataclass(frozen=True)
class FockConfig:
    """Couplings and truncation of the exact small-system evolution."""

    modes: int
    cutoff: int
    chi_t: float = 0.0
    gamma_t: float = 0.0
    delta_omega_t: float = 0.0
    d2: float = 0.0
    n_th: float = 0.0
    s: float = 0.0
    dx: float = 1.0
    boundary: str = "absorbing"

    def __post_init__(self):
        if self.modes not in (1, 2):
            raise ValueError("exact evolution supports 1 or 2 modes")
        if self.cutoff < 2:
            raise ValueError("cutoff must hold at least two levels")
        self.grid()  # GridSpec and RHSCoefficients own the rules of the floats
        self.coefficients()
        _ordering(self.s)

    @property
    def dim(self) -> int:
        return self.cutoff ** self.modes

    def grid(self) -> GridSpec:
        return GridSpec(self.modes, self.dx, self.boundary)

    def coefficients(self) -> RHSCoefficients:
        return RHSCoefficients(
            d2=self.d2, chi_t=self.chi_t, gamma_t=self.gamma_t,
            delta_omega_t=self.delta_omega_t, n_th=self.n_th,
        )


def destroy(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def mode_operators(config: FockConfig) -> list[np.ndarray]:
    """Annihilation operator of each mode on the full Hilbert space."""
    a = destroy(config.cutoff)
    eye = np.eye(config.cutoff, dtype=complex)
    if config.modes == 1:
        return [a]
    return [np.kron(a, eye), np.kron(eye, a)]


def hamiltonian(config: FockConfig) -> np.ndarray:
    ops = mode_operators(config)
    h = np.zeros((config.dim, config.dim), dtype=complex)
    lap = lap_rows(np.eye(config.modes), config.boundary)
    for j, aj in enumerate(ops):
        nj = aj.conj().T @ aj
        h += config.delta_omega_t * nj
        h += 0.5 * config.chi_t * (aj.conj().T @ aj.conj().T @ aj @ aj)
        for k, ak in enumerate(ops):
            h -= config.d2 * lap[j, k] * (aj.conj().T @ ak)
    return h


# -- initial states -----------------------------------------------------------

def coherent_vector(cutoff: int, alpha: complex) -> np.ndarray:
    """Coherent-state amplitudes, renormalized after truncation."""
    if finite("alpha", alpha) == 0:
        amp = np.zeros(cutoff, dtype=complex)
        amp[0] = 1.0
        return amp
    n = np.arange(cutoff)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, cutoff)))])
    amp = np.exp(n * np.log(complex(alpha)) - 0.5 * log_fact - 0.5 * abs(alpha) ** 2)
    return (amp / math.sqrt(float(np.real(np.vdot(amp, amp))))).astype(complex)


def _unitary(gen: np.ndarray) -> np.ndarray:
    """exp(gen) of an anti-Hermitian generator, via eigh of the Hermitian -i gen."""
    vals, vecs = np.linalg.eigh(-1j * gen)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def displacement_operator(cutoff: int, alpha: complex) -> np.ndarray:
    """exp(alpha a+ - alpha* a)."""
    a = destroy(cutoff)
    return _unitary(finite("alpha", alpha) * a.conj().T - np.conj(alpha) * a)


def squeeze_operator(cutoff: int, zeta: complex) -> np.ndarray:
    """exp((zeta* a^2 - zeta a+^2)/2)."""
    a = destroy(cutoff)
    return _unitary(0.5 * (np.conj(finite("zeta", zeta)) * (a @ a)
                           - zeta * (a.conj().T @ a.conj().T)))


def thermal_density(cutoff: int, n: float) -> np.ndarray:
    if non_negative("n", n) == 0:
        rho = np.zeros((cutoff, cutoff), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    weights = (n / (1.0 + n)) ** np.arange(cutoff) / (1.0 + n)
    weights = weights / weights.sum()  # renormalize the truncated tail
    return np.diag(weights).astype(complex)


def initial_density(config: FockConfig, kind: str, alphas=None, n: float = 0.0) -> np.ndarray:
    """Product initial state: 'coherent', 'thermal' or 'displaced-thermal'."""
    if alphas is None:
        alphas = [0.0] * config.modes
    alphas = list(finite("alphas", np.atleast_1d(alphas)))
    if len(alphas) != config.modes:
        raise ValueError("need one amplitude per mode")
    parts = []
    for alpha in alphas:
        if kind == "coherent":
            vec = coherent_vector(config.cutoff, alpha)
            parts.append(np.outer(vec, vec.conj()))
        elif kind == "thermal":
            parts.append(thermal_density(config.cutoff, n))
        elif kind == "displaced-thermal":
            disp = displacement_operator(config.cutoff, alpha)
            parts.append(disp @ thermal_density(config.cutoff, n) @ disp.conj().T)
        else:
            raise ValueError(f"unknown initial state kind {kind!r}")
    rho = parts[0]
    for part in parts[1:]:
        rho = np.kron(rho, part)
    return rho


# -- evolution ----------------------------------------------------------------

_CONTROL = StepControl(atol=1e-12, rtol=1e-10)  # default for both evolutions


def _liouvillian(config: FockConfig):
    """drho/dt in the module docstring's jump form: 2 + 2 * len(jumps) products."""
    h_eff = hamiltonian(config)
    jumps = []
    for a in mode_operators(config):
        ad = a.conj().T
        for w, op, op_d in ((config.gamma_t * (config.n_th + 1.0), a, ad),
                            (config.gamma_t * config.n_th, ad, a)):
            if w > 0:
                h_eff -= 1j * w * (op_d @ op)
                jumps.append((2.0 * w * op, op_d))
    gen = -1j * h_eff
    gen_d = gen.conj().T

    def rhs_rho(rho: np.ndarray) -> np.ndarray:
        drho = gen @ rho
        drho += rho @ gen_d
        for op, op_d in jumps:
            drho += (op @ rho) @ op_d
        return drho

    return rhs_rho


def _check_density(config: FockConfig, rho: np.ndarray, t: float):
    tr = complex(np.trace(rho)).real
    if abs(tr - 1.0) > 1e-10:
        raise RuntimeError(f"trace drifted to {tr!r} at t = {t}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > 1e-10:
        raise RuntimeError(f"hermiticity residual {herm:.2e} at t = {t}")
    # population of the top level of each mode marginal
    full = rho.reshape((config.cutoff,) * (2 * config.modes))
    for j in range(config.modes):
        marginal = full
        for k in reversed(range(config.modes)):
            if k != j:
                marginal = np.trace(marginal, axis1=k, axis2=k + marginal.ndim // 2)
        top = float(np.real(marginal[-1, -1]))
        if top > 1e-8:
            raise CutoffOverflowError(
                f"mode {j} top-level population {top:.2e} at t = {t}; raise the cutoff")
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    if min_eig < -1e-10:
        raise RuntimeError(f"negative eigenvalue {min_eig:.2e} at t = {t}")


def evolve_density(config: FockConfig, rho0: np.ndarray, t_grid,
                   control: StepControl | None = None) -> list[np.ndarray]:
    """Exact-master-equation evolution; returns rho at each requested time.

    Trace, hermiticity, positivity and cutoff adequacy are asserted at every
    output time.
    """
    dim = config.dim
    if rho0.shape != (dim, dim):
        raise ValueError(f"density matrix must be {dim} x {dim}")
    tr = complex(np.trace(finite("rho0", rho0))).real
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"initial state must have unit trace, got {tr}")
    rhs_rho = _liouvillian(config)

    def fun(t, y, out):
        out[:] = rhs_rho(y.reshape(dim, dim)).ravel()

    t_grid = finite("t_grid", [float(t) for t in t_grid])
    if not t_grid or min(t_grid) < 0:
        raise ValueError("t_grid must be a non-empty list of times >= 0")
    outputs = []
    integrate(fun, rho0.astype(complex).ravel(), 0.0, t_grid,
              lambda t, y: outputs.append(y.copy()), control=control or _CONTROL)
    rhos = _in_caller_order(t_grid, [flat.reshape(dim, dim) for flat in outputs])
    for t, rho in zip(t_grid, rhos):
        _check_density(config, rho, t)
    return rhos


def _in_caller_order(t_grid: list[float], results: list) -> list:
    """Rearrange per-time results, produced in ascending time, into t_grid's order."""
    ordered = [None] * len(t_grid)
    for i, item in zip(sorted(range(len(t_grid)), key=t_grid.__getitem__), results):
        ordered[i] = item
    return ordered


# -- cumulant extraction -------------------------------------------------------

def cumulants_from_density(config: FockConfig, rho: np.ndarray,
                           s: float | None = None, t: float = 0.0) -> CumulantState:
    """s-ordered first/second cumulants of the exact state.

    Normally ordered moments come straight from rho; the ordering parameter
    enters only through the (1 - s)/2 commutator share on equal-mode
    quadrature variances.
    """
    s = config.s if s is None else _ordering(s)
    finite("rho", rho)
    ops = mode_operators(config)
    m = config.modes
    means = np.array([np.trace(rho @ a) for a in ops])
    mom_aa = np.array([[np.trace(rho @ (ops[i] @ ops[j])) for j in range(m)]
                       for i in range(m)])
    mom_ada = np.array([[np.trace(rho @ (ops[i].conj().T @ ops[j])) for j in range(m)]
                        for i in range(m)])
    cu = means.real
    cv = means.imag
    eye = np.eye(m)
    cuu = 0.25 * (2.0 * mom_aa.real + 2.0 * mom_ada.real + (1.0 - s) * eye) - np.outer(cu, cu)
    cvv = 0.25 * (-2.0 * mom_aa.real + 2.0 * mom_ada.real + (1.0 - s) * eye) - np.outer(cv, cv)
    cuv = 0.5 * (mom_aa.imag + mom_ada.imag) - np.outer(cu, cv)
    return CumulantState(config.grid(), s, t, cu, cv,
                         0.5 * (cuu + cuu.T), cuv, 0.5 * (cvv + cvv.T))


def matching_initial_state(config: FockConfig, kind: str, alphas=None,
                           n: float = 0.0) -> CumulantState:
    """Gaussian cumulant state with the same moments as initial_density."""
    if alphas is None:
        alphas = [0.0] * config.modes
    alphas = finite("alphas", np.atleast_1d(np.asarray(alphas, dtype=complex)))
    base = thermal_state(config.grid(), non_negative("n", n) if kind != "coherent" else 0.0,
                         config.s)
    if kind == "thermal":
        return base
    if kind not in ("coherent", "displaced-thermal"):
        raise ValueError(f"unknown initial state kind {kind!r}")
    return CumulantState(config.grid(), config.s, 0.0,
                         alphas.real.copy(), alphas.imag.copy(),
                         base.cuu, base.cuv, base.cvv)


# -- closure certification ------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    """Max deviation between Gaussian-closure and exact cumulants per time."""

    times: np.ndarray
    first_order_gap: np.ndarray     # max abs over (cu, cv)
    second_order_gap: np.ndarray    # max abs over (cuu, cuv, cvv)
    first_order_scale: np.ndarray   # max abs of the exact first-order cumulants
    second_order_scale: np.ndarray

    @property
    def first_order_rel(self) -> np.ndarray:
        return self.first_order_gap / np.maximum(self.first_order_scale, 1e-300)

    @property
    def second_order_rel(self) -> np.ndarray:
        return self.second_order_gap / np.maximum(self.second_order_scale, 1e-300)


def closure_gap(config: FockConfig, kind: str, t_grid, alphas=None, n: float = 0.0,
                control: StepControl | None = None) -> GapReport:
    """Evolve the same initial state exactly and in the Gaussian closure.

    Reports the per-time maximum deviation of the cumulants.  For chi_t = 0
    the closure is exact and the gap is integrator tolerance only; for weak
    Kerr interaction it grows like the square of the accumulated nonlinear
    phase.
    """
    t_grid = [float(t) for t in t_grid]
    rho0 = initial_density(config, kind, alphas=alphas, n=n)
    rhos = evolve_density(config, rho0, t_grid, control=control)
    state0 = matching_initial_state(config, kind, alphas=alphas, n=n)
    states = []
    propagate(state0, config.coefficients(), t_grid,
              lambda st: states.append(st.with_flat(st.flatten(), st.t)),
              control=control or _CONTROL)
    states = _in_caller_order(t_grid, states)

    gap1, gap2, scale1, scale2 = [], [], [], []
    for t, rho, approx in zip(t_grid, rhos, states):
        exact = cumulants_from_density(config, rho, s=config.s, t=t)
        d1 = max(np.max(np.abs(exact.cu - approx.cu)),
                 np.max(np.abs(exact.cv - approx.cv)))
        d2 = max(np.max(np.abs(exact.cuu - approx.cuu)),
                 np.max(np.abs(exact.cuv - approx.cuv)),
                 np.max(np.abs(exact.cvv - approx.cvv)))
        gap1.append(d1)
        gap2.append(d2)
        scale1.append(max(np.max(np.abs(exact.cu)), np.max(np.abs(exact.cv))))
        scale2.append(max(np.max(np.abs(exact.cuu)), np.max(np.abs(exact.cuv)),
                          np.max(np.abs(exact.cvv))))
    return GapReport(np.array(t_grid), np.array(gap1), np.array(gap2),
                     np.array(scale1), np.array(scale2))


# -- closed-form references -----------------------------------------------------

def damped_mean(alpha: complex, gamma_t: float, delta_omega_t: float, t: float) -> complex:
    """Mean amplitude of the damped harmonic mode (no Kerr)."""
    rate = finite("gamma_t", gamma_t) + 1j * finite("delta_omega_t", delta_omega_t)
    return finite("alpha", alpha) * np.exp(-rate * finite("t", t))


def kerr_mean(alpha: complex, chi_t: float, t: float) -> complex:
    """Mean amplitude under the pure Kerr Hamiltonian (chi/2) a+a+aa.

    Moving the annihilator through the evolution operator shifts the photon
    number by one, leaving a phase e^{-i chi t n}; averaging over the
    coherent Poisson distribution gives

        <a(t)> = alpha * exp(|alpha|^2 (e^{-i chi t} - 1)).

    Verified against direct density-matrix evolution in the test suite.
    """
    phase = np.exp(-1j * finite("chi_t", chi_t) * finite("t", t))
    return finite("alpha", alpha) * np.exp(abs(alpha) ** 2 * (phase - 1.0))
