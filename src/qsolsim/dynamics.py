"""Time derivatives of the Gaussian-truncated cumulant hierarchy.

The field obeys a Kerr nonlinear Schroedinger dynamics with linear damping to
a thermal reservoir.  After spatial discretization the phase-space
distribution of the state satisfies a (pseudo-)Fokker-Planck equation, and
the cumulants of that distribution obey an infinite ODE hierarchy.  Closing
the hierarchy at second order (all cumulants of order >= 3 set to zero, which
is exact for Gaussian states) gives the system evaluated here:

first order, per cell::

    du = -g*cu + dw*cv - d2*lap(cv) + x*cv*(cu^2 + cv^2)
         + x*cv*((s-1) + Duu + 3*Dvv) + 2*x*cu*Duv
    dv = -g*cv - dw*cu + d2*lap(cu) - x*cu*(cu^2 + cv^2)
         - x*cu*((s-1) + 3*Duu + Dvv) - 2*x*cv*Duv

second order, per cell pair (j, k), with the local Kerr factors
g1 = cu^2 + 3 cv^2 + (s-1) + Duu + 3 Dvv,
g2 = 3 cu^2 + cv^2 + (s-1) + 3 Duu + Dvv,
h  = cu*cv + Duv  (Duu/Dvv/Duv are the same-cell diagonals)::

    dUU = [g*(n_th + (1-s)/2) + s*x*h] I - 2g*UU + dw*(UV + UV^T)
          - d2*(lapR(UV) + lapR(UV)^T)
          + x*(UV*g1[k] + (UV*g1[k])^T + 2*UU*(h[j] + h[k]))
    dVV = [g*(n_th + (1-s)/2) - s*x*h] I - 2g*VV - dw*(UV + UV^T)
          + d2*(lapL(UV) + lapL(UV)^T)
          - x*(g2[j]*UV + (g2[j]*UV)^T + 2*VV*(h[j] + h[k]))
    dUV = (s*x/2)*(cv^2 + Dvv - cu^2 - Duu) I - 2g*UV + dw*(VV - UU)
          + d2*(lapR(UU) - lapL(VV))
          + x*(-UU*g2[k] + g1[j]*VV + 2*UV*(h[j] - h[k]))

where g = gamma_t, dw = delta_omega_t, x = chi_t, d2 = disp_sign/(2 dx^2),
lap is the three-point stencil f(j+1) - 2 f(j) + f(j-1) and lapL/lapR apply
it to the row/column index only.  The truncation is realized by omission:
terms containing higher-order cumulants are never assembled.

Every ordering-dependent coefficient is evaluated at the *state's* s, so
states related by the diagonal reordering shift have identical derivatives
(the shift is constant in time).  This is asserted at 1e-12 by the test
suite and doubles as a transcription check; an independent symbolic
derivation from the phase-space generator is run in the tests as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import CumulantDerivative, CumulantState

__all__ = [
    "RHSCoefficients",
    "rhs",
    "rhs_first_order",
    "rhs_second_order",
    "second_order_asymmetry",
    "photon_balance_residual",
    "propagate",
    "lap_vec",
    "lap_rows",
    "lap_cols",
]


@dataclass(frozen=True)
class RHSCoefficients:
    """Dimensionless couplings of the cumulant equations (rates per t_d).

    ``s`` records the ordering the coefficients were derived at; the
    derivative evaluation itself always uses the state's own s so that
    reordered states stay on the same trajectory.
    """

    d2: float
    chi_t: float
    gamma_t: float
    delta_omega_t: float
    n_th: float
    s: float = 0.0

    def __post_init__(self):
        for name in ("d2", "chi_t", "gamma_t", "delta_omega_t", "n_th", "s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.gamma_t < 0:
            raise ValueError("damping must be non-negative")
        if self.n_th < 0:
            raise ValueError("reservoir occupation must be non-negative")

    def thermal_src(self, s: float | None = None) -> float:
        """Noise injection rate gamma_t * (n_th + (1-s)/2)."""
        s_eff = self.s if s is None else s
        return self.gamma_t * (self.n_th + 0.5 * (1.0 - s_eff))


# -- boundary-aware stencils -------------------------------------------------

def lap_vec(f: np.ndarray, boundary: str) -> np.ndarray:
    """Three-point Laplacian stencil on a vector."""
    out = -2.0 * f
    if boundary == "periodic":
        out += np.roll(f, 1) + np.roll(f, -1)
    else:  # absorbing: out-of-range cells read as zero
        out[:-1] += f[1:]
        out[1:] += f[:-1]
    return out


def lap_rows(mat: np.ndarray, boundary: str) -> np.ndarray:
    """Laplacian stencil applied to the first (row) index."""
    out = -2.0 * mat
    if boundary == "periodic":
        out += np.roll(mat, 1, axis=0) + np.roll(mat, -1, axis=0)
    else:
        out[:-1, :] += mat[1:, :]
        out[1:, :] += mat[:-1, :]
    return out


def lap_cols(mat: np.ndarray, boundary: str) -> np.ndarray:
    """Laplacian stencil applied to the second (column) index."""
    out = -2.0 * mat
    if boundary == "periodic":
        out += np.roll(mat, 1, axis=1) + np.roll(mat, -1, axis=1)
    else:
        out[:, :-1] += mat[:, 1:]
        out[:, 1:] += mat[:, :-1]
    return out


# -- right-hand sides --------------------------------------------------------

def _local_factors(state: CumulantState):
    duu = np.diag(state.cuu)
    dvv = np.diag(state.cvv)
    duv = np.diag(state.cuv)
    s1 = state.s - 1.0
    g1 = state.cu ** 2 + 3.0 * state.cv ** 2 + s1 + duu + 3.0 * dvv
    g2 = 3.0 * state.cu ** 2 + state.cv ** 2 + s1 + 3.0 * duu + dvv
    h = state.cu * state.cv + duv
    return duu, dvv, duv, g1, g2, h


def rhs_first_order(state: CumulantState, coeffs: RHSCoefficients):
    """Truncated mean-quadrature derivatives (dcu, dcv)."""
    bnd = state.grid.boundary
    duu, dvv, duv, _, _, _ = _local_factors(state)
    cu, cv = state.cu, state.cv
    x = coeffs.chi_t
    s1 = state.s - 1.0
    amp2 = cu ** 2 + cv ** 2

    dcu = (
        -coeffs.gamma_t * cu
        + coeffs.delta_omega_t * cv
        - coeffs.d2 * lap_vec(cv, bnd)
        + x * cv * amp2
        + x * cv * (s1 + duu + 3.0 * dvv)
        + 2.0 * x * cu * duv
    )
    dcv = (
        -coeffs.gamma_t * cv
        - coeffs.delta_omega_t * cu
        + coeffs.d2 * lap_vec(cu, bnd)
        - x * cu * amp2
        - x * cu * (s1 + 3.0 * duu + dvv)
        - 2.0 * x * cv * duv
    )
    return dcu, dcv


def _rhs_second_order_raw(state: CumulantState, coeffs: RHSCoefficients):
    # Hot path: assembled with in-place accumulation.  The v-u cross block is
    # cuv.T, and the stencil in the first slot of a transposed block equals
    # the transpose of the stencil in the second slot (lapL(M.T) = lapR(M).T),
    # so each Laplacian is evaluated once and reused transposed.
    bnd = state.grid.boundary
    diag_uu, diag_vv, _, g1, g2, h = _local_factors(state)
    cuu, cuv, cvv = state.cuu, state.cuv, state.cvv
    two_gamma = 2.0 * coeffs.gamma_t
    dw, d2, x = coeffs.delta_omega_t, coeffs.d2, coeffs.chi_t
    src = coeffs.thermal_src(state.s)
    sx = state.s * x

    sym_uv = cuv + cuv.T
    hsum = h[:, None] + h[None, :]
    lap2_uv = lap_cols(cuv, bnd)   # stencil on the v slot of <<u v'>>
    lap1_uv = lap_rows(cuv, bnd)   # stencil on the u slot of <<u v'>>

    # uu block: damping source + decay, phase rotation, dispersion, Kerr
    duu = np.diag(src + sx * h)
    duu += dw * sym_uv
    duu -= two_gamma * cuu
    work = lap2_uv + lap2_uv.T
    work *= -d2
    duu += work
    work = cuv * g1[None, :]
    work += work.T.copy()
    work *= x
    duu += work
    work = cuu * hsum
    work *= 2.0 * x
    duu += work

    # vv block: mirror of the uu block under u <-> v
    dvv = np.diag(src - sx * h)
    dvv -= dw * sym_uv
    dvv -= two_gamma * cvv
    work = lap1_uv + lap1_uv.T
    work *= d2
    dvv += work
    work = cuv * g2[:, None]
    work += work.T.copy()
    work *= -x
    dvv += work
    work = cvv * hsum
    work *= -2.0 * x
    dvv += work

    # uv block
    duv = np.diag(0.5 * sx * (state.cv ** 2 + diag_vv - state.cu ** 2 - diag_uu))
    duv += dw * (cvv - cuu)
    duv -= two_gamma * cuv
    work = lap_cols(cuu, bnd)
    work -= lap_rows(cvv, bnd)
    work *= d2
    duv += work
    work = cuu * g2[None, :]
    work *= -x
    duv += work
    work = cvv * g1[:, None]
    work *= x
    duv += work
    work = cuv * (h[:, None] - h[None, :])
    work *= 2.0 * x
    duv += work

    return duu, duv, dvv


def rhs_second_order(state: CumulantState, coeffs: RHSCoefficients):
    """Truncated covariance-block derivatives (dcuu, dcuv, dcvv).

    The uu/vv outputs are symmetrized after assembly; the raw asymmetry is
    floating-point noise only and can be inspected with
    ``second_order_asymmetry``.
    """
    duu, duv, dvv = _rhs_second_order_raw(state, coeffs)
    return 0.5 * (duu + duu.T), duv, 0.5 * (dvv + dvv.T)


def second_order_asymmetry(state: CumulantState, coeffs: RHSCoefficients) -> float:
    """Max relative asymmetry of the raw (pre-symmetrization) uu/vv derivatives."""
    duu, _, dvv = _rhs_second_order_raw(state, coeffs)
    out = 0.0
    for mat in (duu, dvv):
        scale = max(float(np.max(np.abs(mat))), 1.0)
        out = max(out, float(np.max(np.abs(mat - mat.T))) / scale)
    return out


def rhs(state: CumulantState, coeffs: RHSCoefficients) -> CumulantDerivative:
    """Full Gaussian-closure derivative of every cumulant block."""
    dcu, dcv = rhs_first_order(state, coeffs)
    duu, duv, dvv = rhs_second_order(state, coeffs)
    return CumulantDerivative(dcu, dcv, duu, duv, dvv)


def photon_balance_residual(state: CumulantState, deriv: CumulantDerivative,
                            coeffs: RHSCoefficients) -> float:
    """Residual of d/dt sum_j I_j + 2 gamma_t sum_j (I_j - n_th).

    With periodic boundaries and chi_t = 0 the balance is an exact identity
    of the equations and the residual is round-off only; with a Kerr term or
    absorbing walls it measures closure back-action plus boundary flux and is
    reported, not asserted.
    """
    intensity = (
        state.cu ** 2 + state.cv ** 2
        + np.diag(state.cuu) + np.diag(state.cvv)
        + 0.5 * (state.s - 1.0)
    )
    d_intensity = (
        2.0 * state.cu * deriv.cu + 2.0 * state.cv * deriv.cv
        + np.diag(deriv.cuu) + np.diag(deriv.cvv)
    )
    total = float(np.sum(d_intensity))
    return total + 2.0 * coeffs.gamma_t * float(np.sum(intensity - coeffs.n_th))


def propagate(state: CumulantState, coeffs: RHSCoefficients, t_end: float,
              output_times=None, tableau=None, control=None, observer=None,
              collect: bool = True):
    """Integrate the cumulant system from state.t to t_end (scaled time).

    Returns (states, stats): the states at the requested output times (by
    default just t_end) and the integrator step statistics.  ``observer``,
    if given, is called with each output state as it is reached; pass
    ``collect=False`` to rely on the observer alone and keep memory flat.
    """
    from .integrator import StepControl, integrate
    from .tableaus import DORMAND_PRINCE_853

    if output_times is None:
        output_times = (t_end,)
    if tableau is None:
        tableau = DORMAND_PRINCE_853
    if control is None:
        control = StepControl()

    def fun(t, y):
        return rhs(state.with_flat(y, t), coeffs).flatten()

    states: list[CumulantState] = []

    def on_output(t, y):
        snapshot = state.with_flat(np.array(y, copy=True), t)
        if collect:
            states.append(snapshot)
        if observer is not None:
            observer(snapshot)

    result = integrate(
        fun, state.flatten(), state.t, t_end,
        tableau=tableau, control=control,
        output_times=output_times, observer=on_output,
    )
    return states, result.stats
