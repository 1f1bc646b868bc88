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

from .state import CumulantDerivative, CumulantState, split_flat

__all__ = [
    "RHSCoefficients",
    "rhs",
    "rhs_scratch",
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

def _lap(f: np.ndarray, axis: int, boundary: str, out=None, tmp=None) -> np.ndarray:
    """f(j+1) - 2 f(j) + f(j-1) along ``axis``, written into ``out``.

    A periodic stencil needs ``tmp`` (same shape as f) for the neighbour sum;
    both buffers are allocated when not given.
    """
    def along(sl):
        return (slice(None),) * axis + (sl,)

    if out is None:
        out = np.empty_like(f)
    np.multiply(f, -2.0, out=out)
    if boundary == "periodic":
        # tmp = roll(f, 1) + roll(f, -1), built from slices instead of copies
        if tmp is None:
            tmp = np.empty_like(f)
        n = f.shape[axis]
        np.add(f[along(slice(None, -2))], f[along(slice(2, None))],
               out=tmp[along(slice(1, -1))])
        tmp[along([0, n - 1])] = f[along([n - 1, (n - 2) % n])] + f[along([1 % n, 0])]
        out += tmp
    else:  # absorbing: out-of-range cells read as zero
        out[along(slice(None, -1))] += f[along(slice(1, None))]
        out[along(slice(1, None))] += f[along(slice(None, -1))]
    return out


def lap_vec(f: np.ndarray, boundary: str) -> np.ndarray:
    """Three-point Laplacian stencil on a vector."""
    return _lap(f, 0, boundary)


def lap_rows(mat: np.ndarray, boundary: str, out=None) -> np.ndarray:
    """Laplacian stencil applied to the first (row) index."""
    return _lap(mat, 0, boundary, out)


def lap_cols(mat: np.ndarray, boundary: str, out=None) -> np.ndarray:
    """Laplacian stencil applied to the second (column) index."""
    return _lap(mat, 1, boundary, out)


# -- right-hand sides --------------------------------------------------------

def rhs_scratch(m: int) -> np.ndarray:
    """Work blocks for ``rhs(..., scratch=)``; reusable across states of size m.

    Six m x m blocks: the raw uu and vv derivatives and four temporaries of
    the second-order assembly, which is ordered so that no more are needed.
    """
    return np.empty((6, m, m))


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


def _set_diag(mat: np.ndarray, diag: np.ndarray) -> None:
    """mat = np.diag(diag), written in place."""
    mat.fill(0.0)
    np.fill_diagonal(mat, diag)


def _rhs_second_order_raw(state: CumulantState, coeffs: RHSCoefficients,
                          duu, duv, dvv, work) -> None:
    # Hot path: assembled into the given blocks with in-place accumulation;
    # ``work`` holds four m x m temporaries.  Every term is the same sequence
    # of floating-point operations as a term-by-term evaluation, so results
    # do not depend on which buffers are reused.  The v-u cross block is
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
    hsum, rot_uv, tmp, acc = work

    np.add(h[:, None], h[None, :], out=hsum)
    np.add(cuv, cuv.T, out=rot_uv)
    rot_uv *= dw     # dw * (cuv + cuv^T), shared by the uu and vv blocks

    # uu block: damping source + decay, phase rotation, dispersion, Kerr
    _set_diag(duu, src + sx * h)
    duu += rot_uv
    duu -= np.multiply(cuu, two_gamma, out=tmp)
    _lap(cuv, 1, bnd, tmp, acc)     # stencil on the v slot of <<u v'>>
    np.add(tmp, tmp.T, out=acc)
    acc *= -d2
    duu += acc
    np.multiply(cuv, g1[None, :], out=tmp)
    np.add(tmp, tmp.T, out=acc)
    acc *= x
    duu += acc
    np.multiply(cuu, hsum, out=tmp)
    tmp *= 2.0 * x
    duu += tmp

    # vv block: mirror of the uu block under u <-> v
    _set_diag(dvv, src - sx * h)
    dvv -= rot_uv
    dvv -= np.multiply(cvv, two_gamma, out=tmp)
    _lap(cuv, 0, bnd, tmp, acc)     # stencil on the u slot of <<u v'>>
    np.add(tmp, tmp.T, out=acc)
    acc *= d2
    dvv += acc
    np.multiply(cuv, g2[:, None], out=tmp)
    np.add(tmp, tmp.T, out=acc)
    acc *= -x
    dvv += acc
    np.multiply(cvv, hsum, out=tmp)
    tmp *= -2.0 * x
    dvv += tmp

    # uv block
    _set_diag(duv, 0.5 * sx * (state.cv ** 2 + diag_vv - state.cu ** 2 - diag_uu))
    np.subtract(cvv, cuu, out=tmp)
    tmp *= dw
    duv += tmp
    duv -= np.multiply(cuv, two_gamma, out=tmp)
    _lap(cuu, 1, bnd, tmp, acc)
    tmp -= _lap(cvv, 0, bnd, acc, hsum)
    tmp *= d2
    duv += tmp
    np.multiply(cuu, g2[None, :], out=tmp)
    tmp *= -x
    duv += tmp
    np.multiply(cvv, g1[:, None], out=tmp)
    tmp *= x
    duv += tmp
    np.subtract(h[:, None], h[None, :], out=acc)
    np.multiply(cuv, acc, out=tmp)
    tmp *= 2.0 * x
    duv += tmp


def rhs_second_order(state: CumulantState, coeffs: RHSCoefficients):
    """Truncated covariance-block derivatives (dcuu, dcuv, dcvv).

    The uu/vv outputs are symmetrized after assembly; the raw asymmetry is
    floating-point noise only and can be inspected with
    ``second_order_asymmetry``.
    """
    deriv = rhs(state, coeffs)
    return deriv.cuu, deriv.cuv, deriv.cvv


def second_order_asymmetry(state: CumulantState, coeffs: RHSCoefficients) -> float:
    """Max relative asymmetry of the raw (pre-symmetrization) uu/vv derivatives."""
    m = state.grid.m
    duu, dvv, *work = rhs_scratch(m)
    _rhs_second_order_raw(state, coeffs, duu, np.empty((m, m)), dvv, work)
    out = 0.0
    for mat in (duu, dvv):
        scale = max(float(np.max(np.abs(mat))), 1.0)
        out = max(out, float(np.max(np.abs(mat - mat.T))) / scale)
    return out


def rhs(state: CumulantState, coeffs: RHSCoefficients, out: np.ndarray | None = None,
        scratch: np.ndarray | None = None) -> CumulantDerivative:
    """Full Gaussian-closure derivative of every cumulant block.

    The blocks are written into ``out``, a contiguous flat vector in the
    ``CumulantState.flatten`` layout, and returned as views of it; the m x m
    temporaries live in ``scratch`` (``rhs_scratch(m)``).  Either is
    allocated when not given, so repeated calls with both given allocate no
    m x m array.
    """
    m = state.grid.m
    if out is None:
        out = np.empty(2 * m + 3 * m * m)
    if scratch is None:
        scratch = rhs_scratch(m)
    deriv = CumulantDerivative(*split_flat(out, m))
    deriv.cu[...], deriv.cv[...] = rhs_first_order(state, coeffs)
    raw_uu, raw_vv, *work = scratch
    _rhs_second_order_raw(state, coeffs, raw_uu, deriv.cuv, raw_vv, work)
    for raw, sym in ((raw_uu, deriv.cuu), (raw_vv, deriv.cvv)):
        np.add(raw, raw.T, out=sym)
        sym *= 0.5
    return deriv


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

    scratch = rhs_scratch(state.grid.m)

    def fun(t, y, out):
        rhs(state.with_flat(y, t), coeffs, out=out, scratch=scratch)

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
