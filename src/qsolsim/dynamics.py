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

from ._pair import run_pair
from .integrator import StepControl, integrate
from .observables import intensity
from .state import CumulantDerivative, CumulantState, split_flat
from .tableaus import DORMAND_PRINCE_853

__all__ = [
    "RHSCoefficients",
    "rhs",
    "rhs_scratch",
    "second_order_asymmetry",
    "photon_balance_residual",
    "propagate",
    "lap_rows",
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

def _lap(f: np.ndarray, axis: int, boundary: str, out=None, tmp=None,
         lo: int = 0, hi: int | None = None) -> np.ndarray:
    """f(j+1) - 2 f(j) + f(j-1) along ``axis``, written into ``out``.

    Only the indices [lo, hi) along ``axis`` of ``out`` are written (all of
    them by default), each with the same operations whatever the range:
    (-2 f + f(j+1)) + f(j-1) for absorbing walls, -2 f + (f(j-1) + f(j+1))
    with wrapped neighbours for a periodic grid.  A periodic stencil needs
    ``tmp`` (same shape as f) for the neighbour sum; both buffers are
    allocated when not given.
    """
    if out is None:
        out = np.empty_like(f)
    if tmp is None and boundary == "periodic":
        tmp = np.empty_like(f)
    if axis == 1:  # the same stencil along the first axis of the transposes
        _lap(f.T, 0, boundary, out.T, None if tmp is None else tmp.T, lo, hi)
        return out
    n = len(f)
    hi = n if hi is None else hi
    np.multiply(f[lo:hi], -2.0, out=out[lo:hi])
    if boundary == "periodic":
        # tmp = roll(f, 1) + roll(f, -1), built from slices instead of copies
        a, b = max(lo, 1), min(hi, n - 1)
        if a < b:
            np.add(f[a - 1:b - 1], f[a + 1:b + 1], out=tmp[a:b])
        if lo == 0 < hi:
            np.add(f[n - 1:n], f[1 % n:1 % n + 1], out=tmp[:1])
        if lo < hi == n:
            np.add(f[(n - 2) % n:(n - 2) % n + 1], f[:1], out=tmp[n - 1:])
        out[lo:hi] += tmp[lo:hi]
    else:  # absorbing: out-of-range cells read as zero
        a, b = max(lo, 1), min(hi, n - 1)
        if lo < b:
            out[lo:b] += f[lo + 1:b + 1]
        if a < hi:
            out[a:hi] += f[a - 1:hi - 1]
    return out


def lap_rows(mat: np.ndarray, boundary: str, out=None) -> np.ndarray:
    """Laplacian stencil applied to the first (row) index of a vector or matrix."""
    return _lap(mat, 0, boundary, out)


# -- right-hand sides --------------------------------------------------------

def rhs_scratch(m: int) -> np.ndarray:
    """Work blocks for ``rhs(..., scratch=)``; reusable across states of size m.

    Eight m x m blocks: the raw uu and vv derivatives, two blocks shared by
    both halves of the second-order assembly and two temporaries per half.
    """
    return np.empty((8, m, m))


def _local_factors(state: CumulantState):
    duu = np.diag(state.cuu)
    dvv = np.diag(state.cvv)
    duv = np.diag(state.cuv)
    s1 = state.s - 1.0
    g1 = state.cu ** 2 + 3.0 * state.cv ** 2 + s1 + duu + 3.0 * dvv
    g2 = 3.0 * state.cu ** 2 + state.cv ** 2 + s1 + 3.0 * duu + dvv
    h = state.cu * state.cv + duv
    return duu, dvv, duv, g1, g2, h


def _first_order(state: CumulantState, coeffs: RHSCoefficients, factors):
    bnd = state.grid.boundary
    duu, dvv, duv, _, _, _ = factors
    cu, cv = state.cu, state.cv
    x = coeffs.chi_t
    s1 = state.s - 1.0
    amp2 = cu ** 2 + cv ** 2

    dcu = (
        -coeffs.gamma_t * cu
        + coeffs.delta_omega_t * cv
        - coeffs.d2 * _lap(cv, 0, bnd)
        + x * cv * amp2
        + x * cv * (s1 + duu + 3.0 * dvv)
        + 2.0 * x * cu * duv
    )
    dcv = (
        -coeffs.gamma_t * cv
        - coeffs.delta_omega_t * cu
        + coeffs.d2 * _lap(cu, 0, bnd)
        - x * cu * amp2
        - x * cu * (s1 + 3.0 * duu + dvv)
        - 2.0 * x * cv * duv
    )
    return dcu, dcv


def _set_diag(mat: np.ndarray, diag: np.ndarray) -> None:
    """mat = np.diag(diag), written in place."""
    mat.fill(0.0)
    np.fill_diagonal(mat, diag)


class _SecondOrder:
    """The second-order assembly of one state, split into independent parts.

    Construction takes the local Kerr factors (``_local_factors``) and
    evaluates what every part shares: hsum = h[j] + h[k] and
    rot_uv = dw * (cuv + cuv^T), written into the two given blocks.  Then
    ``mirror_block`` writes the raw uu or vv block and ``uv_rows`` a row
    range of the uv block; parts that are given their own temporaries may
    run concurrently.  Every term is the same sequence of floating-point
    operations as a term-by-term evaluation, so results do not depend on
    buffers, row ranges or threads.  The v-u cross block is cuv.T, and the
    stencil in the first slot of a transposed block equals the transpose of
    the stencil in the second slot (lapL(M.T) = lapR(M).T), so each
    Laplacian is evaluated once and reused transposed.
    """

    def __init__(self, state: CumulantState, coeffs: RHSCoefficients, factors, hsum, rot_uv):
        self.state = state
        self.bnd = state.grid.boundary
        diag_uu, diag_vv, _, self.g1, self.g2, self.h = factors
        self.two_gamma = 2.0 * coeffs.gamma_t
        self.dw, self.d2, self.x = coeffs.delta_omega_t, coeffs.d2, coeffs.chi_t
        self.src = coeffs.thermal_src(state.s)
        self.sx = state.s * self.x
        self.uv_diag = 0.5 * self.sx * (state.cv ** 2 + diag_vv - state.cu ** 2 - diag_uu)
        np.add(self.h[:, None], self.h[None, :], out=hsum)
        np.add(state.cuv, state.cuv.T, out=rot_uv)
        rot_uv *= self.dw
        self.hsum, self.rot_uv = hsum, rot_uv

    def mirror_block(self, sign: int, out, tmp, acc) -> None:
        """Raw uu (sign +1) or vv (sign -1) block: source + decay, phase
        rotation, dispersion, Kerr.

        The vv block is the uu block under u <-> v: the thermal source and
        the decay keep their sign and every other term flips, the stencil
        moves from the v slot (axis 1) to the u slot (axis 0) of <<u v'>>
        and the Kerr factor from g1[k] to g2[j].
        """
        st, x = self.state, self.x
        if sign > 0:
            axis, cxx, kerr = 1, st.cuu, self.g1[None, :]
        else:
            axis, cxx, kerr = 0, st.cvv, self.g2[:, None]
        _set_diag(out, self.src + (sign * self.sx) * self.h)
        (np.add if sign > 0 else np.subtract)(out, self.rot_uv, out=out)
        out -= np.multiply(cxx, self.two_gamma, out=tmp)
        _lap(st.cuv, axis, self.bnd, tmp, acc)
        np.add(tmp, tmp.T, out=acc)
        acc *= -sign * self.d2
        out += acc
        np.multiply(st.cuv, kerr, out=tmp)
        np.add(tmp, tmp.T, out=acc)
        acc *= sign * x
        out += acc
        np.multiply(cxx, self.hsum, out=tmp)
        tmp *= sign * 2.0 * x
        out += tmp

    def uv_rows(self, lo: int, hi: int, duv, tmp, acc, spare) -> None:
        """Rows [lo, hi) of the uv block; ``spare`` is a third temporary."""
        st, x = self.state, self.x
        rows = slice(lo, hi)
        cuu, cuv, cvv = st.cuu[rows], st.cuv[rows], st.cvv[rows]
        duv, t, a = duv[rows], tmp[rows], acc[rows]
        duv.fill(0.0)
        np.fill_diagonal(duv[:, rows], self.uv_diag[rows])
        np.subtract(cvv, cuu, out=t)
        t *= self.dw
        duv += t
        duv -= np.multiply(cuv, self.two_gamma, out=t)
        _lap(cuu, 1, self.bnd, t, a)
        t -= _lap(st.cvv, 0, self.bnd, acc, spare, lo, hi)[rows]
        t *= self.d2
        duv += t
        np.multiply(cuu, self.g2[None, :], out=t)
        t *= -x
        duv += t
        np.multiply(cvv, self.g1[rows, None], out=t)
        t *= x
        duv += t
        np.subtract(self.h[rows, None], self.h[None, :], out=a)
        np.multiply(cuv, a, out=t)
        t *= 2.0 * x
        duv += t


def second_order_asymmetry(state: CumulantState, coeffs: RHSCoefficients) -> float:
    """Max relative asymmetry of the raw (pre-symmetrization) uu/vv derivatives."""
    raw_uu, raw_vv, hsum, rot_uv, tmp, acc, _, _ = rhs_scratch(state.grid.m)
    parts = _SecondOrder(state, coeffs, _local_factors(state), hsum, rot_uv)
    out = 0.0
    for sign, mat in ((1, raw_uu), (-1, raw_vv)):
        parts.mirror_block(sign, mat, tmp, acc)
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
    m x m array.  The second-order blocks are assembled as two fixed halves,
    concurrently when the process may use two CPUs (``_pair.run_pair``); the
    result is the same either way.  The uu/vv blocks are symmetrized after
    assembly; ``second_order_asymmetry`` reports the raw asymmetry.
    """
    m = state.grid.m
    if out is None:
        out = np.empty(2 * m + 3 * m * m)
    if scratch is None:
        scratch = rhs_scratch(m)
    deriv = CumulantDerivative(*split_flat(out, m))
    factors = _local_factors(state)
    deriv.cu[...], deriv.cv[...] = _first_order(state, coeffs, factors)
    raw_uu, raw_vv, hsum, rot_uv, tmp_a, acc_a, tmp_b, acc_b = scratch
    parts = _SecondOrder(state, coeffs, factors, hsum, rot_uv)

    def half(sign, raw, sym, lo, hi, tmp, acc):
        parts.mirror_block(sign, raw, tmp, acc)
        np.add(raw, raw.T, out=sym)
        sym *= 0.5
        parts.uv_rows(lo, hi, deriv.cuv, tmp, acc, raw)  # raw is free again

    cut = m // 2
    run_pair(lambda: half(1, raw_uu, deriv.cuu, 0, cut, tmp_a, acc_a),
             lambda: half(-1, raw_vv, deriv.cvv, cut, m, tmp_b, acc_b))
    return deriv


def photon_balance_residual(state: CumulantState, deriv: CumulantDerivative,
                            coeffs: RHSCoefficients) -> float:
    """Residual of d/dt sum_j I_j + 2 gamma_t sum_j (I_j - n_th).

    With periodic boundaries and chi_t = 0 the balance is an exact identity
    of the equations and the residual is round-off only; with a Kerr term or
    absorbing walls it measures closure back-action plus boundary flux and is
    reported, not asserted.
    """
    d_intensity = (
        2.0 * state.cu * deriv.cu + 2.0 * state.cv * deriv.cv
        + np.diag(deriv.cuu) + np.diag(deriv.cvv)
    )
    total = float(np.sum(d_intensity))
    return total + 2.0 * coeffs.gamma_t * float(np.sum(intensity(state) - coeffs.n_th))


def propagate(state: CumulantState, coeffs: RHSCoefficients, t_end: float,
              output_times=None, tableau=None, control=None, observer=None,
              collect: bool = True):
    """Integrate the cumulant system from state.t to t_end (scaled time).

    Returns (states, stats): the states at the requested output times (by
    default just t_end) and the integrator step statistics.  ``observer``,
    if given, is called with each output state as it is reached; pass
    ``collect=False`` to rely on the observer alone and keep memory flat.
    """
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
