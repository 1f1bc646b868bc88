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

from dataclasses import dataclass

import numpy as np

from ._checks import finite, non_negative
from ._pair import run_pair
from .integrator import StepControl, integrate
from .observables import intensity
from .state import CumulantDerivative, CumulantState, split_flat
from .tableaus import DORMAND_PRINCE_853, Tableau

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

    None of them depends on the ordering parameter: every ordering-dependent
    term is evaluated at the state's own s, so reordered states stay on the
    same trajectory.
    """

    d2: float
    chi_t: float
    gamma_t: float
    delta_omega_t: float
    n_th: float

    def __post_init__(self):
        finite("d2", self.d2)
        finite("chi_t", self.chi_t)
        non_negative("gamma_t", self.gamma_t)
        finite("delta_omega_t", self.delta_omega_t)
        non_negative("n_th", self.n_th)

    def thermal_src(self, s: float) -> float:
        """Noise injection rate gamma_t * (n_th + (1-s)/2) at ordering s."""
        return self.gamma_t * (self.n_th + 0.5 * (1.0 - s))


# -- boundary-aware stencils -------------------------------------------------

def lap_rows(f: np.ndarray, boundary: str, out=None, tmp=None,
             lo: int = 0, hi: int | None = None) -> np.ndarray:
    """f(j+1) - 2 f(j) + f(j-1) along the first (row) index, written into ``out``.

    Only rows [lo, hi) of ``out`` are written (all of them by default), each
    with the same operations whatever the range: (-2 f + f(j+1)) + f(j-1)
    for absorbing walls, -2 f + (f(j-1) + f(j+1)) with wrapped neighbours
    for a periodic grid.  A periodic stencil needs ``tmp`` (same shape as f)
    for the neighbour sum; both buffers are allocated when not given.  The
    stencil along the second index is this one on transposed views of f,
    ``out`` and ``tmp``.
    """
    if out is None:
        out = np.empty_like(f)
    if tmp is None and boundary == "periodic":
        tmp = np.empty_like(f)
    n = len(f)
    hi = n if hi is None else hi
    a, b = max(lo, 1), min(hi, n - 1)
    np.multiply(f[lo:hi], -2.0, out=out[lo:hi])
    if boundary == "periodic":
        # tmp = roll(f, 1) + roll(f, -1), built from slices instead of copies
        if a < b:
            np.add(f[a - 1:b - 1], f[a + 1:b + 1], out=tmp[a:b])
        if lo == 0 < hi:
            np.add(f[n - 1:], f[1 % n:1 % n + 1], out=tmp[:1])
        if lo < hi == n:
            np.add(f[(n - 2) % n:(n - 2) % n + 1], f[:1], out=tmp[n - 1:])
        out[lo:hi] += tmp[lo:hi]
    else:  # absorbing: out-of-range cells read as zero
        if lo < b:
            out[lo:b] += f[lo + 1:b + 1]
        if a < hi:
            out[a:hi] += f[a - 1:hi - 1]
    return out


# -- right-hand sides --------------------------------------------------------

def rhs_scratch(m: int) -> np.ndarray:
    """Work blocks for ``rhs(..., scratch=)``; reusable across states of size m.

    Four m x m blocks, two temporaries for each half of the second-order
    assembly; no block is written by both halves.
    """
    return np.empty((4, m, m))


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
        - coeffs.d2 * lap_rows(cv, bnd)
        + x * cv * amp2
        + x * cv * (s1 + duu + 3.0 * dvv)
        + 2.0 * x * cu * duv
    )
    dcv = (
        -coeffs.gamma_t * cv
        - coeffs.delta_omega_t * cu
        + coeffs.d2 * lap_rows(cu, bnd)
        - x * cu * amp2
        - x * cu * (s1 + 3.0 * duu + dvv)
        - 2.0 * x * cv * duv
    )
    return dcu, dcv


class _SecondOrder:
    """The second-order assembly of one state, split into independent parts.

    Construction takes the local Kerr factors (``_local_factors``);
    ``mirror_block`` writes the uu or vv block and ``uv_rows`` a row range of
    the uv block, and parts that are given their own temporaries may run
    concurrently: a part writes only its own output rows and temporaries.
    Every term is the same sequence of floating-point operations as a
    term-by-term evaluation, so results do not depend on buffers, row ranges
    or threads.  Each term of a mirror block is exactly symmetric when cuu
    and cvv are, and so is their sum.  The v-u cross block is cuv.T, and the
    stencil in the first slot of a transposed block equals the transpose of
    the stencil in the second slot (lapL(M.T) = lapR(M).T), so each
    Laplacian is evaluated once and reused transposed; lapR is ``lap_rows``
    on transposed views.
    """

    def __init__(self, state: CumulantState, coeffs: RHSCoefficients, factors):
        self.state = state
        self.bnd = state.grid.boundary
        diag_uu, diag_vv, _, self.g1, self.g2, self.h = factors
        self.two_gamma = 2.0 * coeffs.gamma_t
        self.dw, self.d2, self.x = coeffs.delta_omega_t, coeffs.d2, coeffs.chi_t
        self.src = coeffs.thermal_src(state.s)
        self.sx = state.s * self.x
        self.uv_diag = 0.5 * self.sx * (state.cv ** 2 + diag_vv - state.cu ** 2 - diag_uu)

    def mirror_block(self, sign: int, out, tmp, acc) -> None:
        """The uu (sign +1) or vv (sign -1) block: source + decay, phase
        rotation, dispersion, Kerr.

        The vv block is the uu block under u <-> v: the thermal source and
        the decay keep their sign and every other term flips, the stencil
        moves from the v slot (second index) to the u slot (first index)
        of <<u v'>> and the Kerr factor from g1[k] to g2[j].
        """
        st, x = self.state, self.x
        if sign > 0:  # lapR(cuv) is the row stencil on transposed views
            cxx, kerr, view = st.cuu, self.g1[None, :], np.transpose
        else:
            cxx, kerr, view = st.cvv, self.g2[:, None], np.asarray
        rotate = np.add if sign > 0 else np.subtract
        rot = np.add(st.cuv, st.cuv.T, out=acc)
        rot *= self.dw
        # source +- rotation on the diagonal, 0 +- rotation off it: one pass
        rotate(0.0, rot, out=out)
        np.fill_diagonal(out, rotate(self.src + (sign * self.sx) * self.h, np.diagonal(rot)))
        out -= np.multiply(cxx, self.two_gamma, out=tmp)
        lap_rows(view(st.cuv), self.bnd, view(tmp), view(acc))
        np.add(tmp, tmp.T, out=acc)
        acc *= -sign * self.d2
        out += acc
        np.multiply(st.cuv, kerr, out=tmp)
        np.add(tmp, tmp.T, out=acc)
        acc *= sign * x
        out += acc
        np.add(self.h[:, None], self.h[None, :], out=tmp)
        tmp *= cxx
        tmp *= sign * 2.0 * x
        out += tmp

    def uv_rows(self, lo: int, hi: int, duv, tmp, acc) -> None:
        """Rows [lo, hi) of the uv block, writing only those rows of ``duv``,
        ``tmp`` and ``acc``; the rows of ``duv`` hold the periodic neighbour
        sum of lapL(cvv) until the dispersion term is formed."""
        st, x = self.state, self.x
        rows = slice(lo, hi)
        cuu, cuv, cvv = st.cuu[rows], st.cuv[rows], st.cvv[rows]
        t, a = tmp[rows], acc[rows]
        lap_rows(cuu.T, self.bnd, t.T, a.T)  # lapR(cuu)
        t -= lap_rows(st.cvv, self.bnd, acc, duv, lo, hi)[rows]
        t *= self.d2
        duv = duv[rows]
        duv.fill(0.0)
        np.fill_diagonal(duv[:, rows], self.uv_diag[rows])
        np.subtract(cvv, cuu, out=a)
        a *= self.dw
        duv += a
        duv -= np.multiply(cuv, self.two_gamma, out=a)
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
    """Max relative asymmetry of the uu/vv derivatives as assembled term by
    term; 0 when cuu and cvv are exactly symmetric."""
    m = state.grid.m
    mat, tmp, acc = np.empty((3, m, m))
    parts = _SecondOrder(state, coeffs, _local_factors(state))
    out = 0.0
    for sign in (1, -1):
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
    result is the same either way, and the halves share no buffer.  The
    uu/vv blocks are assembled straight into ``out``, with no symmetrizing
    pass, and come out exactly symmetric when cuu and cvv are.
    The constructors and ``reorder_s`` build them exactly symmetric and RK
    steps keep them so, except at some odd m (seen from m = 193 up), where
    the BLAS stage sums round a few elements differently by their position
    in the vector and leave 1-ulp asymmetries that the derivative then
    carries; ``second_order_asymmetry`` measures them.
    """
    m = state.grid.m
    if out is None:
        out = np.empty(2 * m + 3 * m * m)
    if scratch is None:
        scratch = rhs_scratch(m)
    deriv = CumulantDerivative(*split_flat(out, m))
    factors = _local_factors(state)
    deriv.cu[...], deriv.cv[...] = _first_order(state, coeffs, factors)
    parts = _SecondOrder(state, coeffs, factors)

    def half(sign, block, lo, hi, tmp, acc):
        parts.mirror_block(sign, block, tmp, acc)
        parts.uv_rows(lo, hi, deriv.cuv, tmp, acc)

    cut = m // 2
    run_pair(lambda: half(1, deriv.cuu, 0, cut, *scratch[:2]),
             lambda: half(-1, deriv.cvv, cut, m, *scratch[2:]))
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


def propagate(state: CumulantState, coeffs: RHSCoefficients, output_times,
              tableau: Tableau = DORMAND_PRINCE_853,
              control: StepControl = StepControl()):
    """Integrate the cumulant system from state.t to the last of
    ``output_times`` (scaled time, none before state.t).

    Returns (states, stats): a copy of the state at each output time, in
    ascending order, and the integrator step statistics.
    """
    scratch = rhs_scratch(state.grid.m)

    def fun(t, y, out):
        rhs(state.with_flat(y, t), coeffs, out=out, scratch=scratch)

    states: list[CumulantState] = []
    stats = integrate(
        fun, state.flatten(), state.t, output_times,
        lambda t, y: states.append(state.with_flat(np.array(y, copy=True), t)),
        tableau=tableau, control=control,
    )
    return states, stats
