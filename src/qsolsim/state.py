"""Gaussian cumulant state of the discretized pulse field.

The quantum state of the pulse is represented by the first- and second-order
cumulants of an s-parametrized phase-space distribution over the quadrature
variables (u_j, v_j) of every grid cell:

* ``cu``, ``cv``          -- mean quadratures, length-m vectors,
* ``cuu``, ``cvv``        -- symmetric m x m covariance blocks <<u_j u_k>>, <<v_j v_k>>,
* ``cuv``                 -- m x m cross block <<u_j v_k>> (row = u index, column = v index).

The v-u cross block is never stored; every consumer uses ``cuv.T`` instead.
Only the equal-variable second-order cumulants depend on the ordering
parameter s: changing s shifts the diagonals of ``cuu`` and ``cvv`` by
-(s_new - s_old)/4 and leaves everything else untouched (``reorder_s``).

Amplitudes are kept in per-cell photon units (mean fields are O(sqrt(n0)),
second-order blocks O(1)), while time and space are dimensionless (dispersion
time and pulse width units).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from ._checks import finite, non_negative, positive

_BOUNDARIES = ("absorbing", "periodic")

# ``validate`` flags a relative uu/vv asymmetry above the first and an
# uncertainty product more than the second below 1/4
_ASYM_TOL, _HEISENBERG_TOL = 1e-12, 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid in pulse-width units.

    ``boundary`` selects how stencils treat cells outside the grid:
    "absorbing" reads them as zero (Dirichlet), "periodic" wraps around.
    Production runs use m >= 3; single- and two-cell grids are allowed so the
    brute-force density-matrix oracle can reuse the same state types.
    """

    m: int
    dx: float
    boundary: str = "absorbing"

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral) or self.m < 1:
            raise ValueError(f"grid needs a positive integer cell count, got m={self.m!r}")
        positive("dx", self.dx)
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}, got {self.boundary!r}")

    def positions(self) -> np.ndarray:
        """Cell centers x_j = dx * (j - floor(m/2))."""
        return self.dx * (np.arange(self.m) - self.m // 2)


def _ordering(s: float, name: str = "s") -> float:
    """The range rule of the ordering parameter s; ``name`` labels the value."""
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"ordering parameter must lie in [-1, 1], got {name}={s}")
    return s


def split_flat(vec: np.ndarray, m: int):
    """Views (cu, cv, cuu, cuv, cvv) into a flat vector of the integrator layout.

    The layout is the concatenation cu, cv, cuu.ravel(), cuv.ravel(),
    cvv.ravel(): 2m + 3m^2 entries.  Writing to a view writes to ``vec``.
    """
    cu = vec[:m]
    cv = vec[m:2 * m]
    cuu = vec[2 * m:2 * m + m * m].reshape(m, m)
    cuv = vec[2 * m + m * m:2 * m + 2 * m * m].reshape(m, m)
    cvv = vec[2 * m + 2 * m * m:].reshape(m, m)
    return cu, cv, cuu, cuv, cvv


@dataclass(frozen=True)
class CumulantState:
    """First- and second-order cumulants at ordering s and scaled time t."""

    grid: GridSpec
    s: float
    t: float
    cu: np.ndarray
    cv: np.ndarray
    cuu: np.ndarray
    cuv: np.ndarray
    cvv: np.ndarray

    def __post_init__(self):
        m = self.grid.m
        _ordering(self.s)
        finite("t", self.t)
        for name, shape in (("cu", (m,)), ("cv", (m,)),
                            ("cuu", (m, m)), ("cuv", (m, m)), ("cvv", (m, m))):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)

    # -- flattened layout used by the ODE integrator ------------------------

    def flatten(self) -> np.ndarray:
        return np.concatenate([
            self.cu, self.cv, self.cuu.ravel(), self.cuv.ravel(), self.cvv.ravel(),
        ])

    def with_flat(self, vec: np.ndarray, t: float) -> "CumulantState":
        """Rebuild a state of this shape from the integrator's flat vector."""
        return CumulantState(self.grid, self.s, t, *split_flat(vec, self.grid.m))


@dataclass(frozen=True)
class CumulantDerivative:
    """Time derivative of every cumulant block (same shapes as the state)."""

    cu: np.ndarray
    cv: np.ndarray
    cuu: np.ndarray
    cuv: np.ndarray
    cvv: np.ndarray

    flatten = CumulantState.flatten  # the integrator layout of the state


def thermal_state(grid: GridSpec, n_th: float, s: float) -> CumulantState:
    """Uncorrelated thermal fluctuations: the steady state of the damped field.

    Zero means, cuu = cvv = [n_th + (1-s)/2] / 2 on the diagonal, cuv = 0.
    """
    m = grid.m
    diag = 0.5 * (non_negative("n_th", n_th) + 0.5 * (1.0 - _ordering(s)))
    return CumulantState(
        grid, s, 0.0,
        np.zeros(m), np.zeros(m),
        diag * np.eye(m), np.zeros((m, m)), diag * np.eye(m),
    )


def fundamental_soliton(grid: GridSpec, n0: float, n_th: float, s: float) -> CumulantState:
    """Classical fundamental soliton mean field on top of thermal noise.

    cu_j = sqrt(n0) * sech(x_j), cv = 0; second-order blocks as thermal_state.
    """
    base = thermal_state(grid, n_th, s)
    cu = math.sqrt(positive("n0", n0)) / np.cosh(grid.positions())
    return replace(base, cu=cu)


def reorder_s(state: CumulantState, s_new: float) -> CumulantState:
    """Re-express the state at a different ordering parameter.

    Only the diagonals of cuu and cvv move: they pick up -(s_new - s)/4.
    """
    shift = 0.25 * (_ordering(s_new, "s_new") - state.s)
    eye = np.eye(state.grid.m)
    return CumulantState(
        state.grid, s_new, state.t,
        state.cu.copy(), state.cv.copy(),
        state.cuu - shift * eye, state.cuv.copy(), state.cvv - shift * eye,
    )


def _local_noise(state: CumulantState):
    """(Duu, Dvv, Duv, B, b, B + s/4, b + s/4) per cell: the same-cell
    cumulants, the major and minor variances of the noise ellipse they span,
    and those variances in their ordering-independent combination."""
    duu = np.diag(state.cuu)
    dvv = np.diag(state.cvv)
    duv = np.diag(state.cuv)
    half = 0.5 * (duu + dvv)
    radius = 0.5 * np.sqrt((duu - dvv) ** 2 + 4.0 * duv ** 2)
    big, small = half + radius, half - radius
    return duu, dvv, duv, big, small, big + 0.25 * state.s, small + 0.25 * state.s


@dataclass(frozen=True)
class ValidationReport:
    """Report-only health check of a cumulant state."""

    finite: bool
    cuu_asymmetry: float
    cvv_asymmetry: float
    min_major_axis: float        # min over cells of B + s/4
    min_minor_axis: float        # min over cells of b + s/4
    min_uncertainty_product: float   # min over cells of sqrt((B+s/4)(b+s/4))
    heisenberg_margin: float     # min_uncertainty_product - 1/4
    issues: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.issues


def validate(state: CumulantState) -> ValidationReport:
    """Check symmetry, finiteness and the per-cell uncertainty bound.

    The bound sqrt((B + s/4)(b + s/4)) >= 1/4 holds for every physical state,
    where B, b are the principal variances of the local noise ellipse; the
    combinations B + s/4, b + s/4 are ordering-independent.
    """
    issues = []
    all_finite = all(
        np.all(np.isfinite(arr))
        for arr in (state.cu, state.cv, state.cuu, state.cuv, state.cvv)
    )
    if not all_finite:
        issues.append("non-finite entries")

    def rel_asym(mat):
        scale = max(np.max(np.abs(mat)), 1.0)
        return float(np.max(np.abs(mat - mat.T)) / scale)

    asym_uu = rel_asym(state.cuu)
    asym_vv = rel_asym(state.cvv)
    if asym_uu > _ASYM_TOL:
        issues.append(f"cuu asymmetry {asym_uu:.3e}")
    if asym_vv > _ASYM_TOL:
        issues.append(f"cvv asymmetry {asym_vv:.3e}")

    *_, big, small = _local_noise(state)  # B + s/4, b + s/4
    min_big = float(np.min(big)) if all_finite else math.nan
    min_small = float(np.min(small)) if all_finite else math.nan
    if all_finite and (min_big <= 0 or min_small <= 0):
        issues.append("non-positive noise ellipse axis (unphysical state)")
        product = -math.inf
    elif all_finite:
        product = float(np.min(np.sqrt(big * small)))
        if product < 0.25 - _HEISENBERG_TOL:
            issues.append(f"uncertainty product {product:.6f} below 1/4")
    else:
        product = math.nan

    return ValidationReport(
        finite=all_finite,
        cuu_asymmetry=asym_uu,
        cvv_asymmetry=asym_vv,
        min_major_axis=min_big,
        min_minor_axis=min_small,
        min_uncertainty_product=product,
        heisenberg_margin=product - 0.25,
        issues=tuple(issues),
    )
