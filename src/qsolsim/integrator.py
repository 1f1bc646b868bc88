"""Adaptive embedded Runge-Kutta integration for flat ODE systems.

Works on 1-D real or complex state vectors.  Step acceptance uses the mixed
absolute/relative error norm

    scale_i = atol + rtol * max(|y_i|, |y_new_i|),
    norm    = rms(err_i / scale_i),

with the damped two-estimate variant when the tableau carries a secondary
low-order weight vector.  The step-size controller is the standard
integral controller with safety factor and growth clamps; after a rejection
the step is never allowed to grow.  Integration is deterministic: identical
inputs produce bit-identical trajectories, on one CPU or two, since the
vector work of a step is cut into the same two ranges either way.

Every numerical failure of ``integrate`` is an ``IntegrationError`` carrying
the last good time; overflowing error estimates only steer the step size.

The integrator is non-stiff by design; the simulator's operating envelope
(damping below ~0.15 per unit time, stencil eigenvalues bounded by the cell
width) keeps the cumulant system well inside the stability region of the
default order-8 pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._pair import run_pair
from .tableaus import DORMAND_PRINCE_853, Tableau

__all__ = [
    "StepControl",
    "StepResult",
    "StepStats",
    "IntegrationResult",
    "IntegrationError",
    "StepSizeUnderflow",
    "NonFiniteStateError",
    "step",
    "integrate",
    "integrate_fixed",
]


class IntegrationError(RuntimeError):
    """Base class for integration failures; carries the last good time."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (at t = {t!r})")
        self.t = t


class StepSizeUnderflow(IntegrationError):
    pass


class NonFiniteStateError(IntegrationError):
    pass


# step-size controller: safety factor and the clamps on the per-step change
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0


@dataclass(frozen=True)
class StepControl:
    """Tolerances and rejection limit of the adaptive step-size controller."""

    atol: float = 1e-9
    rtol: float = 1e-9
    max_rejects: int = 50

    def __post_init__(self):
        if not (0 < self.atol < math.inf and 0 < self.rtol < math.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass
class StepStats:
    n_rhs: int = 0
    n_accepted: int = 0
    n_rejected: int = 0
    h_smallest: float = math.inf
    h_largest: float = 0.0

    def record(self, h: float, accepted: bool):
        if accepted:
            self.n_accepted += 1
            self.h_smallest = min(self.h_smallest, h)
            self.h_largest = max(self.h_largest, h)
        else:
            self.n_rejected += 1

    def as_dict(self) -> dict:
        return {
            "rhs_evaluations": self.n_rhs,
            "accepted_steps": self.n_accepted,
            "rejected_steps": self.n_rejected,
            "smallest_step": None if math.isinf(self.h_smallest) else self.h_smallest,
            "largest_step": self.h_largest or None,
        }


@dataclass(frozen=True)
class StepResult:
    t_new: float
    y_new: np.ndarray
    error_norm: float
    accepted: bool
    h_next: float


def _rms(x: np.ndarray) -> float:
    if x.size == 0:
        return 0.0
    return float(np.sqrt(np.real(np.vdot(x, x)) / x.size))


class _Buffers:
    """Work arrays of one integration, allocated once and reused by every step.

    ``k[0]`` holds the derivative at the current y: a rejected step rewrites
    only rows 1..n_stages, and ``accept`` moves the last stage (the
    derivative at the new y) into row 0.  ``vec`` holds each stage argument
    and then the error vector; ``y_new`` and the caller's y swap roles on
    acceptance.
    """

    def __init__(self, y: np.ndarray, tab: Tableau):
        self.k = np.empty((tab.n_stages + 1, y.size), dtype=y.dtype)
        self.vec = np.empty_like(y)
        self.y_new = np.empty_like(y)
        self.scale = np.empty(y.shape, dtype=y.real.dtype)

    def accept(self, y: np.ndarray) -> np.ndarray:
        """Make the step just taken the starting point; returns the new y."""
        self.k[0] = self.k[-1]
        y_new, self.y_new = self.y_new, y
        return y_new


# Vector work of a step runs as two fixed ranges [0, cut) and [cut, N) on
# the pair worker.  The cut is a multiple of 64 elements so that each gemv
# range starts on a block boundary of the BLAS kernel and every element is
# accumulated as by one call over the whole vector; an unaligned cut changes
# a few elements, which test_combine_matches_one_gemv_bitwise detects.
_ALIGN = 64


def _split(n: int, part) -> None:
    """Run ``part(lo, hi)`` over [0, cut) and [cut, n) as a pair, or once
    over [0, n) when the aligned cut is 0."""
    cut = (n // 2) // _ALIGN * _ALIGN
    if cut == 0:
        part(0, n)
    else:
        run_pair(lambda: part(0, cut), lambda: part(cut, n))


def _combine(k: np.ndarray, w: np.ndarray, out: np.ndarray, then=None) -> np.ndarray:
    """out = k.T @ w, one gemv per range of ``_split``; ``then(lo, hi)``
    finishes each range on the same thread right after its gemv."""
    def part(lo, hi):
        np.matmul(k[:, lo:hi].T, w, out=out[lo:hi])
        if then is not None:
            then(lo, hi)

    _split(out.size, part)
    return out


def _stages(fun, t, y, h, tab: Tableau, buf: _Buffers) -> np.ndarray:
    """Evaluate stages 1..n_stages into buf.k and y + h*sum(b k) into buf.y_new.

    buf.k[0] must hold fun(t, y).  Every stage combination is a matrix-vector
    product (``_combine``) scaled by h and then added to y, in that order.
    """
    ns = tab.n_stages
    k, dy, y_new = buf.k, buf.vec, buf.y_new

    def advance(out):
        def then(lo, hi):
            out[lo:hi] *= h
            out[lo:hi] += y[lo:hi]
        return then

    for i in range(1, ns):
        _combine(k[:i], tab.a[i, :i], dy, advance(dy))
        fun(t + tab.c[i] * h, dy, k[i])
    _combine(k[:ns], tab.b, y_new, advance(y_new))
    fun(t + h, y_new, k[ns])
    return y_new


def _error_norm(h, tab: Tableau, buf: _Buffers) -> float:
    err, k, scale = buf.vec, buf.k, buf.scale

    def divide(lo, hi):
        err[lo:hi] /= scale[lo:hi]

    _combine(k, tab.error_weights, err, divide)
    if tab.error_weights_low is None:
        return abs(h) * _rms(err)
    e2 = float(np.real(np.vdot(err, err)))
    if e2 == 0.0:  # whatever e2_low is; 0.01 * e2_low may underflow to 0
        return 0.0
    _combine(k, tab.error_weights_low, err, divide)
    e2_low = float(np.real(np.vdot(err, err)))
    return abs(h) * e2 / math.sqrt((e2 + 0.01 * e2_low) * err.size)


def _all_finite(y: np.ndarray) -> bool:
    finite = {}

    def check(lo, hi):
        finite[lo] = bool(np.isfinite(y[lo:hi]).all())

    _split(y.size, check)
    return all(finite.values())


def step(fun, t: float, y: np.ndarray, h: float, tableau: Tableau,
         control: StepControl, buffers: _Buffers | None = None,
         rejected_before: bool = False, stats: StepStats | None = None) -> StepResult:
    """Attempt a single step of size h; propose the next step size.

    ``fun(t, y, out)`` writes the derivative at (t, y) into ``out``.
    ``buffers`` are the work arrays of an ongoing ``integrate``, with the
    derivative at (t, y) in stage row 0; without them they are allocated and
    the derivative is evaluated.  An accepted ``y_new`` is a work array that
    the next step of the same integration overwrites.

    Never returns an accepted state whose error estimate exceeds tolerance:
    a failed attempt comes back with ``accepted=False`` and a reduced
    ``h_next`` for the caller to retry.
    """
    if not h > 0:
        raise ValueError("step size must be positive")
    if buffers is None:
        buffers = _Buffers(y, tableau)
        fun(t, y, buffers.k[0])
        if stats is not None:
            stats.n_rhs += 1
    y_new = _stages(fun, t, y, h, tableau, buffers)
    if stats is not None:
        stats.n_rhs += tableau.n_stages
    scale, vec = buffers.scale, buffers.vec

    def error_scale(lo, hi):  # atol + rtol * max(|y|, |y_new|)
        sc = np.abs(y[lo:hi], out=scale[lo:hi])
        np.maximum(sc, np.abs(y_new[lo:hi], out=vec.real[lo:hi]), out=sc)
        sc *= control.rtol
        sc += control.atol

    _split(y.size, error_scale)
    err = _error_norm(h, tableau, buffers)
    exponent = -1.0 / (tableau.error_order + 1)

    if math.isfinite(err) and err < 1.0:
        if err == 0.0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, SAFETY * err ** exponent)
        if rejected_before:
            factor = min(1.0, factor)
        result = StepResult(t + h, y_new, err, True, h * factor)
    else:
        if math.isfinite(err):
            factor = max(MIN_FACTOR, SAFETY * err ** exponent)
        else:  # overflow in a trial stage: back off hard
            factor = MIN_FACTOR
        result = StepResult(t, y, err, False, h * factor)
    if stats is not None:
        stats.record(h, result.accepted)
    return result


def _initial_step(fun, t0, y0, f0, t_end, tab, control, stats) -> float:
    """Hairer-style starting step from the local derivative magnitudes."""
    span = t_end - t0
    scale = control.atol + control.rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    if h0 == 0.0:  # d1 overflowed; integrate falls back to a tiny first step
        return h0
    y1 = y0 + h0 * f0
    f1 = np.empty_like(f0)
    fun(t0 + h0, y1, f1)
    stats.n_rhs += 1
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (tab.error_order + 1))
    return min(100 * h0, h1, span)


@dataclass
class IntegrationResult:
    t: float
    y: np.ndarray
    stats: StepStats = field(default_factory=StepStats)


def integrate(fun, y0: np.ndarray, t0: float, t_end: float,
              tableau: Tableau = DORMAND_PRINCE_853,
              control: StepControl = StepControl(),
              output_times=(), observer=None) -> IntegrationResult:
    """Advance y' = f(t, y) from t0 to exactly t_end.

    ``fun(t, y, out)`` writes f(t, y) into ``out``, one row of the stage
    array that the integration allocates once; it must not keep ``y`` or
    ``out``.  ``output_times`` are hit exactly by clipping the step; at each
    one the ``observer`` callback (if any) receives (t, y).  ``y`` is a work
    array that later steps overwrite, so an observer that keeps it must copy
    it.  The step size resumes its adaptive suggestion after a clipped step.
    """
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError("t0 and t_end must be finite")
    if t_end < t0:
        raise ValueError("t_end must not precede t0")
    y = np.array(y0, dtype=None, copy=True)
    if y.ndim != 1:
        raise ValueError("state must be a flat vector")
    stats = StepStats()
    pending = sorted(float(t) for t in output_times)
    for t in pending:
        if not t0 - 1e-15 <= t <= t_end + 1e-15:
            raise ValueError(f"output time {t} outside [{t0}, {t_end}]")

    t = t0
    while pending and pending[0] <= t0:
        if observer is not None:
            observer(t0, y)
        pending.pop(0)
    if t_end == t0:
        return IntegrationResult(t, y, stats)

    buffers = _Buffers(y, tableau)
    fun(t, y, buffers.k[0])
    stats.n_rhs += 1
    with np.errstate(all="ignore"):
        h = _initial_step(fun, t, y, buffers.k[0], t_end, tableau, control, stats)
    if not math.isfinite(h) or h <= 0:  # pathological scales; let control sort it out
        h = min(t_end - t0, 1e-6)

    rejected = False
    rejects_in_row = 0
    while t < t_end:
        h_floor = 16.0 * abs(math.ulp(t))
        if h < h_floor:
            raise StepSizeUnderflow(
                f"step size {h:.3e} fell below the floor {h_floor:.3e}", t)
        stop = pending[0] if pending else t_end
        clipped = t + h >= stop
        h_try = stop - t if clipped else h
        res = step(fun, t, y, h_try, tableau, control, buffers,
                   rejected_before=rejected, stats=stats)
        if res.accepted:
            t = stop if clipped else res.t_new
            y = buffers.accept(y)
            if not _all_finite(y):
                raise NonFiniteStateError("state became non-finite", t)
            # resume the adaptive suggestion rather than the clipped size
            h = res.h_next if not clipped else max(h, res.h_next)
            rejected = False
            rejects_in_row = 0
            while pending and t >= pending[0]:
                if observer is not None:
                    observer(t, y)
                pending.pop(0)
        else:
            h = res.h_next
            rejected = True
            rejects_in_row += 1
            if rejects_in_row > control.max_rejects:
                raise IntegrationError(
                    f"more than {control.max_rejects} consecutive step rejections", t)

    return IntegrationResult(t, y, stats)


def integrate_fixed(fun, y0: np.ndarray, t0: float, t_end: float, n_steps: int,
                    tableau: Tableau = DORMAND_PRINCE_853) -> np.ndarray:
    """Fixed-step solve (no error control); used for convergence studies."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    y = np.array(y0, copy=True)
    h = (t_end - t0) / n_steps
    t = t0
    buffers = _Buffers(y, tableau)
    fun(t, y, buffers.k[0])
    for _ in range(n_steps):
        _stages(fun, t, y, h, tableau, buffers)
        y = buffers.accept(y)
        t += h
    return y
