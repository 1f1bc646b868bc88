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
from dataclasses import dataclass

import numpy as np

from ._checks import finite, positive
from ._pair import run_pair
from .tableaus import DORMAND_PRINCE_853, Tableau

__all__ = [
    "StepControl",
    "StepStats",
    "IntegrationError",
    "StepSizeUnderflow",
    "NonFiniteStateError",
    "integrate",
    "integrate_fixed",
]


class IntegrationError(RuntimeError):
    """Base class for integration failures; carries the last good time."""

    def __init__(self, message: str, t: float):
        super().__init__(message, t)  # both in ``args``, so the error survives pickling
        self.t = t

    def __str__(self) -> str:
        return f"{self.args[0]} (at t = {self.t!r})"


class StepSizeUnderflow(IntegrationError):
    pass


class NonFiniteStateError(IntegrationError):
    pass


# step-size controller: safety factor, per-step change clamps, consecutive-rejection limit
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
MAX_REJECTS = 50


@dataclass(frozen=True)
class StepControl:
    """Absolute and relative tolerances of the adaptive step-size controller."""

    atol: float = 1e-9
    rtol: float = 1e-9

    def __post_init__(self):
        positive("atol", self.atol)
        positive("rtol", self.rtol)


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
    acceptance.  ``scale`` and ``y_new_finite`` are the error scale and the
    finiteness of the last ``y_new`` that ``step`` formed.
    """

    def __init__(self, y: np.ndarray, tab: Tableau):
        self.k = np.empty((tab.n_stages + 1, y.size), dtype=y.dtype)
        self.vec = np.empty_like(y)
        self.y_new = np.empty_like(y)
        self.scale = np.empty(y.shape, dtype=y.real.dtype)
        self.y_new_finite = True

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


def _combine(k: np.ndarray, w: np.ndarray, out: np.ndarray, then=None) -> np.ndarray:
    """out = k.T @ w, one gemv per range, the two ranges as a pair (one range
    when the aligned cut is 0); ``then(lo, hi)`` finishes each range on the
    same thread right after its gemv.

    With one row, matmul bypasses BLAS and evaluates 0 + k[0] * w[0], about
    ten times slower than the two vector passes that give the same bits.
    """
    def part(lo, hi):
        if len(w) == 1:
            np.multiply(k[0, lo:hi], w[0], out=out[lo:hi])
            out[lo:hi] += 0.0  # the sign of zero of the sum starting at 0
        else:
            np.matmul(k[:, lo:hi].T, w, out=out[lo:hi])
        if then is not None:
            then(lo, hi)

    n = out.size
    cut = (n // 2) // _ALIGN * _ALIGN
    if cut == 0:
        part(0, n)
    else:
        run_pair(lambda: part(0, cut), lambda: part(cut, n))
    return out


def _stages(fun, t, y, h, tab: Tableau, buf: _Buffers, control: StepControl):
    """Evaluate stages 1..n_stages into buf.k and y + h*sum(b k) into buf.y_new.

    buf.k[0] must hold fun(t, y).  Every stage combination is a matrix-vector
    product (``_combine``) scaled by h and then added to y, in that order.
    Each range of the pass that forms y_new goes on to write
    atol + rtol * max(|y|, |y_new|) into buf.scale (buf.vec, which ``fun`` has
    read, holds |y_new|) and whether y_new is finite into buf.y_new_finite.
    """
    ns = tab.n_stages
    k, dy, y_new = buf.k, buf.vec, buf.y_new

    def advance(out):
        def then(lo, hi):
            out[lo:hi] *= h
            out[lo:hi] += y[lo:hi]
        return then

    def finish(lo, hi):  # y_new, then its error scale and finiteness
        advance(y_new)(lo, hi)
        sc = np.abs(y[lo:hi], out=buf.scale[lo:hi])
        np.maximum(sc, np.abs(y_new[lo:hi], out=dy.real[lo:hi]), out=sc)
        sc *= control.rtol
        sc += control.atol
        if not np.isfinite(y_new[lo:hi]).all():
            buf.y_new_finite = False

    for i in range(1, ns):
        _combine(k[:i], tab.a[i, :i], dy, advance(dy))
        fun(t + tab.c[i] * h, dy, k[i])
    buf.y_new_finite = True
    _combine(k[:ns], tab.b, y_new, finish)
    fun(t + h, y_new, k[ns])


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


def step(fun, t: float, y: np.ndarray, h: float, tableau: Tableau, control: StepControl,
         buffers: _Buffers, stats: StepStats, rejected_before: bool) -> tuple[bool, float]:
    """Attempt one step of ``integrate`` of size h; returns (accepted, h_next).

    ``buffers`` hold the derivative at (t, y) in stage row 0; the attempt
    leaves y + h*sum(b k) in ``buffers.y_new``, whether it is finite in
    ``buffers.y_new_finite``, and y untouched.  An attempt whose error
    estimate exceeds tolerance is rejected with a reduced ``h_next`` for
    ``integrate`` to retry; after a rejection the step does not grow.
    """
    _stages(fun, t, y, h, tableau, buffers, control)
    stats.n_rhs += tableau.n_stages
    err = _error_norm(h, tableau, buffers)
    accepted = err < 1.0  # False for NaN
    if err == 0.0:
        factor = MAX_FACTOR
    elif math.isfinite(err):
        exponent = -1.0 / (tableau.error_order + 1)
        factor = min(MAX_FACTOR, max(MIN_FACTOR, SAFETY * err ** exponent))
    else:  # overflow in a trial stage: back off hard
        factor = MIN_FACTOR
    if accepted and rejected_before:
        factor = min(1.0, factor)
    stats.record(h, accepted)
    return accepted, h * factor


def _initial_step(fun, t0, y0, f0, span, tab, control, stats) -> float:
    """Hairer-style starting step from the local derivative magnitudes, capped
    at the span to be integrated."""
    scale = control.atol + control.rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    if not h0 > 0.0:  # 0 or NaN: d1 overflowed; integrate falls back to a tiny step
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


def _work_copy(y0) -> np.ndarray:
    """A finite copy of y0, widened to float64 or complex128 at least."""
    y0 = np.asarray(y0)
    return finite("y0", y0.astype(np.result_type(y0.dtype, np.float64)))


def integrate(fun, y0: np.ndarray, t0: float, output_times, observer,
              tableau: Tableau = DORMAND_PRINCE_853,
              control: StepControl = StepControl()) -> StepStats:
    """Advance y' = f(t, y) from t0 to exactly the last of ``output_times``;
    returns the step statistics.

    ``fun(t, y, out)`` writes f(t, y) into ``out``, one row of the stage
    array that the integration allocates once; it must not keep ``y`` or
    ``out``.  ``output_times`` (none before t0) are hit exactly by clipping
    the step; at each one, in ascending order, ``observer(t, y)`` is called.
    ``y`` is a work array that later steps overwrite, so an observer that
    keeps it must copy it.  The step size resumes its adaptive suggestion
    after a clipped step.

    Each attempted step is one call of this module's ``step``, looked up at
    call time, so a wrapper installed on the module sees every attempt.
    """
    y = _work_copy(y0)
    if y.ndim != 1:
        raise ValueError("state must be a flat vector")
    pending = sorted(finite("output_times", [float(t) for t in output_times]))
    if not pending or pending[0] < finite("t0", t0):
        raise ValueError(f"output_times must be a non-empty list of times >= t0 = {t0}")
    stats = StepStats()
    t = t0
    buffers = _Buffers(y, tableau)
    fun(t, y, buffers.k[0])
    stats.n_rhs += 1
    with np.errstate(all="ignore"):
        h = _initial_step(fun, t, y, buffers.k[0], pending[-1] - t0, tableau, control, stats)
    if not math.isfinite(h) or h <= 0:  # pathological scales; let control sort it out
        h = min(pending[-1] - t0, 1e-6)

    rejected = False
    rejects_in_row = 0
    while pending:
        if t == pending[0]:
            observer(t, y)
            pending.pop(0)
            continue
        h_floor = 16.0 * abs(math.ulp(t))
        if h < h_floor:
            raise StepSizeUnderflow(
                f"step size {h:.3e} fell below the floor {h_floor:.3e}", t)
        clipped = t + h >= pending[0]
        h_try = pending[0] - t if clipped else h
        accepted, h_next = step(fun, t, y, h_try, tableau, control, buffers, stats, rejected)
        if accepted:
            t = pending[0] if clipped else t + h_try
            y = buffers.accept(y)
            if not buffers.y_new_finite:
                raise NonFiniteStateError("state became non-finite", t)
            # resume the adaptive suggestion rather than the clipped size
            h = max(h, h_next) if clipped else h_next
            rejected = False
            rejects_in_row = 0
        else:
            h = h_next
            rejected = True
            rejects_in_row += 1
            if rejects_in_row > MAX_REJECTS:
                raise IntegrationError(
                    f"more than {MAX_REJECTS} consecutive step rejections", t)
    return stats


def integrate_fixed(fun, y0: np.ndarray, t0: float, t_end: float, n_steps: int,
                    tableau: Tableau = DORMAND_PRINCE_853) -> np.ndarray:
    """Fixed-step solve (no error control); used for convergence studies."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    y = _work_copy(y0)
    h = (finite("t_end", t_end) - finite("t0", t0)) / n_steps
    t = t0
    buffers = _Buffers(y, tableau)
    control = StepControl()  # shapes the error scale _stages forms; unread here
    fun(t, y, buffers.k[0])
    for _ in range(n_steps):
        _stages(fun, t, y, h, tableau, buffers, control)
        y = buffers.accept(y)
        t += h
    return y
