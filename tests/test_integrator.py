import math
import pickle

import numpy as np
import pytest

from qsolsim import _pair, dynamics, integrator
from qsolsim.dynamics import RHSCoefficients, propagate
from qsolsim.integrator import (
    IntegrationError,
    NonFiniteStateError,
    _Buffers,
    _combine,
    _error_norm,
    StepControl,
    StepSizeUnderflow,
    StepStats,
    integrate,
    integrate_fixed,
    step,
)
from qsolsim.state import GridSpec, fundamental_soliton, thermal_state
from qsolsim.tableaus import DORMAND_PRINCE_54, DORMAND_PRINCE_853, Tableau


class TestTableaus:
    @pytest.mark.parametrize("tab", [DORMAND_PRINCE_54, DORMAND_PRINCE_853])
    def test_consistency_conditions(self, tab):
        assert np.all(np.triu(tab.a) == 0.0)
        assert tab.b.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(tab.a.sum(axis=1), tab.c, atol=1e-13)
        assert abs(tab.error_weights.sum()) < 1e-12
        assert tab.error_weights.shape == (tab.n_stages + 1,)

    @pytest.mark.parametrize("change, match", [
        (dict(a=[[0.5, 0.0], [1.0, 0.0]], c=[0.5, 1.0]), "explicit"),
        (dict(a=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), "square"),
        (dict(b=[0.5, 0.6]), "sum to 1"),
        (dict(c=[0.0, 0.9]), "row sums"),
        (dict(error_weights=[0.5, -0.5]), "error weights must cover"),
        (dict(error_weights_low=[0.5, -0.5]), "low-order error weights"),
    ])
    def test_rejects_implicit_tableau(self, change, match):
        # Heun-Euler with one part changed
        heun = dict(name="bad", error_order=1, a=[[0.0, 0.0], [1.0, 0.0]], b=[0.5, 0.5],
                    c=[0.0, 1.0], error_weights=[0.5, -0.5, 0.0],
                    error_weights_low=[0.5, -0.5, 0.0])
        with pytest.raises(ValueError, match=match):
            Tableau(**(heun | change))


def solve(fun, y0, t0, t_end, **kwargs):
    """Integrate to t_end as the one output time; returns (t, y, stats) there."""
    seen = []
    stats = integrate(fun, y0, t0, [t_end], lambda t, y: seen.append((t, y.copy())), **kwargs)
    [(t, y)] = seen
    return t, y, stats


def ignore(t, y):
    pass


def attempt(fun, y, h, tab, control):
    """One step attempt from (0, y) as integrate makes it."""
    buffers = _Buffers(y, tab)
    fun(0.0, y, buffers.k[0])
    stats = StepStats()
    accepted, h_next = step(fun, 0.0, y, h, tab, control, buffers, stats, False)
    return accepted, h_next, buffers, stats


class TestStep:
    def test_constant_solution_zero_error(self):
        y0 = np.array([1.0, -2.0])
        y = y0.copy()
        accepted, h_next, buffers, stats = attempt(
            lambda t, y, out: out.fill(0.0), y, 0.5, DORMAND_PRINCE_853, StepControl())
        assert accepted and stats.n_accepted == 1
        assert _error_norm(0.5, DORMAND_PRINCE_853, buffers) == 0.0
        assert h_next == 0.5 * integrator.MAX_FACTOR
        assert np.array_equal(buffers.y_new, y0) and np.array_equal(y, y0)

    def test_never_accepts_above_tolerance(self):
        # a deliberately huge step on a stiff-ish problem must be rejected
        y = np.array([1.0])
        accepted, h_next, _, stats = attempt(
            lambda t, y, out: np.multiply(y, -50.0, out=out), y, 2.0,
            DORMAND_PRINCE_54, StepControl(atol=1e-12, rtol=1e-12))
        assert not accepted and stats.n_rejected == 1
        assert h_next < 2.0
        assert np.array_equal(y, [1.0])  # state untouched on rejection

    @pytest.mark.parametrize("tab", [DORMAND_PRINCE_54, DORMAND_PRINCE_853], ids=lambda t: t.name)
    def test_factor_clamps_the_error_ratio(self, tab):
        # an accepted attempt never shrinks the step below SAFETY * h, and a
        # rejected one always shrinks it to between MIN_FACTOR and SAFETY
        control = StepControl(atol=1e-10, rtol=1e-10)
        outcomes = set()
        for h in np.geomspace(1e-3, 5.0, 25):
            y = np.array([1.0, -0.5])
            accepted, h_next, buffers, _ = attempt(
                lambda t, y, out: np.negative(y, out=out), y, h, tab, control)
            err = _error_norm(h, tab, buffers)
            factor = h_next / h
            assert accepted == (err < 1.0)
            assert factor == pytest.approx(min(integrator.MAX_FACTOR, max(
                integrator.MIN_FACTOR, integrator.SAFETY * err ** (-1.0 / (tab.error_order + 1)))))
            if accepted:
                assert integrator.SAFETY < factor <= integrator.MAX_FACTOR
            else:
                assert integrator.MIN_FACTOR <= factor <= integrator.SAFETY
            outcomes.add(accepted)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("tab", [DORMAND_PRINCE_54, DORMAND_PRINCE_853], ids=lambda t: t.name)
    def test_non_finite_stage_rejects_with_min_factor(self, tab):
        # an overflow in a trial stage gives a non-finite error: back off hard
        y = np.array([1.0, 2.0])

        def fun(t, y, out):
            out.fill(math.inf if t > 0.0 else -1.0)

        with np.errstate(all="ignore"):
            accepted, h_next, _, stats = attempt(fun, y, 0.5, tab, StepControl())
        assert not accepted and stats.n_rejected == 1
        assert h_next == 0.5 * integrator.MIN_FACTOR
        assert np.array_equal(y, [1.0, 2.0])

    @pytest.mark.parametrize("tab", [DORMAND_PRINCE_54, DORMAND_PRINCE_853], ids=lambda t: t.name)
    def test_no_growth_right_after_a_rejection(self, tab):
        buffers = _Buffers(np.array([1.0]), tab)
        y = np.array([1.0])
        buffers.k[0].fill(0.0)
        accepted, h_next = step(lambda t, y, out: out.fill(0.0), 0.0, y, 0.5, tab,
                                StepControl(), buffers, StepStats(), True)
        assert accepted and h_next == 0.5

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_error_scale_comes_with_y_new(self, monkeypatch, dtype):
        # the pass that forms y_new writes atol + rtol * max(|y|, |y_new|),
        # on both ranges of the cut
        monkeypatch.setattr(_pair, "_cpu_count", lambda: 2)
        rng = np.random.default_rng(7)
        y = rng.normal(size=1001).astype(dtype)
        if dtype is complex:
            y += 1j * rng.normal(size=y.size)
        control = StepControl(atol=1e-7, rtol=3e-5)
        y0 = y.copy()
        _, _, buffers, _ = attempt(lambda t, y, out: np.multiply(y, -0.7, out=out),
                                   y, 0.3, DORMAND_PRINCE_853, control)
        expected = control.atol + control.rtol * np.maximum(np.abs(y0), np.abs(buffers.y_new))
        assert buffers.scale.tobytes() == expected.tobytes()
        assert buffers.y_new_finite and np.array_equal(y, y0)

    def test_one_call_per_attempt(self, monkeypatch):
        # integrate looks step up on the module at call time, so a wrapper
        # installed there (as the benchmark tracer does) counts every attempt
        calls = []
        real_step = integrator.step

        def counting_step(*args, **kwargs):
            calls.append(args[1])
            return real_step(*args, **kwargs)

        monkeypatch.setattr(integrator, "step", counting_step)

        def fun(t, y, out):
            np.multiply(y, -50.0 * math.cos(20.0 * t), out=out)

        stats = integrate(fun, np.array([1.0]), 0.0, [0.3, 1.0], ignore,
                          control=StepControl(atol=1e-10, rtol=1e-10))
        assert stats.n_rejected > 0
        assert len(calls) == stats.n_accepted + stats.n_rejected
        # f(t0, y0) and the starting-step probe, then the stages of each attempt
        assert stats.n_rhs == 2 + DORMAND_PRINCE_853.n_stages * len(calls)


class TestIntegrate:
    def test_scalar_exponential(self):
        _, y, _ = solve(lambda t, y, out: np.negative(y, out=out), np.array([1.0]), 0.0, 1.0)
        assert y[0] == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_reaches_end_exactly(self):
        t, _, _ = solve(lambda t, y, out: np.multiply(y, np.cos(t), out=out), np.array([1.0]),
                        0.0, 2.7182)
        assert t == 2.7182

    def test_zero_duration(self):
        seen = []
        stats = integrate(lambda t, y, out: np.negative(y, out=out), np.array([3.0]), 0.0,
                          [0.0, 0.0], lambda t, y: seen.append((t, y.copy())))
        assert [(t, y.tolist()) for t, y in seen] == [(0.0, [3.0]), (0.0, [3.0])]
        assert stats.n_accepted == stats.n_rejected == 0

    @pytest.mark.parametrize("times", [[], [-5e-16], [1.0, -1.0]],
                             ids=["empty", "just-before", "unsorted"])
    def test_rejects_no_output_time_or_one_before_the_start(self, times):
        calls = []
        with pytest.raises(ValueError, match=r"output_times must be a non-empty list of times "
                                             r">= t0 = 0\.0"):
            integrate(lambda t, y, out: calls.append(t), np.array([1.0]), 0.0, times, ignore)
        assert calls == []

    @pytest.mark.parametrize("tab", [DORMAND_PRINCE_54, DORMAND_PRINCE_853], ids=lambda t: t.name)
    def test_both_pairs_meet_a_tight_tolerance(self, tab):
        t, y, stats = solve(lambda t, y, out: np.negative(y, out=out), np.array([1.0]), 0.0, 2.0,
                            tableau=tab, control=StepControl(atol=1e-12, rtol=1e-10))
        assert t == 2.0
        assert y[0] == pytest.approx(math.exp(-2.0), rel=1e-8)
        assert stats.n_accepted > 0

    def test_rejects_non_finite_output_time(self):
        with pytest.raises(ValueError, match="output_times must be finite"):
            integrate(lambda t, y, out: np.negative(y, out=out), [1.0], 0.0, [math.nan], ignore)

    def test_rejects_non_finite_tolerance(self):
        with pytest.raises(ValueError, match="finite"):
            StepControl(atol=math.inf)

    def test_output_times_hit_exactly(self):
        seen = []
        integrate(lambda t, y, out: np.negative(y, out=out), np.array([1.0]), 0.0,
                  [0.25, 0.5, 0.75, 1.0], lambda t, y: seen.append((t, y[0])))
        assert [t for t, _ in seen] == [0.25, 0.5, 0.75, 1.0]
        for t, val in seen:
            assert val == pytest.approx(math.exp(-t), rel=1e-9)

    def test_deterministic_trajectories(self):
        def fun(t, y, out):
            out[:] = [y[1], -y[0] * (1 + 0.1 * np.sin(t))]

        seen_a, seen_b = [], []
        integrate(fun, np.array([1.0, 0.0]), 0.0, [5.0, 10.0],
                  lambda t, y: seen_a.append(y.tobytes()))
        integrate(fun, np.array([1.0, 0.0]), 0.0, [5.0, 10.0],
                  lambda t, y: seen_b.append(y.tobytes()))
        assert len(seen_a) == 2 and seen_a == seen_b

    def test_rejected_steps_keep_the_derivative_at_y(self):
        # decay at a rate that swings between -50 and +50, exact solution
        # exp(-2.5 sin(20 t)): the controller keeps overshooting and rejects
        # steps while the solution is O(1), so a retry that started from a
        # rejected trial stage instead of f(t, y) would lose the tolerance.
        # (A plain decay rejects only once y is below atol, where it cannot show.)
        def fun(t, y, out):
            np.multiply(y, -50.0 * math.cos(20.0 * t), out=out)

        times = [0.1, 0.2, 0.3, 0.5, 1.0]
        runs = []
        for _ in range(2):
            seen = []
            stats = integrate(fun, np.array([1.0]), 0.0, times,
                              lambda t, y: seen.append(y[0]),
                              control=StepControl(atol=1e-10, rtol=1e-10))
            runs.append((stats, seen))
        (stats, seen), (_, seen_again) = runs
        assert stats.n_rejected > 0
        for t, val in zip(times, seen, strict=True):
            assert val == pytest.approx(math.exp(-2.5 * math.sin(20.0 * t)), rel=3e-9)
        assert np.array(seen).tobytes() == np.array(seen_again).tobytes()

    def test_tolerance_halving_never_hurts(self):
        # on a linear problem the final error must not grow when both
        # tolerances are halved repeatedly
        def fun(t, y, out):
            out[:] = [-0.3 * y[0] + 2.0 * y[1], -2.0 * y[0] - 0.3 * y[1]]

        y0 = np.array([1.0, 0.5])
        exact = np.exp(-0.3 * 3.0) * np.array([
            y0[0] * math.cos(6.0) + y0[1] * math.sin(6.0),
            -y0[0] * math.sin(6.0) + y0[1] * math.cos(6.0),
        ])
        errs = []
        for k in range(4):
            tol = 1e-6 / 2 ** k
            _, y, _ = solve(fun, y0, 0.0, 3.0, control=StepControl(atol=tol, rtol=tol))
            errs.append(np.max(np.abs(y - exact)))
        assert all(e2 <= e1 * 1.05 + 1e-15 for e1, e2 in zip(errs, errs[1:]))

    def test_underflow_aborts_with_time(self):
        # derivative explodes near t = 0.5; the controller must give up
        def fun(t, y, out):
            np.divide(y, 0.5 - t, out=out)

        with pytest.raises((StepSizeUnderflow, IntegrationError)) as err:
            integrate(fun, np.array([1.0]), 0.0, [1.0], ignore,
                      control=StepControl(atol=1e-10, rtol=1e-10))
        assert err.value.t <= 0.5 + 1e-6

    def test_initial_step_never_evaluates_a_non_finite_point(self):
        # at atol = rtol = 1e-300 both scaled norms of the starting-step
        # estimate overflow, so it is inf / inf = NaN; integrate must fall
        # back to a tiny first step before fun ever sees t0 + NaN
        finite = []

        def fun(t, y, out):
            finite.append(math.isfinite(t) and bool(np.isfinite(y).all()))
            np.negative(y, out=out)

        with pytest.raises(IntegrationError):
            integrate(fun, np.arange(1.0, 5.0), 0.0, [1.0], ignore,
                      control=StepControl(atol=1e-300, rtol=1e-300))
        assert len(finite) > 2 and all(finite)

    def test_consecutive_rejections_abort_with_time(self):
        # the derivative is NaN away from t = 0, so every trial step fails
        # its error test without the state ever advancing
        with pytest.raises(IntegrationError) as err:
            integrate(lambda t, y, out: out.fill(1.0 if t == 0 else math.nan),
                      np.array([1.0]), 0.0, [1.0], ignore)
        assert type(err.value) is IntegrationError
        assert str(err.value) == "more than 50 consecutive step rejections (at t = 0.0)"
        assert err.value.t == 0.0

    @pytest.mark.parametrize("cls", [IntegrationError, StepSizeUnderflow, NonFiniteStateError])
    def test_errors_keep_message_and_time_through_pickle(self, cls):
        # a failure in a forked child reaches the parent pickled
        err = cls("step size underflow", 4.9)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err) == "step size underflow (at t = 4.9)"
        assert back.t == 4.9

    def test_overflowing_derivative_norm_falls_back_to_a_small_first_step(self):
        # atol = 1e-200 makes the weighted derivative norm overflow, so the
        # Hairer first guess h0 = 0.01 d0/d1 is exactly 0
        t, y, stats = solve(lambda t, y, out: out.fill(1.0), np.array([1.0, 0.0]), 0.0, 1.0,
                            control=StepControl(atol=1e-200, rtol=1e-9))
        assert t == 1.0
        assert y == pytest.approx([2.0, 1.0], rel=1e-12)
        assert stats.n_accepted == 9

    def test_zero_error_with_underflowing_low_order_estimate(self):
        # the stage sums cancel exactly (e2 = 0) while 0.01 * e2_low underflows
        # to 0; the run goes on until the state overflows
        with pytest.raises(NonFiniteStateError) as err, np.errstate(over="ignore"):
            integrate(lambda t, y, out: out.fill(1e150), np.array([1.0]), 0.0, [1e200], ignore,
                      control=StepControl(atol=1.0, rtol=1.0))
        assert err.value.t == pytest.approx(1.1e159, rel=0.05)

    def test_complex_state_support(self):
        _, y, _ = solve(lambda t, y, out: np.multiply(y, 1j, out=out), np.array([1.0 + 0.0j]),
                        0.0, math.pi)
        assert y[0] == pytest.approx(-1.0 + 0.0j, abs=1e-9)

    @pytest.mark.parametrize("y0,ref", [
        ([1], [1.0]),
        ([True], [1.0]),
        (np.array([1.0 + 0.5j], dtype=np.complex64), [1.0 + 0.5j]),
    ])
    def test_integer_and_narrow_states_integrate_as_their_wide_values(self, y0, ref):
        # the stage array takes the state's dtype, which must hold f(t, y)
        def decay(t, y, out):
            np.negative(y, out=out)

        (_, y, _), (_, want, _) = solve(decay, y0, 0.0, 1.0), solve(decay, ref, 0.0, 1.0)
        assert y.dtype == want.dtype and y.tobytes() == want.tobytes()
        fixed = integrate_fixed(decay, y0, 0.0, 1.0, 8)
        assert fixed.tobytes() == integrate_fixed(decay, ref, 0.0, 1.0, 8).tobytes()


class TestConvergenceOrder:
    @pytest.mark.parametrize("tab,min_slope", [
        (DORMAND_PRINCE_54, 4.6),
        (DORMAND_PRINCE_853, 7.5),
    ])
    def test_step_halving_slope(self, tab, min_slope):
        # Richardson study on y' = cos(t) y, exact solution exp(sin(t));
        # step ranges keep the finest error above the round-off floor
        def fun(t, y, out):
            np.multiply(y, np.cos(t), out=out)

        t_end = 6.0
        exact = math.exp(math.sin(t_end))
        errors = []
        steps = [4, 8, 16, 32] if tab is DORMAND_PRINCE_853 else [16, 32, 64, 128]
        for n in steps:
            y = integrate_fixed(fun, np.array([1.0]), 0.0, t_end, n, tab)
            errors.append(abs(y[0] - exact))
        slopes = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
        assert max(slopes) >= min_slope
        assert slopes[-1] >= min_slope * 0.95


class TestCumulantSystemIntegration:
    def test_thermal_state_stays_put(self):
        grid = GridSpec(m=24, dx=0.1)
        state = thermal_state(grid, 1e-16, 0.0)
        coeffs = RHSCoefficients(d2=-50.0, chi_t=1e-7, gamma_t=5.8e-3,
                                 delta_omega_t=0.0, n_th=1e-16)
        states, _ = propagate(state, coeffs, [10.0])
        drift = max(
            np.max(np.abs(states[0].cu - state.cu)),
            np.max(np.abs(states[0].cv - state.cv)),
            np.max(np.abs(states[0].cuu - state.cuu)),
            np.max(np.abs(states[0].cuv - state.cuv)),
            np.max(np.abs(states[0].cvv - state.cvv)),
        )
        assert drift < 1e-8

    def test_propagate_calls_the_module_rhs_once_per_evaluation(self, monkeypatch):
        # propagate looks rhs up on the module at call time, so a wrapper
        # installed there (as the benchmark tracer does) sees every evaluation
        calls = []
        real_rhs = dynamics.rhs

        def counting_rhs(*args, **kwargs):
            calls.append(kwargs.get("out") is not None)
            return real_rhs(*args, **kwargs)

        monkeypatch.setattr(dynamics, "rhs", counting_rhs)
        state = fundamental_soliton(GridSpec(m=16, dx=0.3), 4.0, 1e-3, 0.0)
        coeffs = RHSCoefficients(d2=-1.0 / 0.18, chi_t=0.25, gamma_t=0.05,
                                 delta_omega_t=0.0, n_th=1e-3)
        _, stats = propagate(state, coeffs, [0.2])
        assert stats.n_rhs > 0
        assert len(calls) == stats.n_rhs
        assert all(calls)

    def test_linear_single_mode_matches_analytic(self):
        grid = GridSpec(m=1, dx=1.0)
        gamma, dw = 0.3, 1.1
        coeffs = RHSCoefficients(d2=0.0, chi_t=0.0, gamma_t=gamma,
                                 delta_omega_t=dw, n_th=0.0)
        state = thermal_state(grid, 0.0, 1.0)
        state = type(state)(grid, 1.0, 0.0, np.array([2.0]), np.array([-1.0]),
                            state.cuu, state.cuv, state.cvv)
        states, _ = propagate(state, coeffs, [2.0],
                              control=StepControl(atol=1e-12, rtol=1e-12))
        final = states[0].cu[0] + 1j * states[0].cv[0]
        expected = (2.0 - 1.0j) * np.exp(-(gamma + 1j * dw) * 2.0)
        assert abs(final - expected) < 1e-8

    def test_periodic_linear_modes_follow_stencil_dispersion(self):
        # oracle: eigenmodes of the circulant stencil rotate at
        # 2 d2 (1 - cos(k dx)) and decay at gamma; checked mode by mode
        m, dx = 16, 0.25
        grid = GridSpec(m=m, dx=dx, boundary="periodic")
        gamma, d2 = 0.07, -4.0
        coeffs = RHSCoefficients(d2=d2, chi_t=0.0, gamma_t=gamma,
                                 delta_omega_t=0.0, n_th=0.0)
        rng = np.random.default_rng(2)
        cu = rng.normal(size=m)
        cv = rng.normal(size=m)
        base = thermal_state(grid, 0.0, 1.0)
        state = type(base)(grid, 1.0, 0.0, cu, cv, base.cuu, base.cuv, base.cvv)
        t_end = 0.8
        states, _ = propagate(state, coeffs, [t_end],
                              control=StepControl(atol=1e-12, rtol=1e-12))
        a0 = np.fft.fft(cu + 1j * cv)
        a1 = np.fft.fft(states[0].cu + 1j * states[0].cv)
        k = 2.0 * math.pi * np.fft.fftfreq(m, d=dx)
        rates = 2.0 * d2 * (1.0 - np.cos(k * dx))
        expected = a0 * np.exp(-gamma * t_end) * np.exp(-1j * rates * t_end)
        assert np.max(np.abs(a1 - expected)) < 1e-7 * np.max(np.abs(a0))


def test_step_statistics_recorded():
    stats = integrate(lambda t, y, out: np.negative(y, out=out), np.array([1.0]), 0.0, [5.0],
                      ignore).as_dict()
    assert stats["accepted_steps"] > 0
    assert stats["rhs_evaluations"] > stats["accepted_steps"]
    assert stats["smallest_step"] > 0


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [100, 127, 1001, 4097, 2 * 201 + 3 * 201 ** 2])
@pytest.mark.parametrize("cpus", [1, 2])
def test_combine_matches_one_gemv_bitwise(monkeypatch, dtype, n, cpus):
    # the stage combinations are cut into two gemv calls at a 64-aligned
    # index; every element must come out as from one call over the whole
    # vector (n = 100 has cut 0: one call)
    monkeypatch.setattr(_pair, "_cpu_count", lambda: cpus)
    tab = DORMAND_PRINCE_853
    ns = tab.n_stages
    rng = np.random.default_rng(n)
    k = rng.normal(size=(ns + 1, n))
    if dtype is complex:
        k = k + 1j * rng.normal(size=(ns + 1, n))
    rows = [(k[:i], tab.a[i, :i]) for i in range(1, ns)]
    rows += [(k[:ns], tab.b), (k, tab.error_weights), (k, tab.error_weights_low)]
    out = np.empty(n, dtype=dtype)
    for kk, w in rows:
        assert _combine(kk, w, out) is out
        assert out.tobytes() == np.matmul(kk.T, w).tobytes()
