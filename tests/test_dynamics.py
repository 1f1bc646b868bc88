import hashlib

import numpy as np
import pytest

from qsolsim import _pair, dynamics
from qsolsim.dynamics import (
    RHSCoefficients,
    lap_rows,
    photon_balance_residual,
    propagate,
    rhs,
    rhs_scratch,
    second_order_asymmetry,
)
from qsolsim.integrator import StepControl
from qsolsim.state import (
    CumulantDerivative,
    CumulantState,
    GridSpec,
    fundamental_soliton,
    reorder_s,
    split_flat,
    thermal_state,
)

from conftest import Copies


def random_state(m=7, s=0.3, boundary="absorbing", seed=5, scale=1.0):
    rng = np.random.default_rng(seed)
    grid = GridSpec(m=m, dx=0.17, boundary=boundary)
    cuu = rng.normal(scale=scale, size=(m, m))
    cvv = rng.normal(scale=scale, size=(m, m))
    return CumulantState(
        grid, s, 0.0,
        rng.normal(scale=scale, size=m), rng.normal(scale=scale, size=m),
        0.5 * (cuu + cuu.T), rng.normal(scale=scale, size=(m, m)),
        0.5 * (cvv + cvv.T),
    )


def exact_state(m, s, boundary):
    """A state whose every entry is a small dyadic fraction, built with
    integer arithmetic and exact divisions only (no exp/cosh, whose vector
    paths may round differently between machines); cuu and cvv are exactly
    symmetric."""
    j = np.arange(m)
    row, col = j[:, None], j[None, :]
    return CumulantState(
        GridSpec(m=m, dx=0.25, boundary=boundary), s, 0.0,
        (j % 7 - 3) / 4, (j % 5 - 2) / 8,
        ((row + col) % 9 - 4) / 8 + (row * col % 5) / 32,
        ((3 * row + 7 * col) % 11 - 5) / 16,
        ((row + col) % 6 - 2) / 16 - (row * col % 7) / 64,
    )


def coeffs_for(state, **kw):
    base = dict(d2=-3.1, chi_t=0.4, gamma_t=0.12, delta_omega_t=0.7, n_th=0.25)
    base.update(kw)
    return RHSCoefficients(**base)


class TestFixedPoint:
    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.5, 1.0])
    def test_thermal_state_is_stationary(self, s):
        grid = GridSpec(m=12, dx=0.1)
        state = thermal_state(grid, 0.37, s)
        coeffs = RHSCoefficients(d2=-50.0, chi_t=1e-2, gamma_t=0.08,
                                 delta_omega_t=0.0, n_th=0.37)
        assert np.max(np.abs(rhs(state, coeffs).flatten())) < 1e-14

    def test_thermal_state_with_offset_is_stationary(self):
        state = thermal_state(GridSpec(m=6, dx=0.2), 0.1, 0.0)
        coeffs = RHSCoefficients(d2=-12.5, chi_t=0.3, gamma_t=0.2,
                                 delta_omega_t=1.5, n_th=0.1)
        assert np.max(np.abs(rhs(state, coeffs).flatten())) < 1e-14


class TestFirstOrderExamples:
    def test_offset_rotation_single_cell(self):
        grid = GridSpec(m=1, dx=1.0)
        state = CumulantState(grid, 1.0, 0.0, np.array([1.0]), np.array([0.0]),
                              np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        coeffs = RHSCoefficients(d2=0.0, chi_t=0.0, gamma_t=0.0,
                                 delta_omega_t=1.0, n_th=0.0)
        deriv = rhs(state, coeffs)
        dcu, dcv = deriv.cu, deriv.cv
        assert dcu[0] == pytest.approx(0.0, abs=1e-15)
        assert dcv[0] == pytest.approx(-1.0, rel=1e-15)

    def test_kerr_cubic_term_mean_field(self):
        amp, chi0 = 1.7, 0.23
        grid = GridSpec(m=1, dx=1.0)
        state = CumulantState(grid, 1.0, 0.0, np.array([amp]), np.array([0.0]),
                              np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        coeffs = RHSCoefficients(d2=0.0, chi_t=chi0, gamma_t=0.0,
                                 delta_omega_t=0.0, n_th=0.0)
        deriv = rhs(state, coeffs)
        dcu, dcv = deriv.cu, deriv.cv
        assert dcu[0] == pytest.approx(0.0, abs=1e-15)
        assert dcv[0] == pytest.approx(-chi0 * amp ** 3, rel=1e-14)


class TestSecondOrderExamples:
    def test_off_diagonal_pure_decay(self):
        grid = GridSpec(m=5, dx=0.1)
        state = thermal_state(grid, 0.2, 0.0)
        cuu = state.cuu.copy()
        cuu[1, 3] = cuu[3, 1] = 0.07
        state = CumulantState(grid, 0.0, 0.0, state.cu, state.cv, cuu, state.cuv, state.cvv)
        gamma = 0.31
        coeffs = RHSCoefficients(d2=0.0, chi_t=0.0, gamma_t=gamma,
                                 delta_omega_t=0.0, n_th=0.2)
        deriv = rhs(state, coeffs)
        duu, duv, dvv = deriv.cuu, deriv.cuv, deriv.cvv
        assert duu[1, 3] == pytest.approx(-2.0 * gamma * 0.07, rel=1e-13)
        assert np.all(duv == 0.0) and np.max(np.abs(dvv)) < 1e-16

    def test_diagonal_decay_plus_source(self):
        grid = GridSpec(m=4, dx=0.1)
        s, n_th, gamma, q = 0.4, 0.6, 0.2, 1.9
        state = thermal_state(grid, n_th, s)
        cuu = state.cuu.copy()
        cuu[2, 2] = q
        state = CumulantState(grid, s, 0.0, state.cu, state.cv, cuu, state.cuv, state.cvv)
        coeffs = RHSCoefficients(d2=0.0, chi_t=0.0, gamma_t=gamma,
                                 delta_omega_t=0.0, n_th=n_th)
        duu = rhs(state, coeffs).cuu
        expected = -2.0 * gamma * q + gamma * (n_th + 0.5 * (1 - s))
        assert duu[2, 2] == pytest.approx(expected, rel=1e-13)


class TestStructuralInvariants:
    def test_free_field_is_static(self):
        state = random_state()
        coeffs = coeffs_for(state, d2=0.0, chi_t=0.0, gamma_t=0.0, delta_omega_t=0.0)
        assert np.max(np.abs(rhs(state, coeffs).flatten())) == 0.0

    @pytest.mark.parametrize("boundary", ["absorbing", "periodic"])
    @pytest.mark.parametrize("s_new", [-0.7, 0.0, 0.85])
    def test_reordering_leaves_derivatives_unchanged(self, boundary, s_new):
        state = random_state(boundary=boundary, s=0.25)
        coeffs = coeffs_for(state)
        d_ref = rhs(state, coeffs).flatten()
        d_new = rhs(reorder_s(state, s_new), coeffs).flatten()
        scale = np.max(np.abs(d_ref))
        assert np.max(np.abs(d_ref - d_new)) / scale < 1e-12

    @pytest.mark.parametrize("boundary", ["absorbing", "periodic"])
    def test_rhs_into_buffers_matches_fresh_evaluation(self, boundary):
        state = random_state(boundary=boundary)
        other = random_state(boundary=boundary, s=-0.4, seed=11, scale=3.0)
        coeffs = coeffs_for(state)
        m = state.grid.m
        buf = np.full(2 * m + 3 * m * m, np.nan)
        scratch = rhs_scratch(m)
        for st in (other, state):  # the second call reuses scratch left by the first
            deriv = rhs(st, coeffs, out=buf, scratch=scratch)
            for block in (deriv.cu, deriv.cv, deriv.cuu, deriv.cuv, deriv.cvv):
                assert np.shares_memory(block, buf)
            assert np.array_equal(deriv.flatten(), buf)
            assert np.array_equal(buf, rhs(st, coeffs).flatten())

    @pytest.mark.parametrize("boundary", ["absorbing", "periodic"])
    @pytest.mark.parametrize("s", [-0.7, 0.0, 0.85])
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 40, 41])
    def test_rhs_is_bit_identical_inline_and_threaded(self, monkeypatch, boundary, s, m):
        # the second-order halves run one after the other (1 CPU) or on two
        # threads; odd m and the periodic wrap rows land on the row cut m // 2
        state = random_state(m=m, s=s, boundary=boundary, seed=m, scale=2.0)
        coeffs = coeffs_for(state)
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(_pair, "_cpu_count", lambda c=cpus: c)
            results.append(rhs(state, coeffs).flatten().tobytes())
        assert results[0] == results[1]

    def test_rhs_evaluates_the_local_factors_once(self, monkeypatch):
        # both orders read the same g1, g2, h and same-cell diagonals
        calls = []
        real = dynamics._local_factors

        def counting(state):
            calls.append(state)
            return real(state)

        monkeypatch.setattr(dynamics, "_local_factors", counting)
        state = random_state()
        rhs(state, coeffs_for(state))
        assert len(calls) == 1

    def test_rhs_hands_off_once_per_evaluation(self, monkeypatch):
        # each second-order half builds every block it reads, so the two
        # halves are the only handoff to the pair worker
        calls = []
        real = dynamics.run_pair

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(dynamics, "run_pair", counting)
        state = random_state(m=41)
        rhs(state, coeffs_for(state))
        assert len(calls) == 1

    @pytest.mark.parametrize("boundary", ["absorbing", "periodic"])
    def test_rhs_halves_share_no_buffer(self, monkeypatch, boundary):
        # run the two second-order halves one at a time on NaN-filled buffers:
        # each writes all of its mirror block and its rows of the uv block,
        # nothing else of ``out``, and at most two scratch blocks of its own
        state = random_state(m=41, s=0.85, boundary=boundary, seed=41, scale=2.0)
        m, cut = state.grid.m, state.grid.m // 2
        halves = []
        monkeypatch.setattr(dynamics, "run_pair", lambda a, b: halves.extend((a, b)))
        out, scratch = np.empty(2 * m + 3 * m * m), rhs_scratch(m)
        rhs(state, coeffs_for(state), out=out, scratch=scratch)
        owned = []
        for half, block, rows in zip(halves, ("cuu", "cvv"), (slice(0, cut), slice(cut, m))):
            expected = np.zeros(out.shape, dtype=bool)
            mask = CumulantDerivative(*split_flat(expected, m))
            getattr(mask, block)[...] = True
            mask.cuv[rows] = True
            out.fill(np.nan)
            scratch.fill(np.nan)
            half()
            assert np.array_equal(~np.isnan(out), expected), block
            owned.append({i for i, buf in enumerate(scratch) if not np.isnan(buf).all()})
            assert len(owned[-1]) <= 2
        assert not owned[0] & owned[1]

    @pytest.mark.parametrize("boundary", ["absorbing", "periodic"])
    @pytest.mark.parametrize("s", [-0.7, 0.0, 0.85])
    @pytest.mark.parametrize("m", [1, 2, 7, 40, 41])
    def test_uu_vv_blocks_are_the_term_by_term_mirror_blocks(self, boundary, s, m):
        # rhs assembles uu/vv straight into its output, with no symmetrizing
        # pass: each must equal mirror_block on fresh buffers bit for bit and
        # be exactly symmetric for exactly symmetric input
        state = random_state(m=m, s=s, boundary=boundary, seed=m, scale=2.0)
        coeffs = coeffs_for(state)
        deriv = rhs(state, coeffs)
        mat, tmp, acc = np.full((3, m, m), np.nan)
        parts = dynamics._SecondOrder(state, coeffs, dynamics._local_factors(state))
        for sign, block in ((1, deriv.cuu), (-1, deriv.cvv)):
            parts.mirror_block(sign, mat, tmp, acc)
            assert block.tobytes() == mat.tobytes()
            assert block.tobytes() == block.T.copy().tobytes()

    @pytest.mark.parametrize("boundary", ["absorbing", "periodic"])
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 13, 40, 41])
    def test_propagated_covariances_stay_exactly_symmetric(self, boundary, m):
        # rhs relies on it: at these m the constructors, reorder_s and every
        # RK step keep cuu and cvv exactly symmetric, with Kerr coupling and
        # a rotation (at some odd m from 193 up the stage gemv does not)
        grid = GridSpec(m=m, dx=0.25, boundary=boundary)
        state = reorder_s(fundamental_soliton(grid, 1e4, 1e-3, 0.0), 0.85)
        coeffs = RHSCoefficients(d2=-8.0, chi_t=1e-2, gamma_t=0.05,
                                 delta_omega_t=0.3, n_th=1e-3)
        states = Copies()
        propagate(state, coeffs, [0.02, 0.05], states)
        for st in (state, *states):
            assert np.array_equal(st.cuu, st.cuu.T) and np.array_equal(st.cvv, st.cvv.T)
        if m > 1:  # the run built off-diagonal covariances
            assert np.any(np.triu(states[-1].cuu, 1)) and np.any(np.triu(states[-1].cvv, 1))

    def test_raw_asymmetry_is_roundoff(self):
        state = random_state(scale=3.0)
        assert second_order_asymmetry(state, coeffs_for(state)) < 1e-12

    def test_linear_dynamics_decouples_orders(self):
        # with chi = 0 the mean equations ignore the covariances and vice versa
        state = random_state(seed=8)
        coeffs = coeffs_for(state, chi_t=0.0)
        d_full = rhs(state, coeffs)
        stripped = CumulantState(state.grid, state.s, state.t, state.cu, state.cv,
                                 np.zeros_like(state.cuu), np.zeros_like(state.cuv),
                                 np.zeros_like(state.cvv))
        d_stripped = rhs(stripped, coeffs)
        assert np.array_equal(d_full.cu, d_stripped.cu) and np.array_equal(d_full.cv, d_stripped.cv)

        other_means = CumulantState(state.grid, state.s, state.t,
                                    2.5 * state.cu + 1.0, state.cv - 0.7,
                                    state.cuu, state.cuv, state.cvv)
        d_other = rhs(other_means, coeffs)
        for block in ("cuu", "cuv", "cvv"):
            assert np.array_equal(getattr(d_full, block), getattr(d_other, block))

    def test_locality_of_linear_coupling(self):
        # with chi = 0, perturbing cell j moves the mean derivative only at j-1, j, j+1
        m = 9
        grid = GridSpec(m=m, dx=0.2)
        base = thermal_state(grid, 0.0, 0.0)
        coeffs = RHSCoefficients(d2=-2.0, chi_t=0.0, gamma_t=0.1,
                                 delta_omega_t=0.4, n_th=0.0)
        d0 = rhs(base, coeffs)
        cu = base.cu.copy()
        j = 4
        cu[j] = 1.0
        bumped = CumulantState(grid, 0.0, 0.0, cu, base.cv, base.cuu, base.cuv, base.cvv)
        d1 = rhs(bumped, coeffs)
        changed = np.nonzero((d1.cu != d0.cu) | (d1.cv != d0.cv))[0]
        assert set(changed) <= {j - 1, j, j + 1}

    def test_shape_mismatch_raises(self):
        state = random_state(m=4)
        with pytest.raises(ValueError):
            CumulantState(state.grid, 0.0, 0.0, np.zeros(3), state.cv,
                          state.cuu, state.cuv, state.cvv)


class TestPhotonBalance:
    def test_thermal_state_balances_exactly(self):
        state = thermal_state(GridSpec(m=8, dx=0.1), 0.4, 0.0)
        coeffs = RHSCoefficients(d2=-50.0, chi_t=0.0, gamma_t=0.07,
                                 delta_omega_t=0.0, n_th=0.4)
        assert photon_balance_residual(state, rhs(state, coeffs), coeffs) == pytest.approx(0.0, abs=1e-12)

    def test_periodic_linear_identity(self):
        # oracle: compare against a finite difference of the summed intensity
        # along a short trajectory
        from qsolsim.observables import intensity

        grid = GridSpec(m=16, dx=0.25, boundary="periodic")
        n0 = 40.0
        state = fundamental_soliton(grid, n0, 0.3, 0.0)
        coeffs = RHSCoefficients(d2=-8.0, chi_t=0.0, gamma_t=0.05,
                                 delta_omega_t=0.0, n_th=0.3)
        deriv = rhs(state, coeffs)
        res = photon_balance_residual(state, deriv, coeffs)
        total = float(np.sum(intensity(state)))
        assert abs(res) < 1e-10 * total

        eps = 1e-6
        states = Copies()
        propagate(state, coeffs, [eps], states, control=StepControl(atol=1e-13, rtol=1e-13))
        total_after = float(np.sum(intensity(states[0])))
        fd = (total_after - total) / eps
        exact = -2.0 * coeffs.gamma_t * float(np.sum(intensity(state) - coeffs.n_th))
        assert fd == pytest.approx(exact, rel=1e-6)

    def test_absorbing_kerr_residual_is_small_and_reported(self):
        # with Kerr back-action and open walls the balance is only
        # approximate; sanity-check the magnitude on an evolved pulse
        from qsolsim.observables import intensity

        grid = GridSpec(m=64, dx=0.2)
        n0 = 1e4
        state = fundamental_soliton(grid, n0, 0.0, 0.0)
        coeffs = RHSCoefficients(d2=-12.5, chi_t=1.0 / n0, gamma_t=0.05,
                                 delta_omega_t=0.0, n_th=0.0)
        states = Copies()
        propagate(state, coeffs, [0.5], states)
        evolved = states[0]
        res = photon_balance_residual(evolved, rhs(evolved, coeffs), coeffs)
        assert np.isfinite(res)
        assert abs(res) < 1e-3 * float(np.sum(intensity(evolved)))


def test_lap_rows_on_a_vector():
    f = np.array([1.0, 2.0, 4.0])
    absorbing = lap_rows(f, "absorbing")
    assert np.allclose(absorbing, [0.0, 1.0, -6.0])
    periodic = lap_rows(f, "periodic")
    assert np.allclose(periodic, [4.0, 1.0, -5.0])


def roll_lap(mat, axis, boundary):
    """-2 f + (f(j-1) + f(j+1)) with np.roll (periodic), or with the
    out-of-range neighbours left out (absorbing): the stencils' reference."""
    ref = -2.0 * mat
    if boundary == "periodic":
        ref += np.roll(mat, 1, axis=axis) + np.roll(mat, -1, axis=axis)
    else:
        lo, hi = [slice(None)] * 2, [slice(None)] * 2
        lo[axis], hi[axis] = slice(None, -1), slice(1, None)
        ref[tuple(lo)] += mat[tuple(hi)]
        ref[tuple(hi)] += mat[tuple(lo)]
    return ref


@pytest.mark.parametrize("boundary", ["absorbing", "periodic"])
@pytest.mark.parametrize("m", [1, 2, 3, 9])
def test_matrix_stencils_match_the_roll_formula(boundary, m):
    # the buffered stencils must give the reference's bits, written into
    # ``out``; along axis 1 the stencil is lap_rows on transposed views
    mat = np.random.default_rng(m).normal(size=(m, m))

    def lap(out=None):
        if axis == 0:
            return lap_rows(mat, boundary, out)
        return lap_rows(mat.T, boundary, None if out is None else out.T).T

    for axis in (0, 1):
        ref = roll_lap(mat, axis, boundary)
        out = np.full((m, m), np.nan)
        got = lap(out)
        assert got is out if axis == 0 else got.base is out
        assert np.array_equal(out, ref)
        assert np.array_equal(lap(), ref)


@pytest.mark.parametrize("boundary", ["absorbing", "periodic"])
@pytest.mark.parametrize("m", [1, 2, 3, 9])
def test_stencil_row_range_writes_exactly_those_rows(boundary, m):
    # rhs splits the stencils into row ranges; each range must carry the
    # reference's bits and leave every other entry of ``out`` untouched
    mat = np.random.default_rng(m + 10).normal(size=(m, m))
    for axis in (0, 1):
        ref = roll_lap(mat, axis, boundary)
        for lo in range(m):
            for hi in range(lo + 1, m + 1):
                span = [slice(None)] * 2
                span[axis] = slice(lo, hi)
                expected = np.full((m, m), np.nan)
                expected[tuple(span)] = ref[tuple(span)]
                out = np.full((m, m), np.nan)
                if axis == 0:
                    assert lap_rows(mat, boundary, out, lo=lo, hi=hi) is out
                else:
                    got = lap_rows(mat.T, boundary, out.T, lo=lo, hi=hi)
                    assert got.base is out
                assert np.array_equal(out, expected, equal_nan=True), (axis, lo, hi)


# sha256 prefixes of rhs(exact_state(m, s, boundary), EXACT_COEFFS).  The
# inputs are exact, so a mismatch means rhs rounds differently: that moves
# the eta outputs, which magnify round-off about 1e6-fold, past the 1e-9
# check of the benchmark's stored references.
EXACT_COEFFS = RHSCoefficients(d2=-3.125, chi_t=0.375, gamma_t=0.125,
                               delta_omega_t=-0.75, n_th=0.25)
RHS_DIGESTS = {
    (1, "absorbing", -0.75): "941971558b319e81",
    (1, "absorbing", 0.0): "3a475f7e0fe52f1f",
    (1, "absorbing", 0.5): "4eb91dd5ea613ced",
    (1, "periodic", -0.75): "49b63ac0a6acd4bc",
    (1, "periodic", 0.0): "d1fb963385d95d16",
    (1, "periodic", 0.5): "95bb414bb1dc4a7f",
    (7, "absorbing", -0.75): "3abbbeb6696152a3",
    (7, "absorbing", 0.0): "c8dc2f368e746c4a",
    (7, "absorbing", 0.5): "fb92e831f0c72f59",
    (7, "periodic", -0.75): "e4097facc4770071",
    (7, "periodic", 0.0): "4fc7b009309fa08a",
    (7, "periodic", 0.5): "bd1f9f01f2ea94bc",
    (41, "absorbing", -0.75): "a6275e282501e6f3",
    (41, "absorbing", 0.0): "a86a23961d0f2503",
    (41, "absorbing", 0.5): "353f118ebe2ca7df",
    (41, "periodic", -0.75): "47ef11273fc01692",
    (41, "periodic", 0.0): "7fe4dd354056c622",
    (41, "periodic", 0.5): "0e71152166df0034",
}


@pytest.mark.parametrize("m, boundary, s", sorted(RHS_DIGESTS))
def test_rhs_bits_on_exact_states_are_pinned(m, boundary, s):
    deriv = rhs(exact_state(m, s, boundary), EXACT_COEFFS).flatten()
    digest = hashlib.sha256(deriv.astype("<f8").tobytes()).hexdigest()[:16]
    assert digest == RHS_DIGESTS[m, boundary, s]
