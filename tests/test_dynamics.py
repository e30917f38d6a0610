import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neutreno import dynamics, linalg
from neutreno.cli import KEY_SCALE
from neutreno.dynamics import (
    DEFAULT_OVERFLOW_BOUND,
    METRICS,
    _records,
    fixed_point_separation,
    neutreno_fixed_point,
    run_neutreno_dynamics,
    run_plain_dynamics,
)
from neutreno.functional import nonlocal_energy
from neutreno.linalg import max_pairwise_distance, pairwise_cosine_mean
from neutreno.random_walk import limit_vector, stationary_power_iteration, transition_from_scores

UNIFORM_2 = np.full((2, 2), 0.5)


def random_chain(rng, n, d_qk=3, scale=0.5):
    keys = rng.normal(scale=scale, size=(n, d_qk))
    return transition_from_scores(keys, keys)


def same_bits(x, y):
    """Whether two arrays hold the same bytes: -0.0 differs from 0.0, and a
    NaN equals only a NaN with the same payload."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.dtype, x.shape) == (y.dtype, y.shape) and x.tobytes() == y.tobytes()


def metric_values(rec):
    return [getattr(rec, name) for name in METRICS]


def traces_equal(t1, t2, check_states=False):
    if len(t1) != len(t2):
        return False
    for r1, r2 in zip(t1, t2):
        if (r1.step, r1.diverged) != (r2.step, r2.diverged):
            return False
        if not same_bits(metric_values(r1), metric_values(r2)):
            return False
        if check_states and not same_bits(r1.state, r2.state):
            return False
    return True


class TestPlainDynamics:
    def test_constant_state_is_flat(self):
        # diameter stays at rounding level: softmax rows sum to 1 +- 1 ulp
        v0 = np.tile([1.0, 2.0], (3, 1))
        rng = np.random.default_rng(90)
        trace = run_plain_dynamics(v0, random_chain(rng, 3), 10)
        assert len(trace) == 11
        assert trace[0].max_pairwise == 0.0
        assert all(rec.max_pairwise <= 1e-12 for rec in trace)
        assert not trace.diverged

    def test_uniform_chain_is_stationary_after_one_step(self):
        rng = np.random.default_rng(91)
        v0 = rng.normal(size=(2, 3))
        trace = run_plain_dynamics(v0, UNIFORM_2, 5, record_states=True)
        for rec in trace[2:]:
            np.testing.assert_allclose(rec.state, trace[1].state, atol=1e-15)

    def test_long_run_collapses(self):
        rng = np.random.default_rng(92)
        a = random_chain(rng, 8)
        v0 = rng.normal(size=(8, 4))
        trace = run_plain_dynamics(v0, a, 200)
        assert trace.final.max_pairwise <= 1e-8
        assert trace.final.mean_cosine >= 1 - 1e-8
        assert trace.final.max_pairwise <= trace[0].max_pairwise

    def test_diameter_nonincreasing_each_step(self):
        rng = np.random.default_rng(93)
        a = random_chain(rng, 6)
        trace = run_plain_dynamics(rng.normal(size=(6, 3)), a, 50)
        diams = [rec.max_pairwise for rec in trace]
        assert all(b <= a_ + 1e-12 for a_, b in zip(diams, diams[1:]))


    def test_rejects_transition_with_negative_entry(self):
        a = np.array([[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="nonnegative"):
            run_plain_dynamics(np.array([[1.0], [2.0]]), a, 3)


class TestTraceMetrics:
    """Each record's J and diameter equal the public metric functions
    evaluated on the recorded state, bit for bit."""

    @staticmethod
    def check(trace, a):
        for rec in trace:
            assert rec.j_value == nonlocal_energy(rec.state, a)
            assert rec.max_pairwise == max_pairwise_distance(rec.state)

    def test_plain_dynamics(self):
        rng = np.random.default_rng(95)
        a = random_chain(rng, 9)
        self.check(run_plain_dynamics(rng.normal(size=(9, 5)), a, 30,
                                      record_states=True), a)

    def test_neutreno_dynamics(self):
        rng = np.random.default_rng(96)
        a = random_chain(rng, 9)
        anchor = rng.normal(scale=3.0, size=(9, 5))
        self.check(run_neutreno_dynamics(anchor, anchor, a, 0.6, 30,
                                         record_states=True), a)

    def test_fortran_ordered_input(self):
        # from 8 features on, the order of the sum over D follows the memory
        # layout, so the metrics must run on the C-ordered recorded state
        rng = np.random.default_rng(97)
        for _ in range(20):
            n, d = int(rng.integers(2, 40)), int(rng.integers(8, 40))
            a = random_chain(rng, n)
            v0 = np.asfortranarray(rng.normal(size=(n, d)))
            self.check(run_plain_dynamics(v0, a, 3, record_states=True), a)


class TestFiniteMetrics:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        units=st.integers(1, 4),
        n=st.integers(1, 40),
        d=st.integers(1, 12),
        weights=st.sampled_from(["C", "F", "broadcast C", "broadcast F"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_energy_keeps_the_bits(self, units, n, d, weights, seed):
        # J overwrites the squared distances with the weighted squares after
        # the diameter is taken; the bits are those of the fresh product, for
        # a stack of kernels and for one chain broadcast over steps
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=3.0, size=(units, n, d))
        if weights.startswith("broadcast"):
            a = rng.uniform(size=(n, n))
            w = np.broadcast_to(np.asfortranarray(a) if weights.endswith("F") else a,
                                (units, n, n))
        else:
            w = rng.uniform(size=(units, n, n))
            w = np.asfortranarray(w) if weights == "F" else w
        # a single row's cosine is 0 / 0
        with np.errstate(invalid="ignore"):
            values, _ = _records(x, w, DEFAULT_OVERFLOW_BOUND)
        j, diameter = (values[METRICS.index(name)] for name in ("j_value", "max_pairwise"))
        sq = linalg._sq_distances(x)
        assert (j == 0.5 * (w * sq).sum(axis=(-2, -1))).all()
        assert (diameter == np.sqrt(sq.max(axis=(-2, -1)))).all()


def reference_run(v0, a, steps, lam=0.0, anchor=None,
                  overflow_bound=DEFAULT_OVERFLOW_BOUND):
    """The dynamics written out one step at a time with the public metrics;
    one (j, cosine, diameter, diverged, state) tuple per step."""
    state = np.array(v0, dtype=np.float64)
    records = []
    diverged = False
    for step in range(steps + 1):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if step:
                nxt = a @ state
                if lam:
                    nxt = nxt + lam * (anchor - state)
                state = nxt
            if not np.isfinite(state).all():
                diverged = True
                records.append((math.nan, math.nan, math.nan, diverged, state))
                continue
            diverged = diverged or bool(np.abs(state).max() > overflow_bound)
            if len(state) < 2 or not np.linalg.norm(state, axis=1).all():
                cos = math.nan
            else:
                cos = pairwise_cosine_mean(state)
            records.append((nonlocal_energy(state, a), cos, max_pairwise_distance(state),
                            diverged, state))
    return records


def assert_same_records(records, expected):
    """Field-wise equality of two record lists, bit for bit."""
    assert len(records) == len(expected)
    for rec, exp in zip(records, expected):
        assert (rec.step, rec.diverged) == (exp.step, exp.diverged)
        assert same_bits(metric_values(rec), metric_values(exp))
        if exp.state is None:
            assert rec.state is None
        else:
            assert same_bits(rec.state, exp.state)


def assert_matches_reference(trace, reference, record_states):
    assert len(trace) == len(reference)
    records = list(trace)
    for step, (rec, (j, cos, diameter, diverged, state)) in enumerate(zip(records, reference)):
        assert rec.step == step
        # by value: the reference writes an undefined cosine as math.nan,
        # whose sign bit differs from that of a computed 0 / 0
        np.testing.assert_array_equal(
            [rec.j_value, rec.mean_cosine, rec.max_pairwise], [j, cos, diameter])
        assert rec.diverged is diverged
        if record_states:
            assert same_bits(rec.state, state)
        else:
            assert rec.state is None
    # the other views of the trace: indices from either end, slices, the
    # final record and the columns
    assert_same_records([trace[-1], trace.final], records[-1:] * 2)
    assert_same_records([trace[i - len(trace)] for i in range(len(trace))], records)
    assert_same_records(trace[1:-1:3], records[1:-1:3])
    assert trace.diverged is records[-1].diverged
    for name in (*METRICS, "diverged"):
        column = trace.column(name)
        assert same_bits(column, [getattr(rec, name) for rec in records])
        assert not column.flags.writeable


class TestBatchedRecords:
    """The records of a run are computed a batch of steps at a time; every
    field must equal the per-step reference bit for bit."""

    @pytest.mark.parametrize("record_states", [False, True])
    @pytest.mark.parametrize("lam", [None, 0.0, 0.6])
    def test_many_batches(self, lam, record_states):
        # 2**16 // 64**2 = 16 steps per batch, so 401 records span 26 batches
        rng = np.random.default_rng(110)
        a = random_chain(rng, 64)
        v0 = rng.normal(size=(64, 3))
        if lam is None:
            trace = run_plain_dynamics(v0, a, 400, record_states=record_states)
            reference = reference_run(v0, a, 400)
        else:
            anchor = rng.normal(size=(64, 3))
            trace = run_neutreno_dynamics(v0, anchor, a, lam, 400,
                                          record_states=record_states)
            reference = reference_run(v0, a, 400, lam, anchor)
        assert_matches_reference(trace, reference, record_states)

    @pytest.mark.parametrize("record_states", [False, True])
    def test_divergence_starts_inside_a_batch(self, record_states):
        # 2**16 // 40**2 = 40 steps per batch; at lam = 3 the iterates grow
        # past the overflow bound, then overflow to non-finite values
        rng = np.random.default_rng(111)
        a = random_chain(rng, 40)
        anchor = rng.normal(size=(40, 3))
        trace = run_neutreno_dynamics(anchor, anchor, a, 3.0, 1000,
                                      record_states=record_states)
        assert_matches_reference(trace, reference_run(anchor, a, 1000, 3.0, anchor),
                                 record_states)
        batch = linalg._BLOCK_ENTRIES // 40**2
        first_diverged = next(rec.step for rec in trace if rec.diverged)
        first_nan = next(rec.step for rec in trace if math.isnan(rec.j_value))
        assert first_diverged < first_nan
        assert first_diverged % batch and first_nan % batch
        assert first_nan // batch > first_diverged // batch

    def test_latch_carries_across_batches(self):
        # only the initial state passes the bound; the averaged states fall
        # back below it, and every later batch must keep the flag
        rng = np.random.default_rng(114)
        a = random_chain(rng, 64)
        v0 = rng.normal(size=(64, 3))
        v0[5, 1] = 50.0
        trace = run_plain_dynamics(v0, a, 100, record_states=True, overflow_bound=40.0)
        assert_matches_reference(trace, reference_run(v0, a, 100, overflow_bound=40.0), True)
        assert np.abs(trace[1].state).max() < 40.0
        assert all(rec.diverged for rec in trace)

    @pytest.mark.parametrize("record_states", [False, True])
    def test_single_token(self, record_states):
        rng = np.random.default_rng(112)
        v0 = rng.normal(size=(1, 4))
        trace = run_neutreno_dynamics(v0, 2 * v0, np.ones((1, 1)), 0.5, 30,
                                      record_states=record_states)
        assert_matches_reference(trace, reference_run(v0, np.ones((1, 1)), 30, 0.5, 2 * v0),
                                 record_states)
        assert all(math.isnan(rec.mean_cosine) for rec in trace)

    @pytest.mark.parametrize("record_states", [False, True])
    def test_zero_row(self, record_states):
        rng = np.random.default_rng(113)
        a = random_chain(rng, 6)
        v0 = rng.normal(size=(6, 2))
        v0[3] = 0.0
        trace = run_plain_dynamics(v0, a, 12, record_states=record_states)
        assert_matches_reference(trace, reference_run(v0, a, 12), record_states)
        assert math.isnan(trace[0].mean_cosine)
        assert not math.isnan(trace[1].mean_cosine)


def first_repeat(reference):
    """The step of the first state from step 1 on that a later state of a
    reference run repeats bit for bit, and the distance between the two;
    None when no state repeats."""
    seen = {}
    for step, (*_, state) in enumerate(reference[1:], start=1):
        key = state.tobytes()
        if key in seen:
            return seen[key], step - seen[key]
        seen[key] = step
    return None


@pytest.fixture
def measured(monkeypatch):
    """The number of states whose records are computed ("records") and of
    the finite ones among them, whose metrics are measured ("finite")."""
    counts = {"records": 0, "finite": 0}
    records = dynamics._records

    def counting_records(x, *args):
        counts["records"] += len(x)
        counts["finite"] += int(np.isfinite(x).all(axis=(-2, -1)).sum())
        return records(x, *args)

    monkeypatch.setattr(dynamics, "_records", counting_records)
    return counts


class TestOrbitReplay:
    """A frozen map's float64 iterate ends in an exact fixed point or cycle;
    once a state repeats, ``_run`` replays the cycle's records instead of
    stepping, and every field must still equal the per-step reference."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 24),
        d=st.integers(1, 9),
        key_scale=st.floats(0.1, 6.0),
        lam=st.sampled_from([0.0, 0.2, 0.6, 1.0, 1.5, 3.0]),
        steps=st.integers(1, 600),
        overflow_bound=st.sampled_from([DEFAULT_OVERFLOW_BOUND, 1e3]),
        record_states=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(self, n, d, key_scale, lam, steps, overflow_bound,
                               record_states, seed):
        rng = np.random.default_rng(seed)
        a = random_chain(rng, n, scale=key_scale)
        v0, anchor = rng.normal(scale=3.0, size=(2, n, d))
        trace = run_neutreno_dynamics(v0, anchor, a, lam, steps, record_states=record_states,
                                      overflow_bound=overflow_bound)
        assert_matches_reference(trace, reference_run(v0, a, steps, lam, anchor, overflow_bound),
                                 record_states)

    def test_long_plain_run_measures_few_states(self, measured):
        rng = np.random.default_rng(120)
        a = random_chain(rng, 16, scale=KEY_SCALE)
        v0 = rng.normal(size=(16, 3))
        trace = run_plain_dynamics(v0, a, 2000)
        assert measured["finite"] < 0.1 * 2001
        assert_matches_reference(trace, reference_run(v0, a, 2000), False)

    @pytest.mark.parametrize("record_states", [False, True])
    @pytest.mark.parametrize("seed,lam,period", [(1, 0.0, 1), (6, 0.0, 2), (1, 0.2, 4)])
    def test_periodic_orbit(self, seed, lam, period, record_states, measured):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 17))
        a = random_chain(rng, n)
        v0 = rng.normal(size=(n, 3))
        reference = reference_run(v0, a, 300, lam, v0)
        start, found = first_repeat(reference)
        assert found == period
        trace = run_neutreno_dynamics(v0, v0, a, lam, 300, record_states=record_states)
        assert_matches_reference(trace, reference, record_states)
        # the checkpoint sits at steps 2**k - 1 and finds the repeat once it
        # is on the cycle and its next 2**k steps cover the period
        assert measured["records"] <= max(2 * start, 2 * period - 1) + period

    def test_batch_boundaries(self, monkeypatch, measured):
        # a period-4 orbit under every batch length up to past its repeat:
        # the repeat falls on the first slot of a batch, and the cycle spans
        # a batch boundary, for some of them
        rng = np.random.default_rng(1)
        n = int(rng.integers(2, 17))
        a = random_chain(rng, n)
        v0 = rng.normal(size=(n, 3))
        reference = reference_run(v0, a, 120, 0.2, v0)
        first_slot = spans = False
        for length in range(1, 60):
            monkeypatch.setattr(dynamics, "_BLOCK_ENTRIES", length * n**2)
            measured["records"] = 0
            trace = run_neutreno_dynamics(v0, v0, a, 0.2, 120, record_states=True)
            assert_matches_reference(trace, reference, True)
            repeat = measured["records"]  # the step whose state repeated
            assert repeat < 121
            first_slot |= repeat % length == 0
            spans |= (repeat - 4) // length != (repeat - 1) // length
        assert first_slot and spans

    def test_fortran_ordered_fixed_point(self):
        # a fixed point of the map on Fortran-ordered states, given in that
        # layout: step 1 repeats step 0's values, but step 2 is computed
        # from the C-ordered step 1, whose product can have other bits
        rng = np.random.default_rng(71)
        n, d = int(rng.integers(2, 17)), int(rng.integers(2, 6))
        a = random_chain(rng, n)
        x = rng.normal(size=(n, d))
        for _ in range(300):
            x, previous = a @ np.asfortranarray(x), x
            if same_bits(x, previous):
                break
        v0 = np.asfortranarray(x)
        trace = run_plain_dynamics(v0, a, 100, record_states=True)
        assert_matches_reference(trace, reference_run(v0, a, 100), True)

    @pytest.mark.parametrize("record_states", [False, True])
    def test_nan_orbit(self, record_states, measured):
        # at lam = 3 the iterates overflow, and from step 649 on every entry
        # is the same NaN; the checkpoint at step 1023 finds the repeat
        rng = np.random.default_rng(111)
        a = random_chain(rng, 40)
        anchor = rng.normal(size=(40, 3))
        trace = run_neutreno_dynamics(anchor, anchor, a, 3.0, 1500,
                                      record_states=record_states)
        assert_matches_reference(trace, reference_run(anchor, a, 1500, 3.0, anchor),
                                 record_states)
        assert measured["records"] == 1024
        assert math.isnan(trace.final.j_value) and trace.diverged

    def test_no_repeat_measures_every_state(self, measured):
        # the iterates grow by a factor of 1.7 a step and stay finite
        a = np.array([[0.05, 0.95], [0.95, 0.05]])
        anchor = np.array([[100.0], [-100.0]])
        trace = run_neutreno_dynamics(anchor, anchor, a, 0.8, 300, record_states=True)
        assert_matches_reference(trace, reference_run(anchor, a, 300, 0.8, anchor), True)
        assert measured == {"records": 301, "finite": 301}


class TestNeutrenoDynamics:
    def test_zero_lambda_identical_to_plain(self):
        rng = np.random.default_rng(94)
        a = random_chain(rng, 5)
        v0 = rng.normal(size=(5, 2))
        anchor = rng.normal(size=(5, 2))
        plain = run_plain_dynamics(v0, a, 30, record_states=True)
        anchored = run_neutreno_dynamics(v0, anchor, a, 0.0, 30, record_states=True)
        assert traces_equal(plain, anchored, check_states=True)

    def test_constant_anchor_fixed_point(self):
        anchor = np.tile([2.0, -1.0], (4, 1))
        rng = np.random.default_rng(95)
        a = random_chain(rng, 4)
        trace = run_neutreno_dynamics(anchor.copy(), anchor, a, 0.6, 20)
        assert all(rec.max_pairwise <= 1e-12 for rec in trace)
        assert np.abs(trace.final.max_pairwise) <= 1e-12

    def test_converges_to_solved_fixed_point(self):
        rng = np.random.default_rng(96)
        for trial in range(10):
            n = int(rng.integers(2, 12))
            a = random_chain(rng, n)
            anchor = rng.normal(size=(n, 3))
            report = neutreno_fixed_point(anchor, a, 0.6)
            assert report.spectral_ok
            trace = run_neutreno_dynamics(anchor, anchor, a, 0.6, 400,
                                          record_states=True)
            assert np.abs(trace.final.state - report.u_star).max() <= 1e-8

    def test_final_state_stays_spread_out(self):
        """With a non-constant anchor the trajectory keeps a diameter
        comparable to the anchor's instead of collapsing."""
        rng = np.random.default_rng(97)
        for trial in range(10):
            n = int(rng.integers(2, 10))
            a = random_chain(rng, n)
            anchor = rng.normal(size=(n, 3))
            trace = run_neutreno_dynamics(anchor, anchor, a, 0.6, 200)
            assert trace.final.max_pairwise >= 0.1 * max_pairwise_distance(anchor)
            assert not trace.diverged

    def test_divergence_flag_latches(self):
        # eigenvalues of this chain are 1 and -0.9; shifting by 0.8 puts
        # the iteration matrix spectral radius at 1.7
        a = np.array([[0.05, 0.95], [0.95, 0.05]])
        anchor = np.array([[100.0], [-100.0]])
        trace = run_neutreno_dynamics(anchor, anchor, a, 0.8, 300,
                                      overflow_bound=1e6)
        assert trace.diverged
        first_bad = next(rec.step for rec in trace if rec.diverged)
        assert all(rec.diverged for rec in trace[first_bad:])
        assert len(trace) == 301

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            run_neutreno_dynamics(np.zeros((2, 1)), np.zeros((2, 1)), UNIFORM_2,
                                  -0.5, 5)


class TestNeutrenoFixedPoint:
    def test_constant_anchor_is_its_own_fixed_point(self):
        anchor = np.tile([3.0, 1.0], (5, 1))
        rng = np.random.default_rng(98)
        report = neutreno_fixed_point(anchor, random_chain(rng, 5), 0.7)
        np.testing.assert_allclose(report.u_star, anchor, atol=1e-12)
        assert report.is_constant_vector

    def test_hand_solved_two_state_instance(self):
        """(1.5 I - A) u* = 0.5 f with the uniform chain and f = (0, 1)
        solves to u* = (1/3, 2/3)."""
        anchor = np.array([[0.0], [1.0]])
        report = neutreno_fixed_point(anchor, UNIFORM_2, 0.5)
        np.testing.assert_allclose(report.u_star, [[1 / 3], [2 / 3]], atol=1e-14)
        assert report.residual <= 1e-9 * (1 + 1.0)
        assert not report.is_constant_vector
        assert report.spectral_ok

    def test_unanchored_limit_is_constant_by_contrast(self):
        v0 = np.array([[0.0], [1.0]])
        pi = stationary_power_iteration(UNIFORM_2)
        np.testing.assert_allclose(limit_vector(pi, v0), [0.5], atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            a = random_chain(rng, n)
            anchor = rng.normal(size=(n, 4))
            lam = float(rng.uniform(0.1, 1.0))
            report = neutreno_fixed_point(anchor, a, lam)
            assert report.residual <= 1e-9 * (1 + np.abs(anchor).max())
            rho = np.abs(np.linalg.eigvals(a - lam * np.eye(n))).max()
            assert report.spectral_ok == (rho < 1.0)

    def test_rejects_zero_lambda(self):
        with pytest.raises(ValueError):
            neutreno_fixed_point(np.zeros((2, 1)), UNIFORM_2, 0.0)

    def test_near_period_two_chain_does_not_contract(self):
        """A - lam I has eigenvalues 0.9997 and -1.0001: the moduli nearly
        tie, yet the spectral radius is above 1 and the recursion does not
        reach u*."""
        eps = 1e-4
        a = np.array([[eps, 1 - eps], [1 - eps, eps]])
        report = neutreno_fixed_point(np.array([[1.0], [-1.0]]), a, 3e-4)
        assert not report.spectral_ok

    def test_rejects_non_stochastic_transition(self):
        rows_off = np.array([[0.5, 0.6], [0.5, 0.5]])
        with pytest.raises(ValueError, match="transition matrix"):
            neutreno_fixed_point(np.array([[0.0], [1.0]]), rows_off, 0.5)


class TestFixedPointSeparation:
    def test_hand_instance_margin(self):
        """u* = (1/3, 2/3) gives margin 1/3 for the single anchored pair."""
        anchor = np.array([[0.0], [1.0]])
        report = fixed_point_separation(anchor, UNIFORM_2, 0.5)
        assert report.min_margin == pytest.approx(1 / 3, abs=1e-14)
        assert report.worst_pair == (0, 1)
        assert report.separated

    def test_margin_shrinks_as_lambda_vanishes(self):
        """Continuity sweep: the margin heads to 0 with the anchor weight
        (trend recorded, endpoints asserted)."""
        rng = np.random.default_rng(101)
        a = random_chain(rng, 6)
        anchor = rng.normal(size=(6, 2))
        lams = [0.6, 0.3, 0.1, 0.03, 0.01, 1e-3, 1e-5]
        margins = [fixed_point_separation(anchor, a, lam).min_margin for lam in lams]
        assert margins[-1] < margins[0] * 1e-3
        assert margins[-1] < 1e-3

    def test_random_instances_strictly_separated(self):
        rng = np.random.default_rng(102)
        for _ in range(15):
            n = int(rng.integers(2, 10))
            a = random_chain(rng, n)
            anchor = rng.normal(size=(n, 3))
            report = fixed_point_separation(anchor, a, 0.4)
            if report.fixed_point.spectral_ok:
                assert report.min_margin > 1e-10

    def test_pairs_with_equal_anchor_rows_are_ignored(self):
        anchor = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        rng = np.random.default_rng(103)
        report = fixed_point_separation(anchor, random_chain(rng, 3), 0.5)
        assert set(report.margins) == {(0, 2), (1, 2)}

    def test_constant_anchor_rejected(self):
        anchor = np.tile([1.0, 1.0], (3, 1))
        rng = np.random.default_rng(104)
        with pytest.raises(ValueError, match="identical"):
            fixed_point_separation(anchor, random_chain(rng, 3), 0.5)
