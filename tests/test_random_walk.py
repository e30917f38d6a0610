import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neutreno import random_walk

from neutreno.attention import attention_matrix
from neutreno.linalg import _BLOCK_ENTRIES, max_pairwise_distance, substream
from neutreno.random_walk import (
    ConvergenceError,
    is_transition_matrix,
    iterate_state,
    limit_vector,
    stationary_closed_form,
    stationary_power_iteration,
    transition_from_scores,
    walk_sample_stats,
)

HAND_CHAIN = np.array([[0.9, 0.1], [0.5, 0.5]])


def random_chain(rng, n, d_qk=3):
    keys = rng.normal(scale=0.5, size=(n, d_qk))
    return transition_from_scores(keys, keys), keys


class TestTransitionFromScores:
    def test_zero_keys_give_uniform(self):
        a = transition_from_scores(np.zeros((4, 2)), np.zeros((4, 2)))
        np.testing.assert_allclose(a, 0.25)

    def test_hand_computed(self):
        q = np.array([[1.0], [0.0]])
        k = np.array([[0.0], [math.log(4.0)]])
        np.testing.assert_allclose(
            transition_from_scores(q, k), [[0.2, 0.8], [0.5, 0.5]], atol=1e-15
        )

    def test_identical_to_attention_matrix(self):
        rng = np.random.default_rng(70)
        q, k = rng.normal(size=(2, 5, 3))
        np.testing.assert_array_equal(
            transition_from_scores(q, k), attention_matrix(q, k)
        )

    def test_is_transition_matrix(self):
        rng = np.random.default_rng(71)
        a, _ = random_chain(rng, 6)
        assert is_transition_matrix(a)
        assert not is_transition_matrix(np.ones((2, 2)))


class TestIterateState:
    def test_zero_steps_returns_input(self):
        rng = np.random.default_rng(72)
        a, _ = random_chain(rng, 3)
        v0 = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(iterate_state(v0, a, 0), v0)

    def test_uniform_chain_reaches_mean_in_one_step(self):
        v0 = np.array([[1.0, 0.0], [3.0, 2.0]])
        out = iterate_state(v0, np.full((2, 2), 0.5), 1)
        np.testing.assert_allclose(out, [[2.0, 1.0], [2.0, 1.0]])

    def test_hand_computed_two_steps(self):
        """A^2 (1, 0)^T = (0.86, 0.70)^T for the hand chain."""
        v0 = np.array([[1.0], [0.0]])
        out = iterate_state(v0, HAND_CHAIN, 2)
        np.testing.assert_allclose(out, [[0.86], [0.70]], atol=1e-15)

    def test_diameter_nonincreasing(self):
        rng = np.random.default_rng(73)
        a, _ = random_chain(rng, 7)
        state = rng.normal(size=(7, 3))
        prev = max_pairwise_distance(state)
        for _ in range(40):
            state = iterate_state(state, a, 1)
            cur = max_pairwise_distance(state)
            assert cur <= prev + 1e-12
            prev = cur


class TestStationaryClosedForm:
    def test_equal_keys_give_uniform(self):
        keys = np.tile([0.4, -1.0], (5, 1))
        np.testing.assert_allclose(stationary_closed_form(keys), 0.2)

    def test_hand_computed_two_keys(self):
        """d = (2, 1 + e); pi = d / sum(d)."""
        keys = np.array([[0.0], [1.0]])
        d = np.array([2.0, 1.0 + math.e])
        np.testing.assert_allclose(
            stationary_closed_form(keys), d / d.sum(), atol=1e-15
        )

    def test_left_eigenvector_residual(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            a, keys = random_chain(rng, n)
            pi = stationary_closed_form(keys)
            assert np.abs(pi @ a - pi).sum() <= 1e-10

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(75)
        for _ in range(10):
            a, keys = random_chain(rng, int(rng.integers(2, 10)))
            closed = stationary_closed_form(keys)
            powered = stationary_power_iteration(a, tol=1e-13)
            np.testing.assert_allclose(closed, powered, atol=1e-9)


class TestStationaryPowerIteration:
    def test_uniform_chain(self):
        np.testing.assert_allclose(
            stationary_power_iteration(np.full((4, 4), 0.25)), 0.25, atol=1e-12
        )

    def test_hand_chain(self):
        """Balance equation 0.1 pi_1 = 0.5 pi_2 gives pi = (5/6, 1/6)."""
        pi = stationary_power_iteration(HAND_CHAIN, tol=1e-14)
        np.testing.assert_allclose(pi, [5 / 6, 1 / 6], atol=1e-12)

    def test_doubly_stochastic_gives_uniform(self):
        a = np.array([[0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6]])
        np.testing.assert_allclose(
            stationary_power_iteration(a), 1 / 3, atol=1e-11
        )

    def test_unique_limit_from_any_start(self):
        # the solver starts uniform; iterating from a skewed start must
        # land on the same distribution
        rng = np.random.default_rng(76)
        a, _ = random_chain(rng, 6)
        pi = stationary_power_iteration(a, tol=1e-13)
        skewed = np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02])
        for _ in range(2000):
            skewed = skewed @ a
            skewed /= skewed.sum()
        np.testing.assert_allclose(pi, skewed, atol=1e-9)

    def test_nonconvergence_carries_residual(self):
        with pytest.raises(ConvergenceError) as exc:
            stationary_power_iteration(HAND_CHAIN, tol=1e-30, max_iters=3)
        assert exc.value.residual > 0


class TestLimitVector:
    def test_uniform_weights_give_column_mean(self):
        rng = np.random.default_rng(77)
        v0 = rng.normal(size=(4, 3))
        np.testing.assert_allclose(
            limit_vector(np.full(4, 0.25), v0), v0.mean(axis=0)
        )

    def test_point_mass_selects_row(self):
        rng = np.random.default_rng(78)
        v0 = rng.normal(size=(3, 2))
        np.testing.assert_allclose(limit_vector([1.0, 0.0, 0.0], v0), v0[0])

    def test_long_iteration_approaches_limit(self):
        rng = np.random.default_rng(79)
        a, keys = random_chain(rng, 8)
        v0 = rng.normal(size=(8, 4))
        v_bar = limit_vector(stationary_closed_form(keys), v0)
        final = iterate_state(v0, a, 200)
        assert np.abs(final - v_bar[None, :]).max() <= 1e-8


class TestSampleRandomWalk:
    def test_zero_steps_returns_start_value(self):
        rng = np.random.default_rng(80)
        a, _ = random_chain(rng, 4)
        v0 = rng.normal(size=(4, 3))
        out = walk_sample_stats(v0, a, 0, start=2, n_samples=50, seed=1).mean
        np.testing.assert_array_equal(out, v0[2])

    def test_near_deterministic_chain(self):
        # rows concentrated enough that every sampled path is the modal one
        eps = 1e-12
        a = np.array([[eps, 1 - eps], [eps, 1 - eps]])
        v0 = np.array([[5.0], [-3.0]])
        out = walk_sample_stats(v0, a, 1, start=0, n_samples=500, seed=2).mean
        np.testing.assert_allclose(out, [-3.0])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(81)
        a, _ = random_chain(rng, 5)
        v0 = rng.normal(size=(5, 2))
        one = walk_sample_stats(v0, a, 3, 1, 1000, seed=42).mean
        two = walk_sample_stats(v0, a, 3, 1, 1000, seed=42).mean
        np.testing.assert_array_equal(one, two)
        other = walk_sample_stats(v0, a, 3, 1, 1000, seed=43).mean
        assert np.any(one != other)

    def test_mean_matches_iteration_within_band(self):
        """Monte-Carlo mean vs exact iteration, 4 standard errors."""
        rng = np.random.default_rng(82)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            a, _ = random_chain(rng, n)
            v0 = rng.normal(size=(n, int(rng.integers(1, 4))))
            k = int(rng.integers(1, 6))
            start = int(rng.integers(0, n))
            stats = walk_sample_stats(v0, a, k, start, 100_000, seed=trial)
            expected = iterate_state(v0, a, k)[start]
            assert np.all(np.abs(stats.mean - expected) <= 4 * stats.stderr + 1e-15)

    def test_rejects_bad_start(self):
        rng = np.random.default_rng(83)
        a, _ = random_chain(rng, 3)
        with pytest.raises(ValueError):
            walk_sample_stats(np.zeros((3, 1)), a, 1, start=3, n_samples=1, seed=0)


def compare_and_count_walk(v0, a, steps, start, uniforms):
    """Reference: each step counts the cumulative thresholds of the
    current row below the walk's draw, clipped to the last state, through
    a (walks, N) gather of at most 4096 walks at a time; returns the mean
    and standard error."""
    if steps == 0:
        return v0[start], np.zeros(v0.shape[1])
    cumulative = np.cumsum(a, axis=1)
    states = np.full(len(uniforms), start)
    for first in range(0, len(uniforms), 4096):
        walks = slice(first, first + 4096)
        for t in range(steps):
            counts = (cumulative[states[walks]] < uniforms[walks, t : t + 1]).sum(axis=1)
            states[walks] = np.minimum(counts, a.shape[0] - 1)
    payouts = v0[states]
    stderr = (payouts.std(axis=0, ddof=1) / np.sqrt(len(uniforms)) if len(uniforms) > 1
              else np.zeros(v0.shape[1]))
    return payouts.mean(axis=0), stderr


class FixedDraws:
    """Stands in for ``substream``: each call returns a fresh stream over a
    given uniform block, read row by row in C order."""

    def __init__(self, draws):
        self.draws = draws

    def __call__(self, seed, *key):
        return FixedStream(self.draws)


class FixedStream:
    """Hands out consecutive draws of a block, as ``Generator.random``
    does one PCG64 output per double; ``advance`` skips draws."""

    def __init__(self, draws):
        self.flat = draws.ravel()
        self.used = 0
        self.bit_generator = self

    def advance(self, delta):
        self.used += delta

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        assert self.used + out.size <= self.flat.size, "read past the block"
        out[...] = self.flat[self.used:self.used + out.size].reshape(out.shape)
        self.used += out.size
        return out


def bucket_edges(n):
    """The edges b / G of the walk's guide-table buckets for N = ``n``
    (G = 16 times the power of two at or above ``n``) and their float64
    neighbours, all below 1."""
    size = 16 << (n - 1).bit_length()
    edges = np.arange(size) / size
    pool = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)])
    return pool[(pool >= 0.0) & (pool < 1.0)]


class TestWalkBisection:
    """``walk_sample_stats`` finds each jump through a guide table over
    [0, 1), bisecting within a bucket that holds thresholds; it must land
    every walk where counting the thresholds does.  (The name is from when
    every jump was found by bisection over a padded row.)"""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 70), st.sampled_from([1, 2, 4, 8, 16, 32, 64])),
        steps=st.integers(0, 4),
        scale=st.sampled_from([0.5, 3.0, 6.0, 20.0, 60.0]),
        short_rows=st.booleans(),
        tied_draws=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_compare_and_count(self, n, steps, scale, short_rows, tied_draws,
                                       seed):
        rng = np.random.default_rng(seed)
        keys = rng.normal(scale=scale, size=(n, 3))
        # large keys crowd a row's thresholds into a few buckets, or
        # underflow entries to 0, which the walk rejects
        a = transition_from_scores(keys, keys)
        if not is_transition_matrix(a):
            return
        if short_rows:
            # rows summing to about 1 - 1e-13: a draw above the sum counts
            # every threshold and is clipped to the last state
            a = a * (1.0 - 1e-13)
        # one-hot payouts make the mean the histogram of the final states
        v0 = np.hstack([np.eye(n), rng.normal(size=(n, 1))])
        samples = 64
        for start in range(n):
            if tied_draws:
                # draws equal to a threshold or a bucket edge, one ulp either
                # side of one, or above the rounded row sum
                cumulative = np.cumsum(a, axis=1).ravel()
                pool = np.concatenate([cumulative, np.nextafter(cumulative, 0.0),
                                       np.nextafter(cumulative, 2.0), bucket_edges(n),
                                       [0.0, np.nextafter(1.0, 0.0)]])
                draws = rng.choice(pool[pool < 1.0], size=(samples, steps))
                with mock.patch.object(random_walk, "substream", FixedDraws(draws)):
                    stats = walk_sample_stats(v0, a, steps, start, samples, seed)
            else:
                draws = substream(seed, start, steps).random((samples, steps))
                stats = walk_sample_stats(v0, a, steps, start, samples, seed)
            mean, stderr = compare_and_count_walk(v0, a, steps, start, draws)
            assert (stats.mean == mean).all()
            assert (stats.stderr == stderr).all()

    def test_dyadic_thresholds_on_bucket_edges(self):
        # every threshold is a multiple of 1/8, so it is a bucket edge, and
        # each draw is an edge or one ulp from one
        a = np.array([[0.25, 0.25, 0.5], [0.5, 0.25, 0.25], [0.125, 0.375, 0.5]])
        v0 = np.hstack([np.eye(3), [[1.0], [-2.0], [0.5]]])
        edges = bucket_edges(3)
        draws = np.stack([edges, edges[::-1]], axis=1)
        for start in range(3):
            with mock.patch.object(random_walk, "substream", FixedDraws(draws)):
                stats = walk_sample_stats(v0, a, 2, start, len(draws), seed=0)
            mean, stderr = compare_and_count_walk(v0, a, 2, start, draws)
            assert stats.mean.tobytes() == mean.tobytes()
            assert stats.stderr.tobytes() == stderr.tobytes()

    def test_draw_above_row_sum_lands_on_last_state(self):
        a = np.array([[0.5, 0.5 - 1e-13], [0.5, 0.5]])
        assert np.cumsum(a[0])[-1] < np.nextafter(1.0, 0.0)
        v0 = np.array([[5.0], [-3.0]])
        draws = np.full((3, 1), np.nextafter(1.0, 0.0))
        with mock.patch.object(random_walk, "substream", FixedDraws(draws)):
            stats = walk_sample_stats(v0, a, 1, 0, 3, seed=0)
        np.testing.assert_array_equal(stats.mean, [-3.0])

    def test_memory_does_not_scale_with_states(self):
        # an (n_samples, N) gather of the thresholds would be 98 MiB here;
        # the uniform block itself is 4.6 MiB
        rng = np.random.default_rng(84)
        a, _ = random_chain(rng, 64)
        v0 = rng.normal(size=(64, 1))
        tracemalloc.start()
        try:
            walk_sample_stats(v0, a, 3, 0, 200_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_table_build_holds_little_beside_the_table(self):
        # at N = 1000 the guide table is 1000 rows of 16 385 two-byte
        # entries (31.3 MiB) and the thresholds 7.6 MiB; the build works
        # through it a few rows at a time, and 10 walks need small buffers
        n = 1000
        rng = np.random.default_rng(87)
        a, _ = random_chain(rng, n)
        v0 = rng.normal(size=(n, 1))
        tracemalloc.start()
        try:
            walk_sample_stats(v0, a, 3, 0, 10, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table, thresholds = n * (16 * 1024 + 1) * 2, a.nbytes
        assert peak < table + thresholds + 2**20


@pytest.fixture
def fast_switching():
    """Threads hand over the interpreter lock every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def on_cpus(cpus):
    """Patch the affinity call to allow ``cpus`` CPUs."""
    return mock.patch("os.sched_getaffinity", return_value=set(range(cpus)))


class TestSplitWalk:
    """``walk_sample_stats`` splits the walks into one share per allowed
    CPU and each share into blocks of ``_BLOCK_ENTRIES`` walks; walk ``w``
    must still consume row ``w`` of the one uniform block."""

    @pytest.mark.parametrize("steps", range(5))
    @pytest.mark.parametrize("n_samples", [1, _BLOCK_ENTRIES - 1, _BLOCK_ENTRIES,
                                           _BLOCK_ENTRIES + 1, 2 * _BLOCK_ENTRIES + 1,
                                           200_000])
    def test_same_bytes_at_any_cpu_count(self, n_samples, steps, fast_switching):
        rng = np.random.default_rng([n_samples, steps])
        for n, scale in [(1, 0.5), (5, 3.0), (64, 0.5), (70, 3.0)]:
            keys = rng.normal(scale=scale, size=(n, 3))
            a = transition_from_scores(keys, keys)
            v0 = rng.normal(size=(n, 2))
            start, seed = int(rng.integers(0, n)), int(rng.integers(2**31))
            draws = substream(seed, start, steps).random((n_samples, steps))
            expected = compare_and_count_walk(v0, a, steps, start, draws)
            for cpus in (1, 2, 3):
                threads = threading.active_count()
                with on_cpus(cpus), mock.patch.object(random_walk, "substream",
                                                      wraps=substream) as streams:
                    stats = walk_sample_stats(v0, a, steps, start, n_samples, seed)
                assert threading.active_count() == threads
                assert stats.mean.tobytes() == expected[0].tobytes()
                assert stats.stderr.tobytes() == expected[1].tobytes()
                # one stream per share, and no share without a full block
                shares = min(cpus, max(1, n_samples // _BLOCK_ENTRIES))
                assert streams.call_count == (shares if steps else 0)

    @pytest.mark.parametrize("steps", [1, 3, 4])
    def test_advanced_generator_reproduces_the_tail(self, steps):
        # numpy's Generator.random spends one 64-bit PCG64 output per
        # double, so skipping lo * steps outputs lands on row lo
        block = substream(7, 2, steps).random((1000, steps))
        for lo in (0, 1, 333, 999):
            rng = substream(7, 2, steps)
            rng.bit_generator.advance(lo * steps)
            pieces = [rng.random((min(100, 1000 - first), steps))
                      for first in range(lo, 1000, 100)]
            assert np.concatenate(pieces).tobytes() == block[lo:].tobytes()

    @pytest.mark.parametrize("failing", ["caller", "worker", "both"])
    def test_failing_share_raises_on_the_caller(self, failing):
        rng = np.random.default_rng(85)
        a, _ = random_chain(rng, 6)
        v0 = rng.normal(size=(6, 1))
        draws = rng.random((2 * _BLOCK_ENTRIES, 3))
        caller = threading.current_thread()

        class FailingStream(FixedStream):
            def random(self, size=None, out=None):
                side = "caller" if threading.current_thread() is caller else "worker"
                if failing in (side, "both"):
                    raise RuntimeError(f"share on the {side} failed")
                return super().random(size, out)

        # the first failure in share order is raised: the caller's share
        raised = "caller" if failing == "both" else failing
        threads = threading.active_count()
        with on_cpus(2), mock.patch.object(random_walk, "substream",
                                           lambda *key: FailingStream(draws)):
            with pytest.raises(RuntimeError, match=f"share on the {raised} failed"):
                walk_sample_stats(v0, a, 3, 0, len(draws), seed=0)
        assert threading.active_count() == threads

    def test_worker_share_runs_while_the_caller_walks(self):
        # each share is one block; each side marks its start, then waits
        # for the other's, so a worker started after the caller's share
        # times out the caller's wait
        rng = np.random.default_rng(86)
        a, _ = random_chain(rng, 6)
        v0 = rng.normal(size=(6, 1))
        draws = rng.random((2 * _BLOCK_ENTRIES, 3))
        caller = threading.current_thread()
        started = {True: threading.Event(), False: threading.Event()}
        met = {}

        class MeetingStream(FixedStream):
            def random(self, size=None, out=None):
                on_caller = threading.current_thread() is caller
                started[on_caller].set()
                met[on_caller] = started[not on_caller].wait(timeout=10)
                return super().random(size, out)

        with on_cpus(2), mock.patch.object(random_walk, "substream",
                                           lambda *key: MeetingStream(draws)):
            stats = walk_sample_stats(v0, a, 3, 0, len(draws), seed=0)
        assert met == {True: True, False: True}
        mean, stderr = compare_and_count_walk(v0, a, 3, 0, draws)
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.stderr.tobytes() == stderr.tobytes()
