import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neutreno import attention, stack
from neutreno.attention import (
    NeutrenoParams,
    exp_score_kernel,
    neutreno_attention,
    softmax_attention,
)
from neutreno.dynamics import DEFAULT_OVERFLOW_BOUND
from neutreno.functional import nonlocal_energy
from neutreno.linalg import max_pairwise_distance, pairwise_cosine_mean
from neutreno.stack import StackConfig, StackModel, forward, init_stack

VARIANT_LAMBDAS = [("softmax", 0.0), ("symmetric", 0.0),
                   ("neutreno", 0.0), ("neutreno", 0.6)]

WEIGHTS = ("w_q", "w_k", "w_v")

SEED = 7


def make_config(**overrides):
    base = dict(layers=4, input_dim=6, key_dim=5, value_dim=6)
    base.update(overrides)
    return StackConfig(**base)


def project(x, w):
    """Tokens ``x`` projected by one layer's weights ``w``."""
    return x @ w.T


class TestInitStack:
    def test_deterministic(self):
        a = init_stack(make_config(), SEED)
        b = init_stack(make_config(), SEED)
        for name in WEIGHTS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_variants_share_weights_for_same_seed(self):
        plain = init_stack(make_config(variant="softmax"), SEED)
        for variant in ("symmetric", "neutreno"):
            other = init_stack(make_config(variant=variant, lambda_tilde=0.6), SEED)
            for name in WEIGHTS:
                np.testing.assert_array_equal(getattr(plain, name), getattr(other, name))

    def test_model_checks_weight_shapes_against_config(self):
        config = make_config()
        model = init_stack(config, SEED)
        assert model.w_q.shape == model.w_k.shape == (4, 5, 6)
        assert model.w_v.shape == (4, 6, 6)
        weights = {name: getattr(model, name) for name in WEIGHTS}
        for name, bad in [("w_q", np.zeros((3, 5, 6))), ("w_k", np.zeros((4, 6, 6))),
                          ("w_v", np.zeros((4, 6, 5)))]:
            with pytest.raises(ValueError, match=name):
                StackModel(config, **{**weights, name: bad})

    def test_seed_sequence_stacks_the_single_seed_draws(self):
        config = make_config()
        seeds = [3, 7, 2**40, 3]
        model = init_stack(config, seeds)
        for name in WEIGHTS:
            weights = getattr(model, name)
            assert weights.shape == (len(seeds), *getattr(init_stack(config, 0), name).shape)
            for unit, seed in enumerate(seeds):
                np.testing.assert_array_equal(weights[unit],
                                              getattr(init_stack(config, seed), name))

    def test_model_rejects_disagreeing_seed_axes(self):
        config = make_config()
        model = init_stack(config, [1, 2, 3])
        weights = {name: getattr(model, name) for name in WEIGHTS}
        for name in WEIGHTS:
            for bad in (weights[name][:2], weights[name][0]):
                with pytest.raises(ValueError, match="seed axes"):
                    StackModel(config, **{**weights, name: bad})
        with pytest.raises(ValueError, match="w_q shape"):
            StackModel(config, **{name: w[None] for name, w in weights.items()})

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ValueError, match="at least one seed"):
            init_stack(make_config(), [])

    def test_rejects_degenerate_configs(self):
        with pytest.raises(ValueError):
            make_config(init_scale=0.0)
        with pytest.raises(ValueError):
            make_config(layers=0)
        with pytest.raises(ValueError):
            make_config(value_dim=3)  # must equal input_dim for layers > 1
        with pytest.raises(ValueError):
            make_config(variant="banana")
        with pytest.raises(ValueError):
            make_config(variant="neutreno", lambda_tilde=-0.2)

    def test_single_layer_may_change_width(self):
        config = make_config(layers=1, value_dim=3)
        model = init_stack(config, SEED)
        out, _ = forward(model, np.random.default_rng(1).normal(size=(4, 6)))
        assert out.shape == (4, 3)

    def test_single_layer_records_states_of_both_widths(self):
        # record 0 holds the (4, 6) input and record 1 the (4, 3) output, for
        # one seed and for each unit of an ensemble
        config = make_config(layers=1, value_dim=3)
        x0 = np.random.default_rng(1).normal(size=(2, 4, 6))
        out, trace = forward(init_stack(config, SEED), x0[0], record_states=True)
        assert [rec.state.shape for rec in trace] == [(4, 6), (4, 3)]
        assert same_bits(trace[0].state, x0[0]) and same_bits(trace[1].state, out)
        traces = assert_batch_matches_units(init_stack(config, [SEED, SEED + 1]), x0)
        for trace in traces:
            assert [rec.state.shape for rec in trace] == [(4, 6), (4, 3)]


class TestForward:
    def test_single_layer_softmax_is_plain_attention(self):
        config = make_config(layers=1)
        model = init_stack(config, SEED)
        x0 = np.random.default_rng(2).normal(size=(5, 6))
        out, trace = forward(model, x0)
        q, k, v = (project(x0, getattr(model, name)[0]) for name in WEIGHTS)
        np.testing.assert_array_equal(out, softmax_attention(q, k, v))
        assert len(trace) == 2

    @pytest.mark.parametrize("residual", [False, True])
    def test_symmetric_variant_ties_keys_to_queries(self, residual):
        # a symmetric model is a softmax model whose key weights are its
        # query weights
        x0 = np.random.default_rng(9).normal(size=(7, 6))
        symmetric = init_stack(make_config(variant="symmetric", residual=residual), SEED)
        tied = replace(symmetric, config=replace(symmetric.config, variant="softmax"),
                       w_k=symmetric.w_q)
        sym_out, sym_trace = forward(symmetric, x0, record_states=True)
        tied_out, tied_trace = forward(tied, x0, record_states=True)
        np.testing.assert_array_equal(sym_out, tied_out)
        assert len(sym_trace) == len(tied_trace)
        for a, b in zip(sym_trace, tied_trace):
            np.testing.assert_array_equal([a.j_value, a.mean_cosine, a.max_pairwise],
                                          [b.j_value, b.mean_cosine, b.max_pairwise])
            np.testing.assert_array_equal(a.state, b.state)

    def test_zero_lambda_neutreno_matches_softmax_bitwise(self):
        x0 = np.random.default_rng(3).normal(size=(6, 6))
        plain_out, plain_trace = forward(init_stack(make_config(variant="softmax"), SEED), x0)
        anchored_out, anchored_trace = forward(
            init_stack(make_config(variant="neutreno", lambda_tilde=0.0), SEED), x0
        )
        np.testing.assert_array_equal(plain_out, anchored_out)
        for a, b in zip(plain_trace, anchored_trace):
            assert (a.j_value, a.mean_cosine, a.max_pairwise) == \
                   (b.j_value, b.mean_cosine, b.max_pairwise)

    def test_deterministic_forward(self):
        x0 = np.random.default_rng(4).normal(size=(5, 6))
        model = init_stack(make_config(variant="neutreno", lambda_tilde=0.6), SEED)
        out1, _ = forward(model, x0)
        out2, _ = forward(model, x0)
        np.testing.assert_array_equal(out1, out2)

    @pytest.mark.parametrize("variant,lam", [("softmax", 0.0), ("symmetric", 0.0),
                                             ("neutreno", 0.6)])
    def test_permutation_equivariance(self, variant, lam):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(7, 6))
        perm = rng.permutation(7)
        model = init_stack(make_config(variant=variant, lambda_tilde=lam), SEED)
        base, _ = forward(model, x0)
        permuted, _ = forward(model, x0[perm])
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_residual_changes_output(self):
        x0 = np.random.default_rng(6).normal(size=(4, 6))
        off, _ = forward(init_stack(make_config(), SEED), x0)
        on, _ = forward(init_stack(make_config(residual=True), SEED), x0)
        assert np.any(off != on)

    def test_trace_metrics_present_per_layer(self):
        x0 = np.random.default_rng(8).normal(size=(5, 6))
        _, trace = forward(init_stack(make_config(layers=3), SEED), x0)
        assert [rec.step for rec in trace] == [0, 1, 2, 3]
        for rec in trace:
            assert np.isfinite(rec.j_value)
            assert np.isfinite(rec.mean_cosine)
            assert rec.max_pairwise >= 0.0
            assert not rec.diverged

    def test_input_shape_checked(self):
        model = init_stack(make_config(), SEED)
        with pytest.raises(ValueError):
            forward(model, np.zeros((4, 5)))


def reference_forward(model, x0):
    """The layer loop written out with the public attention functions and
    metrics, one call per quantity; returns the output state and one
    (j, cosine, diameter, diverged, state) tuple per record."""
    cfg = model.config
    state = np.asarray(x0, dtype=np.float64)
    records = []

    def record(state, kernel):
        diverged = bool(records) and records[-1][3]
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(state).all():
                records.append((math.nan, math.nan, math.nan, True, state))
                return
            diverged = diverged or bool(np.abs(state).max() > DEFAULT_OVERFLOW_BOUND)
            j = nonlocal_energy(state, kernel)
            diameter = max_pairwise_distance(state)
            if np.any(np.linalg.norm(state, axis=1) == 0.0):
                cos = math.nan
            else:
                cos = pairwise_cosine_mean(state)
        records.append((j, cos, diameter, diverged, state))

    for index in range(cfg.layers):
        q = project(state, model.w_q[index])
        k = q if cfg.variant == "symmetric" else project(state, model.w_k[index])
        v = project(state, model.w_v[index])
        with np.errstate(over="ignore"):
            kernel = exp_score_kernel(q, k)
        if index == 0:
            record(state, kernel)
            first_layer_values = v
        if cfg.variant == "neutreno":
            params = NeutrenoParams(cfg.lambda_tilde, first_layer_values)
            out = neutreno_attention(q, k, v, params)
        else:
            out = softmax_attention(q, k, v)
        state = out + state if cfg.residual else out
        record(state, kernel)
        if not np.isfinite(state).all() or np.abs(state).max() > 1e150:
            break
    return state, records


def same_bits(x, y):
    """Whether two arrays hold the same bytes: -0.0 differs from 0.0, and a
    NaN equals only a NaN with the same payload."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.dtype, x.shape) == (y.dtype, y.shape) and x.tobytes() == y.tobytes()


def assert_matches_reference(model, x0):
    out, trace = forward(model, x0, record_states=True)
    ref_out, ref_records = reference_forward(model, x0)
    assert same_bits(out, ref_out)
    assert len(trace) == len(ref_records)
    for step, (rec, (j, cos, diameter, diverged, state)) in enumerate(
            zip(trace, ref_records)):
        assert rec.step == step
        # by value: the reference writes an undefined metric as math.nan,
        # whose sign bit differs from that of a computed 0 / 0
        np.testing.assert_array_equal(
            [rec.j_value, rec.mean_cosine, rec.max_pairwise], [j, cos, diameter])
        assert rec.diverged == diverged
        assert same_bits(rec.state, state)
    return trace


class TestForwardMatchesReference:
    """``forward`` computes the scores once per layer and shares them
    between the softmax and the energy kernel; its output and every trace
    field must equal the per-call reference bit for bit."""

    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("variant,lam", [("softmax", 0.0), ("symmetric", 0.0),
                                             ("neutreno", 0.0), ("neutreno", 0.6)])
    def test_variants(self, variant, lam, residual):
        x0 = np.random.default_rng(20).normal(size=(9, 6))
        model = init_stack(make_config(layers=6, variant=variant, lambda_tilde=lam,
                                       residual=residual), SEED)
        assert_matches_reference(model, x0)

    @pytest.mark.parametrize("layers", [60, 300])
    @pytest.mark.parametrize("variant,lam", [("softmax", 0.0), ("symmetric", 0.0),
                                             ("neutreno", 0.6)])
    def test_overflowing_residual_stack(self, variant, lam, layers):
        config = StackConfig(layers=layers, input_dim=8, key_dim=8, value_dim=8,
                             variant=variant, lambda_tilde=lam, residual=True,
                             init_scale=5.0)
        x0 = np.random.default_rng(21).normal(size=(16, 8))
        trace = assert_matches_reference(init_stack(config, 3), x0)
        # the state passes the overflow bound and saturates the kernel to
        # inf (non-finite energies) within 60 layers; past 1e150, about 220
        # layers in, the run stops early
        assert trace.diverged
        assert not np.isfinite(trace.final.j_value)
        assert (len(trace) < layers + 1) == (layers == 300)

    def test_fortran_ordered_input(self):
        # record 0 holds a C-ordered copy of the input; from 8 features on,
        # the order of the sum over D follows the memory layout, so its
        # metrics must be computed on that copy
        rng = np.random.default_rng(26)
        for _ in range(10):
            n, d = int(rng.integers(2, 40)), int(rng.integers(8, 40))
            model = init_stack(make_config(layers=2, input_dim=d, value_dim=d), SEED)
            x0 = np.asfortranarray(rng.normal(size=(n, d)))
            _, trace = forward(model, x0, record_states=True)
            q, k = project(x0, model.w_q[0]), project(x0, model.w_k[0])
            record = trace[0]
            assert record.j_value == nonlocal_energy(record.state, exp_score_kernel(q, k))
            assert record.max_pairwise == max_pairwise_distance(record.state)

    @pytest.mark.parametrize("variant", stack.VARIANTS)
    def test_scores_computed_once_per_layer(self, variant):
        model = init_stack(make_config(layers=5, variant=variant, lambda_tilde=0.6), SEED)
        x0 = np.random.default_rng(22).normal(size=(7, 6))
        spy = mock.Mock(wraps=attention.scaled_scores)
        with mock.patch.object(attention, "scaled_scores", spy), \
                mock.patch.object(stack, "scaled_scores", spy):
            forward(model, x0)
        assert spy.call_count == 5


def ensemble(units, **config):
    """A model of ``units`` seeds under ``config``."""
    return init_stack(StackConfig(**config), [100 + unit for unit in range(units)])


def unit_model(model, unit):
    """Seed ``unit`` of an ensemble as a model of its own."""
    return StackModel(model.config, model.w_q[unit], model.w_k[unit], model.w_v[unit])


def assert_batch_matches_units(model, x0):
    """The batched ``forward`` equals a loop of 2-D calls on the units of
    ``model``, bit for bit, in the output and every trace field (as
    bytes, so the sign of a zero and a NaN's payload count)."""
    out, traces = forward(model, x0, record_states=True)
    assert out.shape[0] == len(traces) == len(model.w_q)
    for unit, (x, unit_out, trace) in enumerate(zip(x0, out, traces)):
        ref_out, ref_trace = forward(unit_model(model, unit), x, record_states=True)
        assert same_bits(unit_out, ref_out)
        assert len(trace) == len(ref_trace)
        for rec, ref in zip(trace, ref_trace):
            assert (rec.step, rec.diverged) == (ref.step, ref.diverged)
            assert same_bits([rec.j_value, rec.mean_cosine, rec.max_pairwise],
                             [ref.j_value, ref.mean_cosine, ref.max_pairwise])
            assert same_bits(rec.state, ref.state)
    return traces


class TestBatchedForward:
    """``forward`` over S seed units of (N, D) tokens is the 2-D path run
    on a stack: batched ``@`` makes one product per unit, so every bit
    must match the unit run alone."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        units=st.integers(1, 6),
        n=st.integers(1, 24),
        d=st.integers(1, 8),
        key_dim=st.integers(1, 8),
        variant_lam=st.sampled_from(VARIANT_LAMBDAS),
        residual=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_unit_loop(self, units, n, d, key_dim, variant_lam, residual, seed):
        variant, lam = variant_lam
        model = ensemble(units, layers=4, input_dim=d, key_dim=key_dim, value_dim=d,
                         variant=variant, lambda_tilde=lam, residual=residual)
        x0 = np.random.default_rng(seed).normal(size=(units, n, d))
        assert_batch_matches_units(model, x0)

    def test_units_stop_at_different_layers(self):
        model = ensemble(4, layers=300, input_dim=8, key_dim=8, value_dim=8,
                         variant="neutreno", lambda_tilde=0.6, residual=True,
                         init_scale=5.0)
        x0 = np.random.default_rng(23).normal(size=(4, 16, 8))
        traces = assert_batch_matches_units(model, x0)
        lengths = [len(trace) for trace in traces]
        assert max(lengths) < 301
        assert len(set(lengths)) > 1
        assert all(trace.diverged for trace in traces)

    def test_zero_row_gives_nan_cosine_in_its_unit_only(self):
        model = init_stack(make_config(), [1, 2, 3])
        x0 = np.random.default_rng(24).normal(size=(3, 5, 6))
        x0[1, 2] = 0.0
        traces = assert_batch_matches_units(model, x0)
        assert math.isnan(traces[1][0].mean_cosine)
        assert not math.isnan(traces[0][0].mean_cosine)
        assert not math.isnan(traces[2][0].mean_cosine)
        assert all(np.isfinite(trace[0].j_value) for trace in traces)

    def test_zero_lambda_matches_softmax_bitwise(self):
        x0 = np.random.default_rng(25).normal(size=(5, 6, 6))
        plain_out, plain = forward(ensemble(5, layers=4, input_dim=6, key_dim=5,
                                            value_dim=6), x0)
        anchored_out, anchored = forward(
            ensemble(5, layers=4, input_dim=6, key_dim=5, value_dim=6,
                     variant="neutreno", lambda_tilde=0.0), x0)
        np.testing.assert_array_equal(plain_out, anchored_out)
        for a_trace, b_trace in zip(plain, anchored):
            for a, b in zip(a_trace, b_trace):
                assert (a.j_value, a.mean_cosine, a.max_pairwise) == \
                       (b.j_value, b.mean_cosine, b.max_pairwise)

    def test_non_finite_scores_name_the_unit(self):
        # unit 0 has zero scores and grows by 1e100 a layer, so it stops
        # after two layers; unit 1 grows by 11 a layer and its scores,
        # scaled by 1e200, overflow about 50 layers in, when it is the only
        # active unit
        config = StackConfig(layers=60, input_dim=2, key_dim=2, value_dim=2,
                             residual=True)
        # each unit's weights are scales of the identity: (w_qk, w_v) per unit
        scales = np.array([(0.0, 1e100), (1e100, 10.0)])
        w_qk, w_v = (np.broadcast_to(scale[:, None, None, None] * np.eye(2),
                                     (2, config.layers, 2, 2)) for scale in scales.T)
        model = StackModel(config, w_qk, w_qk, w_v)
        with pytest.raises(ValueError, match="of scores of unit 1"), \
                np.errstate(over="ignore"):
            forward(model, np.ones((2, 3, 2)))
        _, trace = forward(unit_model(model, 0), np.ones((3, 2)))
        assert len(trace) == 3

    def test_rejects_mismatched_unit_count(self):
        model = init_stack(make_config(), [1, 2])
        with pytest.raises(ValueError, match="2 seeds"):
            forward(model, np.zeros((3, 4, 6)))
        with pytest.raises(ValueError):
            forward(model, np.zeros((4, 6)))
        with pytest.raises(ValueError):
            forward(unit_model(model, 0), np.zeros((2, 4, 6)))


@pytest.mark.parametrize("n, d, arrays", [(512, 64, 4), (1024, 8, 3)])
def test_forward_holds_few_score_sized_arrays(n, d, arrays):
    # the kernel overwrites the scores, the softmax and the energy allocate
    # one score-sized array each, and a layer's kernel is released before
    # the next layer's scores are formed.  At 1024 x 8 the distance blocks
    # and projections are small next to an 8 MiB score matrix, so one more
    # live score-sized array anywhere in the pass breaks the bound.
    model = init_stack(StackConfig(layers=2, input_dim=d, key_dim=d, value_dim=d,
                                   variant="neutreno", lambda_tilde=0.6), 3)
    x0 = np.random.default_rng(41).normal(size=(n, d))
    tracemalloc.start()
    try:
        forward(model, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arrays * n * n * 8


class TestSmoothingTendency:
    def test_softmax_cosine_rises_with_depth(self):
        """Deep plain-attention stacks drive tokens together; the anchored
        variant ends less aligned on the same seeds.  (Small ensemble here;
        the full 50-seed run lives in the acceptance suite.)"""
        wins = 0
        rises = 0
        seeds = range(10)
        for seed in seeds:
            x0 = np.random.default_rng((seed, 1)).normal(size=(16, 8))
            plain_cfg = StackConfig(layers=12, input_dim=8, key_dim=8, value_dim=8,
                                    variant="softmax")
            anchored_cfg = StackConfig(layers=12, input_dim=8, key_dim=8, value_dim=8,
                                       variant="neutreno", lambda_tilde=0.6)
            _, plain = forward(init_stack(plain_cfg, seed), x0)
            _, anchored = forward(init_stack(anchored_cfg, seed), x0)
            if plain.final.mean_cosine > anchored.final.mean_cosine:
                wins += 1
            if plain.final.mean_cosine >= plain[1].mean_cosine:
                rises += 1
        assert wins >= 9
        assert rises >= 9
