"""Span bookkeeping, self-time arithmetic and the rebinding of the
package's public functions.  Run with ``python -m pytest bench/tests``."""

import inspect
import itertools

import pytest

import neutreno
import neutreno.cli
import spans


class StepClock:
    """Returns 0, 1, 2, ... on successive calls."""

    def __init__(self):
        self.ticks = itertools.count()

    def __call__(self):
        return float(next(self.ticks))


def test_self_time_of_nested_spans():
    # outer [0, 10] holds inner [2, 5] and leaf [6, 7]
    spans_ = [
        (0, "outer", 0.0, 10.0, -1),
        (0, "inner", 2.0, 5.0, 0),
        (0, "leaf", 6.0, 7.0, 0),
    ]
    calls, own = spans.self_times(spans_)
    assert calls == {"outer": 1, "inner": 1, "leaf": 1}
    assert own == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_self_time_sums_repeated_and_recursive_calls():
    # f calls g twice, then calls itself; the inner f calls g once more
    spans_ = [
        (0, "f", 0.0, 20.0, -1),
        (0, "g", 1.0, 3.0, 0),
        (0, "g", 4.0, 7.0, 0),
        (0, "f", 8.0, 18.0, 0),
        (0, "g", 9.0, 10.0, 3),
        (1, "g", 30.0, 34.0, -1),
    ]
    calls, own = spans.self_times(spans_)
    assert calls == {"f": 2, "g": 4}
    # outer f: 20 - (2 + 3 + 10) = 5; inner f: 10 - 1 = 9
    assert own["f"] == pytest.approx(14.0)
    assert own["g"] == pytest.approx(2.0 + 3.0 + 1.0 + 4.0)
    total = sum(end - start for _, _, start, end, parent in spans_ if parent == -1)
    assert sum(own.values()) == pytest.approx(total)


def test_tracer_records_parents_and_closes_spans_on_error():
    tracer = spans.Tracer(clock=StepClock())

    def leaf():
        return 1

    def boom():
        raise ValueError("boom")

    wrapped_leaf = tracer.wrap("m.leaf", leaf)
    wrapped_boom = tracer.wrap("m.boom", boom)

    def root():
        wrapped_leaf()
        with pytest.raises(ValueError):
            wrapped_boom()
        return wrapped_leaf()

    tracer.op = 3
    assert tracer.wrap("op", root)() == 1
    assert tracer.spans == [
        (3, "op", 0.0, 7.0, -1),
        (3, "m.leaf", 1.0, 2.0, 0),
        (3, "m.boom", 3.0, 4.0, 0),
        (3, "m.leaf", 5.0, 6.0, 0),
    ]
    calls, own = spans.self_times(tracer.spans)
    assert own["op"] == 4.0
    assert spans.layer_totals(calls, own) == ({"m": 3}, {"m": 3.0})


def _bindings():
    """Every (module, attribute) of the package bound to a public function."""
    originals = {id(f): f for _, _, f in spans.public_functions()}
    found = []
    for module in spans._modules("neutreno"):
        for attr, value in vars(module).items():
            if originals.get(id(value)) is value:
                found.append((module, attr, value))
    return found


def test_every_public_function_is_rebound_then_restored(tmp_path):
    public = spans.public_functions()
    layers = {module.__name__.rpartition(".")[2] for module, _, _ in public}
    assert set(spans.LAYERS) <= layers
    assert all(inspect.isfunction(f) for _, _, f in public)
    before = _bindings()
    # names bound by "from .x import y" are found, not only the defining module
    assert any(m.__name__ == "neutreno.stack" and a == "max_pairwise_distance"
               for m, a, _ in before)
    assert any(m is neutreno and a == "walk_sample_stats" for m, a, _ in before)

    tracer = spans.Tracer()
    with spans.rebound(tracer) as replaced:
        assert {(m.__name__, a) for m, a, _ in replaced} == {
            (m.__name__, a) for m, a, _ in before}
        for module, attr, original in before:
            current = getattr(module, attr)
            assert current is not original
            assert current.__wrapped__ is original
        neutreno.cli.main(["tensor", "inspect", str(tmp_path / "missing.ntt")])
    assert {name for _, name, *_ in tracer.spans} >= {"cli.main", "tensorfile.load_tensor"}
    for module, attr, original in before:
        assert getattr(module, attr) is original
    assert _bindings() == before


def test_rebinding_is_restored_when_the_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.rebound(spans.Tracer()):
            raise RuntimeError("stop")
    assert _bindings() == before
