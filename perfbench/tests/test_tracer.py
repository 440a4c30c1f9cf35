"""Tests of the benchmark's tracer: self time, patch restore, transparency.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import querybn  # noqa: E402
import querybn.cli  # noqa: E402,F401  (every traced module is loaded before bindings are compared)
from querybn.random_nets import random_net  # noqa: E402

from layers import TARGETS, layer_metrics  # noqa: E402
from tracer import Span, Target, Tracer, self_times  # noqa: E402


def _ticks():
    t = iter(range(1000))
    return lambda: float(next(t))


def test_self_time_subtracts_nested_children():
    spans = [Span("root", 0, 10, -1, "r"), Span("a", 1, 4, 0, "r"), Span("a.x", 2, 3, 1, "r"),
             Span("b", 5, 7, 0, "r")]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0, 10, -1, "r"), Span("a", 1, 4, 0, "r"), Span("b", 3, 6, 0, "r"),
             Span("c", 9, 12, 0, "r")]
    assert self_times(spans)[0] == 10 - (5 + 1)


def test_wrap_records_parent_links_with_a_fake_clock():
    tracer = Tracer(clock=_ticks(), run="t")
    inner = tracer.wrap("inner", lambda: "x")
    outer = tracer.wrap("outer", lambda: inner() + inner())
    assert outer() == "xx"
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0, 5, -1), ("inner", 1, 2, 0), ("inner", 3, 4, 0)]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    assert {s.run for s in tracer.spans} == {"t"}


def test_wrapper_returns_the_same_object_and_raises_the_same_exception():
    tracer = Tracer()
    token = object()
    assert tracer.wrap("f", lambda: token)() is token

    class Boom(Exception):
        pass

    err = Boom("x")

    def fail():
        raise err

    with pytest.raises(Boom) as caught:
        tracer.wrap("g", fail)()
    assert caught.value is err
    assert tracer.spans[-1].end >= tracer.spans[-1].start
    assert not tracer._stack


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "querybn" or name.startswith("querybn."):
            out.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
    for t in TARGETS:
        if not isinstance(t.owner, str):
            out[(t.owner.__name__, t.attr)] = t.owner.__dict__[t.attr]
    return out


def test_patch_replaces_every_binding_and_restores_them():
    before = _bindings()
    marginal = querybn.inference.marginal
    with Tracer().patch(TARGETS):
        # modules that imported the function by name see the wrapper too
        for mod in (querybn, querybn.inference, querybn.learning, querybn.experiments,
                    querybn.random_nets, querybn.scoring):
            assert mod.marginal is not marginal
        assert querybn.BayesNet.with_tables is not before[("BayesNet", "with_tables")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_patch_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().patch(TARGETS):
            raise RuntimeError("stop")
    assert all(_bindings()[k] is v for k, v in before.items())


def test_traced_library_calls_give_identical_results():
    net = random_net(np.random.default_rng(3), 6)
    v = next(v for v in net.names if net.markov_blanket(v))  # not a blanket query
    lqs = [querybn.LabeledQuery(querybn.StatQuery({v: "1"}), 0.3)]
    plain = querybn.grad(net, lqs)
    tracer = Tracer()
    with tracer.patch(TARGETS):
        traced = querybn.grad(net, lqs)
    assert plain.keys() == traced.keys()
    assert all(np.array_equal(plain[v], traced[v]) for v in plain)
    names = [s.name for s in tracer.spans]
    assert names[0] == "learning.grad"
    assert "inference.family_posterior" in names


def test_layer_metrics_ratios_on_synthetic_spans():
    spans = [
        Span("learning.grad", 0, 10, -1, "r"),
        Span("inference.marginal", 1, 2, 0, "r"),
        Span("inference.family_posterior", 3, 4, 0, "r"),
        Span("inference.marginal", 11, 12, -1, "r"),  # outside grad
        Span("inference.answer", 13, 16, -1, "r"),
        Span("inference.mb_posterior", 14, 15, 4, "r"),
        Span("inference.answer", 17, 18, -1, "r"),
    ]
    counters, timings = layer_metrics(spans)
    assert counters["inference.eliminations_per_grad"] == 2.0
    assert counters["inference.fastpath_ratio"] == 0.5
    assert counters["inference.marginal.calls"] == 2.0
    assert counters["learning.linesearch.accept_ratio"] == 0.0  # no evaluations: base 0
    assert timings["learning.grad.self_s"] == 8.0
    assert timings["inference.answer.self_s"] == 3.0


def test_hooks_see_the_call_arguments():
    target = Target("f", "querybn.bounds", "m_lsq", lambda result, args, kwargs: {"m": result})
    tracer = Tracer()
    with tracer.patch([target]):
        assert querybn.bounds.m_lsq(0.1, 0.1) == 150
    assert tracer.spans[0].attrs == {"m": 150}
