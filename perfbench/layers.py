"""What the traced run patches, and how spans become per-layer metrics.

Layers are the library modules.  ``bounds`` (closed-form arithmetic) and
``random_nets`` (fixture builders) are not traced.  Every metric named in
``PER_LAYER`` is emitted for every workload; a layer a workload never
enters reports 0, and so does a ratio whose base is 0.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from typing import Sequence

from querybn.network import BayesNet
from querybn.queries import QueryDistribution

from tracer import Span, Target, self_times


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _report(result, args, kwargs):
    return {"rows": len(result.rows), "distinct": len({r.query for r in result.rows})}


def _fit(result, args, kwargs):
    return {"iters": len(result.trace), "accepted": sum(r.accepted for r in result.trace)}


def _tuples(result, args, kwargs):
    return {"tuples": len(result)}


def _collect(result, args, kwargs):
    matched = None
    for e in _arg(args, kwargs, 1, "evidences"):
        m = result.match_mask(e)
        matched = m if matched is None else matched | m
    return {"drawn": len(result), "matched": 0 if matched is None else int(matched.sum())}


def _saved_bytes(result, args, kwargs):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _loaded_bytes(result, args, kwargs):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _experiment(result, args, kwargs):
    return {"id": _arg(args, kwargs, 0, "experiment_id")}


TARGETS = (
    Target("inference.marginal", "querybn.inference", "marginal"),
    Target("inference.family_posterior", "querybn.inference", "family_posterior"),
    Target("inference.answer", "querybn.inference", "answer"),
    Target("inference.mb_posterior", "querybn.inference", "mb_posterior"),
    Target("learning.grad", "querybn.learning", "grad"),
    Target("learning.fit", "querybn.learning", "fit_cpt", _fit),
    Target("learning.ofe", "querybn.learning", "ofe"),
    Target("scoring.empirical_err", "querybn.scoring", "empirical_err", _report),
    Target("scoring.true_err", "querybn.scoring", "true_err", _report),
    Target("scoring.empirical_err_from_events", "querybn.scoring",
           "empirical_err_from_events", _report),
    Target("network.with_tables", BayesNet, "with_tables"),
    Target("network.load_net", "querybn.network", "load_net"),
    Target("network.save_net", "querybn.network", "save_net"),
    Target("network.validate", "querybn.network", "validate"),
    Target("queries.label_queries", "querybn.queries", "label_queries"),
    Target("queries.sample", QueryDistribution, "sample"),
    Target("sampling.forward_sample", "querybn.sampling", "forward_sample", _tuples),
    Target("sampling.collect_until_matched", "querybn.sampling", "collect_until_matched",
           _collect),
    Target("sampling.save_dataset", "querybn.sampling", "save_dataset", _saved_bytes),
    Target("sampling.load_dataset", "querybn.sampling", "load_dataset", _loaded_bytes),
    Target("sampling.cond_freq", "querybn.sampling", "cond_freq"),
    Target("experiments.run", "querybn.experiments", "run_experiment", _experiment),
    Target("cli.main", "querybn.cli", "main"),
)

EXPERIMENT_IDS = ("hoeffding",)  # the experiments a workload runs, by their repro id
_CALLS = ("inference.marginal", "inference.family_posterior", "inference.answer",
          "learning.grad", "network.with_tables", "sampling.forward_sample",
          "sampling.cond_freq")
_SELF = ("inference.marginal", "inference.family_posterior", "inference.answer",
         "learning.grad", "learning.ofe", "scoring.empirical_err", "scoring.true_err",
         "scoring.empirical_err_from_events", "network.with_tables", "network.load_net",
         "network.save_net", "network.validate", "queries.label_queries", "queries.sample",
         "sampling.forward_sample", "sampling.save_dataset", "sampling.load_dataset",
         "sampling.cond_freq", "cli.main")

# name -> (unit, better); counters repeat exactly for one seed, timings do not
COUNTERS = {
    **{f"{n}.calls": ("count", "lower") for n in _CALLS},
    "inference.eliminations_per_grad": ("ratio", "lower"),
    "inference.fastpath_ratio": ("ratio", "higher"),
    "learning.fit.iters": ("count", "lower"),
    "learning.linesearch.evals": ("count", "lower"),
    "learning.linesearch.accept_ratio": ("ratio", "higher"),
    "scoring.rows": ("count", "higher"),
    "scoring.distinct_ratio": ("ratio", "lower"),
    "sampling.tuples_drawn": ("count", "lower"),
    "sampling.match_ratio": ("ratio", "higher"),
    "sampling.save_dataset.bytes": ("B", "lower"),
    "sampling.load_dataset.bytes": ("B", "lower"),
}
TIMINGS = {
    **{f"{n}.self_s": ("s", "lower") for n in _SELF},
    **{f"experiments.run.{e}.self_s": ("s", "lower") for e in EXPERIMENT_IDS},
    "trace.overhead_frac": ("ratio", "lower"),
}
PER_LAYER = {**COUNTERS, **TIMINGS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """(counters, self times) for the spans of one traced run."""
    names = [s.name for s in spans]
    calls = Counter(names)
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    attr: dict[str, Counter] = defaultdict(Counter)
    in_grad = [False] * len(spans)
    in_fit = [False] * len(spans)
    fast_answers: set[int] = set()
    elim_in_grad = evals_in_fit = 0
    for i, s in enumerate(spans):
        p = s.parent
        if p >= 0:
            in_grad[i] = in_grad[p] or names[p] == "learning.grad"
            in_fit[i] = in_fit[p] or names[p] == "learning.fit"
            if s.name == "inference.mb_posterior" and names[p] == "inference.answer":
                fast_answers.add(p)
        if s.name in ("inference.marginal", "inference.family_posterior") and in_grad[i]:
            elim_in_grad += 1
        if s.name == "scoring.empirical_err" and in_fit[i]:
            evals_in_fit += 1
        key = s.name
        if s.attrs:
            if s.name == "experiments.run":
                key = f"experiments.run.{s.attrs['id']}"
            else:
                attr[s.name].update(s.attrs)
        self_s[key] += selfs[i]

    scored = (attr["scoring.empirical_err"] + attr["scoring.true_err"]
              + attr["scoring.empirical_err_from_events"])
    counters = {f"{n}.calls": float(calls[n]) for n in _CALLS}
    counters.update({
        "inference.eliminations_per_grad": _ratio(elim_in_grad, calls["learning.grad"]),
        "inference.fastpath_ratio": _ratio(len(fast_answers), calls["inference.answer"]),
        "learning.fit.iters": float(attr["learning.fit"]["iters"]),
        "learning.linesearch.evals": float(evals_in_fit),
        "learning.linesearch.accept_ratio": _ratio(attr["learning.fit"]["accepted"], evals_in_fit),
        "scoring.rows": float(scored["rows"]),
        "scoring.distinct_ratio": _ratio(scored["distinct"], scored["rows"]),
        "sampling.tuples_drawn": float(attr["sampling.forward_sample"]["tuples"]),
        "sampling.match_ratio": _ratio(attr["sampling.collect_until_matched"]["matched"],
                                       attr["sampling.collect_until_matched"]["drawn"]),
        "sampling.save_dataset.bytes": float(attr["sampling.save_dataset"]["bytes"]),
        "sampling.load_dataset.bytes": float(attr["sampling.load_dataset"]["bytes"]),
    })
    timings = {f"{n}.self_s": self_s[n] for n in _SELF}
    timings.update({f"experiments.run.{e}.self_s": self_s[f"experiments.run.{e}"]
                    for e in EXPERIMENT_IDS})
    return counters, timings
