"""Score functionals over query distributions and event data.

The central quantity is the query-weighted squared-error score

    err(B) = sum over queries (x; y) of  weight(x; y) * [B(x|y) - ref(x|y)]^2

where the reference is the true conditional (``true_err``), a supplied
label (``empirical_err``), or a conditional frequency estimated from
complete event tuples (``empirical_err_from_events``).  Log-loss scores
(``nll``, ``true_kl``, ``ll_decomposition``) are provided for comparison;
all logarithms are natural.

Batch scoring is a pure map over query atoms followed by a fixed-order
reduction, so results do not depend on evaluation order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .inference import ZeroEvidence, answer, enumerate_joint, legal_answer, marginal
from .network import BayesNet
from .queries import (LabeledQuery, QueryDistribution, StatQuery, _query_weights,
                      label_from_data)
from .queries import UnmatchedEvidence  # noqa: F401  raised by label_from_data; re-exported
from .sampling import Dataset


class ZeroProbability(ValueError):
    """A log score hit an event with probability zero under the net."""


@dataclass(frozen=True)
class QueryScore:
    """Scored atom: weight, hypothesis value, reference value, squared error.

    ``note`` records a per-query failure (hypothesis could not answer); such
    rows carry NaN values and are excluded from the aggregate.
    """

    query: StatQuery
    weight: float
    hypothesis: float
    reference: float
    sq_error: float
    note: str | None = None


@dataclass
class ErrReport:
    """Per-query and aggregate squared-error scores.

    ``mode`` is one of ``"true"``, ``"labeled"``, ``"unlabeled+events"``.
    """

    mode: str
    aggregate: float
    rows: list[QueryScore]

    @property
    def n_errors(self) -> int:
        return sum(1 for r in self.rows if r.note is not None)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "aggregate": self.aggregate,
            "rows": [
                {
                    "query": r.query.id(),
                    "target": r.query.target,
                    "evidence": r.query.evidence,
                    "weight": r.weight,
                    "hypothesis": None if math.isnan(r.hypothesis) else r.hypothesis,
                    "reference": None if math.isnan(r.reference) else r.reference,
                    "sq_error": None if math.isnan(r.sq_error) else r.sq_error,
                    **({"note": r.note} if r.note else {}),
                }
                for r in self.rows
            ],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["query", "weight", "hypothesis", "reference", "sq_error", "note"])
            for r in self.rows:
                w.writerow([r.query.id(), repr(r.weight), repr(r.hypothesis),
                            repr(r.reference), repr(r.sq_error), r.note or ""])
            w.writerow(["aggregate", "", "", "", repr(self.aggregate), ""])


def _score_rows(b: BayesNet, refs: Sequence[tuple[StatQuery, float, float]], mode: str) -> ErrReport:
    """Score the hypothesis against (query, weight, reference) triples.

    Each distinct query is answered once and its answer reused for every
    row that repeats it, in row order.  A hypothesis-side
    :class:`ZeroEvidence` becomes a noted row instead of aborting the batch
    (it cannot occur for clamped nets).
    """
    answers: dict[StatQuery, float | None] = {}
    rows: list[QueryScore] = []
    aggregate = 0.0
    for q, w, ref in refs:
        if q not in answers:
            try:
                answers[q] = answer(b, q)
            except ZeroEvidence:
                answers[q] = None
        hyp = answers[q]
        if hyp is None:
            rows.append(QueryScore(q, w, math.nan, ref, math.nan,
                                   note="hypothesis assigns zero probability to the evidence"))
            continue
        sq = (hyp - ref) ** 2
        aggregate += w * sq
        rows.append(QueryScore(q, w, hyp, ref, sq))
    return ErrReport(mode, aggregate, rows)


def true_err(b: BayesNet, dist: QueryDistribution, truth: BayesNet) -> ErrReport:
    """Query-weighted squared error of ``b`` against the true conditionals.

    Every atom must be legal under ``truth``; an illegal one raises
    :class:`ZeroEvidence`.
    """
    refs = [(q, w, legal_answer(truth, q)) for q, w in dist.atoms]
    return _score_rows(b, refs, "true")


def empirical_err(b: BayesNet, qs: Sequence[LabeledQuery],
                  weights: Sequence[float] | None = None) -> ErrReport:
    """Weighted squared deviation of the net's answers from labels; the
    weights default to ``1/len(qs)`` each, the unweighted mean."""
    if not qs:
        raise ValueError("empirical_err needs at least one labeled query")
    refs = [(lq.query, w, lq.label) for lq, w in zip(qs, _query_weights(len(qs), weights))]
    return _score_rows(b, refs, "labeled")


def empirical_err_from_events(b: BayesNet, qs: Sequence[StatQuery], data: Dataset,
                              weights: Sequence[float] | None = None) -> ErrReport:
    """Like :func:`empirical_err`, with labels replaced by conditional
    frequencies observed in ``data``.

    Raises :class:`UnmatchedEvidence` listing every query whose evidence
    matches no tuple.
    """
    if not qs:
        raise ValueError("empirical_err_from_events needs at least one query")
    refs = [(lq.query, w, lq.label)
            for lq, w in zip(label_from_data(data, qs), _query_weights(len(qs), weights))]
    return _score_rows(b, refs, "unlabeled+events")


def nll(b: BayesNet, data: Dataset) -> float:
    """Average negative log-probability (1/|D|) sum log 1/B(d), natural log.

    Differs from the KL divergence to the sampling distribution by that
    distribution's (constant) entropy.  Raises :class:`ZeroProbability` if
    any tuple has zero probability under ``b``.
    """
    if len(data) == 0:
        raise ValueError("nll needs a non-empty dataset")
    logp = _log_joint_per_tuple(b, data)
    return float(-logp.mean())


def _log_joint_per_tuple(b: BayesNet, data: Dataset) -> np.ndarray:
    cols = {v: data.column(v) for v in b.names}
    for v in b.names:
        if data.domains[cols[v]] != b.domain(v):
            raise ValueError(f"dataset domain of {v!r} does not match the net")
    n = len(data)
    logp = np.zeros(n)
    for v in b.names:
        rows = b.row_indices(v, data.codes, cols)
        vals = b.cpts[v].table[rows, data.codes[:, cols[v]]]
        if np.any(vals <= 0.0):
            i = int(np.argmax(vals <= 0.0))
            raise ZeroProbability(f"tuple {i} has zero probability (variable {v!r})")
        logp += np.log(vals)
    return logp


def true_kl(b: BayesNet, truth: BayesNet) -> float:
    """Exact KL(truth || b) by enumeration over full assignments.

    Requires ``b`` to give positive mass wherever ``truth`` does, and both
    nets to fit under the enumeration cap.
    """
    if truth.names != b.names or any(truth.domain(v) != b.domain(v) for v in truth.names):
        raise ValueError("nets must share variables and domains")
    p = enumerate_joint(truth).ravel()
    q = enumerate_joint(b).ravel()
    support = p > 0.0
    if np.any(q[support] <= 0.0):
        raise ZeroProbability("hypothesis assigns zero mass inside the truth's support")
    return float(np.sum(p[support] * np.log(p[support] / q[support])))


def ll_decomposition(b: BayesNet, data: Dataset, class_var: str) -> tuple[float, float]:
    """Split total log-likelihood into conditional and marginal terms.

    Returns ``(sum_i log B(c_i | a_i), sum_i log B(a_i))`` where ``c`` is
    the class variable and ``a`` the remaining variables; the two terms add
    up to ``sum_i log B(d_i)``.
    """
    b.var(class_var)
    if len(data) == 0:
        raise ValueError("ll_decomposition needs a non-empty dataset")
    uniq, counts = np.unique(data.codes, axis=0, return_counts=True)
    cond_term = 0.0
    marg_term = 0.0
    for row, count in zip(uniq, counts):
        labels = {v: data.domains[data.column(v)][row[data.column(v)]] for v in b.names}
        evidence = {k: v for k, v in labels.items() if k != class_var}
        p_ev = marginal(b, evidence)
        if p_ev <= 0.0:
            raise ZeroProbability(f"evidence part of tuple {dict(labels)!r} has zero probability")
        cond = answer(b, StatQuery({class_var: labels[class_var]}, evidence))
        if cond <= 0.0:
            raise ZeroProbability(f"conditional of tuple {dict(labels)!r} is zero")
        cond_term += count * math.log(cond)
        marg_term += count * math.log(p_ev)
    return cond_term, marg_term
