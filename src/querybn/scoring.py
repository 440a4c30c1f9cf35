"""Score functionals over query distributions and event data.

The central quantity is the query-weighted squared-error score

    err(B) = sum over queries (x; y) of  weight(x; y) * [B(x|y) - ref(x|y)]^2

Every such score labels its queries, then compares: the reference is the
true conditional, the truth net's answer (``true_err``), a supplied label
(``empirical_err``), or a conditional frequency estimated from complete
event tuples (``empirical_err_from_events``), and one private scorer
compares the net's answers with those labels.  Log-loss scores
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

from .inference import ZeroEvidence, answer, enumerate_joint, mb_query
from .network import BayesNet
from .queries import (LabeledQuery, QueryDistribution, StatQuery, _query_weights,
                      label_from_data, label_queries)
from .queries import UnmatchedEvidence  # noqa: F401  raised by label_from_data; re-exported
from .sampling import Dataset, _net_codes


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


def _score_rows(b: BayesNet, labeled: Sequence[LabeledQuery], weights: Sequence[float] | None,
                mode: str) -> ErrReport:
    """Score the hypothesis's :func:`answer` against each query's label,
    the weights checked and defaulted as in :func:`empirical_err`.

    Each distinct query is answered once and its answer reused for every
    row that repeats it, in row order.  A hypothesis-side
    :class:`ZeroEvidence` becomes a noted row, left out of the aggregate,
    instead of aborting the batch (it cannot occur for clamped nets).
    """
    answers: dict[StatQuery, float | None] = {}
    rows: list[QueryScore] = []
    aggregate = 0.0
    for lq, w in zip(labeled, _query_weights(len(labeled), weights)):
        q, ref = lq.query, lq.label
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
    """Query-weighted squared error of ``b`` against the true conditionals,
    the labels of :func:`label_queries`.

    Every atom must be legal under ``truth``; an illegal one raises
    :class:`ZeroEvidence`.
    """
    return _score_rows(b, label_queries(truth, dist.queries()), dist.weights(), "true")


def empirical_err(b: BayesNet, qs: Sequence[LabeledQuery],
                  weights: Sequence[float] | None = None) -> ErrReport:
    """Weighted squared deviation of the net's answers from labels; the
    weights default to ``1/len(qs)`` each, the unweighted mean."""
    if not qs:
        raise ValueError("empirical_err needs at least one labeled query")
    return _score_rows(b, qs, weights, "labeled")


def empirical_err_from_events(b: BayesNet, qs: Sequence[StatQuery], data: Dataset,
                              weights: Sequence[float] | None = None) -> ErrReport:
    """Like :func:`empirical_err`, with labels replaced by conditional
    frequencies observed in ``data``.

    Raises :class:`UnmatchedEvidence` listing every query whose evidence
    matches no tuple.
    """
    if not qs:
        raise ValueError("empirical_err_from_events needs at least one query")
    return _score_rows(b, label_from_data(data, qs), weights, "unlabeled+events")


def nll(b: BayesNet, data: Dataset) -> float:
    """Average negative log-probability (1/|D|) sum log 1/B(d), natural log.

    Differs from the KL divergence to the sampling distribution by that
    distribution's (constant) entropy.  ``data`` binds to ``b`` by name
    and domain (``sampling._net_codes``): a net variable with no column
    raises ``KeyError``, one whose column has another domain
    ``ValueError``.  Raises :class:`ZeroProbability` if any tuple has zero
    probability under ``b``.
    """
    if len(data) == 0:
        raise ValueError("nll needs a non-empty dataset")
    return float(-_log_joint(b, _net_codes(b, data)).mean())


def _log_joint(b: BayesNet, codes: np.ndarray) -> np.ndarray:
    """``log B(d)`` of every row of a net-order code matrix, its CPT
    entries' logs summed in net order; raises :class:`ZeroProbability`
    naming the first variable, in net order, with a zero entry in some row."""
    logp = np.zeros(len(codes))
    for j, v in enumerate(b.names):
        vals = b.cpts[v].table[b.row_indices(v, codes), codes[:, j]]
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
    up to ``sum_i log B(d_i)``.  ``data`` binds to ``b`` as in :func:`nll`.
    Each distinct tuple is scored once, with no elimination: ``log B(d)``
    is :func:`nll`'s sum of CPT-entry logs, ``B(c | a)`` the blanket query
    :func:`mb_query` answers from the rows of ``c`` and its children, and
    ``log B(a)`` their difference.  Raises :class:`ZeroProbability`
    for a tuple of probability zero, and for one whose ``B(c | a)``
    underflows to zero in the blanket's product.
    """
    b.var(class_var)
    if len(data) == 0:
        raise ValueError("ll_decomposition needs a non-empty dataset")
    codes = _net_codes(b, data)
    log_d = _log_joint(b, codes)
    uniq, first, counts = np.unique(codes, axis=0, return_index=True, return_counts=True)
    cond_term = marg_term = 0.0
    for row, i, count in zip(uniq, first, counts):
        evidence = dict(zip(b.names, map(b.label, b.names, row)))
        try:
            cond = mb_query(b, class_var, evidence.pop(class_var), evidence)  # a blanket query
        except ZeroEvidence:  # every value's blanket product underflowed
            cond = 0.0
        if cond <= 0.0:
            raise ZeroProbability(f"B({class_var} | rest) of tuple {i} underflows to zero")
        cond_term += count * math.log(cond)
        marg_term += count * (log_d[i] - math.log(cond))
    return cond_term, marg_term
