"""Statistical queries and distributions over them.

A statistical query asks "p(X = x | Y = y) = ?" for disjoint partial
assignments x (the target) and y (the evidence, possibly empty).  A query
distribution is a normalized weighted set of ground queries; patterns
expand into ground queries by enumerating every assignment of their
unpinned variables with equal weight.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .inference import legal_answer
from .network import Assignment, BayesNet
from .sampling import Dataset, cond_freq

DEFAULT_ATOM_CAP = 2 ** 20
WEIGHT_TOL = 1e-6


class UnmatchedEvidence(ValueError):
    """Event data contains no tuple matching some query's evidence."""

    def __init__(self, query_ids: list[str]):
        super().__init__("no event tuples match the evidence of: " + ", ".join(query_ids))
        self.query_ids = query_ids


class StatQuery:
    """One ground query: target assignment, evidence assignment.

    Instances are value-like: hashable, comparable, and treated as
    immutable.  Equality ignores binding order.
    """

    __slots__ = ("target", "evidence", "_key")

    def __init__(self, target: Assignment, evidence: Assignment | None = None):
        target = {str(k): str(v) for k, v in dict(target).items()}
        evidence = {str(k): str(v) for k, v in dict(evidence or {}).items()}
        if not target:
            raise ValueError("query target must bind at least one variable")
        overlap = target.keys() & evidence.keys()
        if overlap:
            raise ValueError(f"target and evidence must be disjoint; both bind {sorted(overlap)}")
        self.target = target
        self.evidence = evidence
        self._key = (tuple(sorted(target.items())), tuple(sorted(evidence.items())))

    def __eq__(self, other) -> bool:
        return isinstance(other, StatQuery) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"StatQuery({self.id()})"

    def id(self) -> str:
        """Stable human-readable form, e.g. ``P(C=1 | A=0,X=1)``."""
        t = ",".join(f"{k}={v}" for k, v in self._key[0])
        e = ",".join(f"{k}={v}" for k, v in self._key[1])
        return f"P({t} | {e})" if e else f"P({t})"


@dataclass(frozen=True)
class LabeledQuery:
    """A query paired with its reference conditional probability."""

    query: StatQuery
    label: float

    def __post_init__(self):
        if not 0.0 <= self.label <= 1.0:
            raise ValueError(f"label must be a probability, got {self.label}")


def _query_weights(n: int, weights: Sequence[float] | None) -> list[float]:
    """The weights of ``n`` queries as floats, ``1/n`` each when None."""
    if weights is not None and len(weights) != n:
        raise ValueError("weights must match queries")
    return [1.0 / n] * n if weights is None else [float(w) for w in weights]


@dataclass(frozen=True)
class QueryPattern:
    """A query shape: variable roles fixed, some evidence values pinned.

    Unpinned variables expand into every combination of domain values,
    splitting the pattern's weight uniformly.
    """

    target_vars: tuple[str, ...]
    evidence_vars: tuple[str, ...] = ()
    pinned: Mapping[str, str] = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "target_vars", tuple(self.target_vars))
        object.__setattr__(self, "evidence_vars", tuple(self.evidence_vars))
        object.__setattr__(self, "pinned", dict(self.pinned or {}))
        if set(self.target_vars) & set(self.evidence_vars):
            raise ValueError("pattern target and evidence variables must be disjoint")
        stray = set(self.pinned) - set(self.evidence_vars)
        if stray:
            raise ValueError(f"pinned values must name evidence variables; got {sorted(stray)}")


def expand_pattern(net: BayesNet, pat: QueryPattern, weight: float,
                   *, atom_cap: int = DEFAULT_ATOM_CAP) -> list[tuple[StatQuery, float]]:
    """Ground a pattern: one atom per assignment of unpinned variables,
    each carrying an equal share of ``weight``."""
    if weight <= 0:
        raise ValueError("pattern weight must be positive")
    for v in (*pat.target_vars, *pat.evidence_vars):
        net.var(v)
    for v, val in pat.pinned.items():
        net.code(v, val)
    free = list(pat.target_vars) + [v for v in pat.evidence_vars if v not in pat.pinned]
    count = 1
    for v in free:
        count *= net.arity(v)
        if count > atom_cap:
            raise ValueError(f"pattern expands to more than {atom_cap} atoms")
    share = weight / count
    out = []
    for combo in itertools.product(*(net.domain(v) for v in free)):
        binding = dict(zip(free, combo))
        target = {v: binding[v] for v in pat.target_vars}
        evidence = dict(pat.pinned)
        evidence.update({v: binding[v] for v in pat.evidence_vars if v not in pat.pinned})
        out.append((StatQuery(target, evidence), share))
    return out


# (query, weight) or (query, weight, label); a label of None means unlabeled
Atom = tuple[StatQuery, float] | tuple[StatQuery, float, float | None]


class QueryDistribution:
    """Normalized weighted set of distinct ground queries, optionally labeled.

    Atoms are ``(query, weight)`` or ``(query, weight, label)`` with label
    ``None`` meaning unlabeled; a label must lie in [0, 1].  Duplicate
    queries are merged by summing their weights; their labels must agree
    within ``1e-12``.  Weights must total 1 within ``1e-6``; each is then
    divided by their float total, which need not make them sum to exactly
    1.0.
    """

    def __init__(self, atoms: Iterable[Atom]):
        merged: dict[StatQuery, tuple[float, float | None]] = {}
        for atom in atoms:
            q, w, lab = atom if len(atom) == 3 else (*atom, None)
            w = float(w)
            if w <= 0:
                raise ValueError(f"query weight must be positive, got {w} for {q.id()}")
            lab = None if lab is None else float(lab)
            if lab is not None and not 0.0 <= lab <= 1.0:
                raise ValueError(f"label must be a probability, got {lab} for {q.id()}")
            w0, lab0 = merged.get(q, (0.0, None))
            if lab is not None and lab0 is not None and abs(lab - lab0) > 1e-12:
                raise ValueError(f"conflicting labels for duplicate query {q.id()}")
            merged[q] = (w0 + w, lab0 if lab is None else lab)
        if not merged:
            raise ValueError("query distribution needs at least one atom")
        total = sum(w for w, _ in merged.values())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"query weights sum to {total:.8g}, not 1")
        self.atoms: tuple[tuple[StatQuery, float], ...] = tuple(
            (q, w / total) for q, (w, _) in merged.items())
        self.labels: tuple[float | None, ...] = tuple(lab for _, lab in merged.values())

    @classmethod
    def uniform(cls, queries: Sequence[StatQuery]) -> "QueryDistribution":
        n = len(queries)
        return cls((q, 1.0 / n) for q in queries)

    def queries(self) -> list[StatQuery]:
        return [q for q, _ in self.atoms]

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    def __len__(self) -> int:
        return len(self.atoms)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw atom(s) proportional to weight; deterministic given the
        generator state."""
        idx = rng.choice(len(self.atoms), size=size, p=self.weights())
        if size is None:
            return self.atoms[int(idx)][0]
        return [self.atoms[i][0] for i in np.asarray(idx)]

    def labeled(self) -> list[LabeledQuery]:
        """The queries with their labels; every atom must carry one."""
        pairs = list(zip(self.queries(), self.labels))
        missing = [q.id() for q, lab in pairs if lab is None]
        if missing:
            raise ValueError(f"queries without labels: {missing}")
        return [LabeledQuery(q, lab) for q, lab in pairs]

    def fully_labeled(self) -> bool:
        return None not in self.labels


def label_queries(truth: BayesNet, qs: Iterable[StatQuery]) -> list[LabeledQuery]:
    """Label each query with the truth net's answer.

    Raises :class:`ZeroEvidence` for queries that are illegal under the
    truth distribution (their conditioning event has probability zero).
    """
    return [LabeledQuery(q, legal_answer(truth, q)) for q in qs]


def label_from_data(data: Dataset, qs: Sequence[StatQuery]) -> list[LabeledQuery]:
    """Label each query with its conditional frequency in ``data``.

    Raises :class:`UnmatchedEvidence` listing every query whose evidence
    matches no tuple; with no tuples at all that includes evidence-free
    queries.
    """
    unmatched = [q.id() for q in qs if not data.match_mask(q.evidence).any()]
    if unmatched:
        raise UnmatchedEvidence(unmatched)
    return [LabeledQuery(q, cond_freq(data, q.target, q.evidence)) for q in qs]


# -- query file format -----------------------------------------------------------
#
# {"atoms":    [{"target": {..}, "evidence": {..}, "weight": w, "label": p?}, ..],
#  "patterns": [{"target_vars": [..], "evidence_vars": [..], "pinned": {..},
#                "weight": w}, ..]}
#
# Patterns are expanded at load time into unlabeled atoms; the result is a
# QueryDistribution, which merges duplicates and checks the weights.


def load_queries(path, net: BayesNet) -> QueryDistribution:
    with open(path) as fh:
        doc = json.load(fh)
    return parse_queries(doc, net)


def parse_queries(doc: Mapping, net: BayesNet) -> QueryDistribution:
    atoms: list[Atom] = []
    for item in doc.get("atoms", ()):
        q = StatQuery(item["target"], item.get("evidence", {}))
        for k, v in {**q.target, **q.evidence}.items():
            net.code(k, v)
        atoms.append((q, item["weight"], item.get("label")))
    for item in doc.get("patterns", ()):
        pat = QueryPattern(tuple(item["target_vars"]), tuple(item.get("evidence_vars", ())),
                           item.get("pinned", {}))
        atoms.extend(expand_pattern(net, pat, float(item["weight"])))
    return QueryDistribution(atoms)


def save_queries(path, atoms: Iterable[Atom]) -> None:
    rows = []
    for atom in atoms:
        q, w, lab = atom if len(atom) == 3 else (*atom, None)
        row = {"target": q.target, "evidence": q.evidence, "weight": w}
        if lab is not None:
            row["label"] = lab
        rows.append(row)
    with open(path, "w") as fh:
        json.dump({"atoms": rows}, fh, indent=2)
        fh.write("\n")
