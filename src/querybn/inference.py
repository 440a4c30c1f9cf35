"""Exact inference: variable elimination, an enumeration oracle, and the
Markov-blanket fast path.

``marginal`` answers B(assignment) by factor multiplication and summation
under a greedy min-degree elimination ordering; ``enumerate_marginal`` is
the brute-force cross-check, capped because the general problem is
intractable.  ``cond_prob`` forms the ratio B(x, y) / B(y) explicitly, so
its value (and its derivatives with respect to individual CPT entries)
stay well defined even for tables whose rows do not sum to one; gradient
checks rely on this.

``mb_query`` answers single-variable queries whose evidence covers the
target's Markov blanket using only the CPT rows of the target's family,
with no global inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .network import Assignment, BayesNet, check_assignment

DEFAULT_ENUM_CAP = 22  # binary-equivalent variables: caps joint size at 2**22


class ZeroEvidence(ValueError):
    """The conditioning event has probability zero under this net.

    Such a query is illegal: no conditional value is defined for it.
    """

    def __init__(self, evidence: Mapping[str, str]):
        desc = ", ".join(f"{k}={v}" for k, v in sorted(evidence.items())) or "{}"
        super().__init__(f"evidence has zero probability: {desc}")
        self.evidence = dict(evidence)


class EnumerationCapExceeded(RuntimeError):
    """The net's joint state space exceeds the enumeration oracle's cap."""


@dataclass(frozen=True)
class Factor:
    """Intermediate of variable elimination: a table over a variable scope."""

    scope: tuple[str, ...]
    table: np.ndarray  # ndim == len(scope)


def _consistent(a: Assignment, b: Assignment) -> bool:
    """True when the assignments agree wherever they bind the same variable."""
    return all(b[k] == v for k, v in a.items() if k in b)


def _cpt_factor(net: BayesNet, v: str, ev_codes: Mapping[str, int]) -> Factor:
    ps = net.parents(v)
    shape = tuple(net.arity(p) for p in ps) + (net.arity(v),)
    table = net.cpts[v].table.reshape(shape)
    scope = ps + (v,)
    index = tuple(ev_codes[s] if s in ev_codes else slice(None) for s in scope)
    reduced_scope = tuple(s for s in scope if s not in ev_codes)
    return Factor(reduced_scope, np.asarray(table[index], dtype=float))


def _align(f: Factor, scope: tuple[str, ...]) -> np.ndarray:
    """View of ``f.table`` broadcastable over ``scope`` (a superset)."""
    extra = len(scope) - len(f.scope)
    t = f.table.reshape(f.table.shape + (1,) * extra)
    positions = [scope.index(s) for s in f.scope]
    return np.moveaxis(t, range(len(f.scope)), positions)


def _multiply(a: Factor, b: Factor) -> Factor:
    scope = a.scope + tuple(s for s in b.scope if s not in a.scope)
    return Factor(scope, _align(a, scope) * _align(b, scope))


def _sum_out(f: Factor, v: str) -> Factor:
    ax = f.scope.index(v)
    return Factor(f.scope[:ax] + f.scope[ax + 1:], f.table.sum(axis=ax))


def _min_degree_order(scopes: list[tuple[str, ...]], elim: set[str], rank: Mapping[str, int]) -> list[str]:
    """Greedy min-degree ordering on the interaction graph of the scopes."""
    neighbors: dict[str, set[str]] = {v: set() for sc in scopes for v in sc}
    for sc in scopes:
        for v in sc:
            neighbors[v].update(u for u in sc if u != v)
    remaining = set(elim)
    order: list[str] = []
    while remaining:
        v = min(remaining, key=lambda u: (len(neighbors.get(u, set()) & set(neighbors)), rank[u]))
        order.append(v)
        nbrs = neighbors.pop(v, set())
        remaining.discard(v)
        for u in nbrs:
            if u in neighbors:
                neighbors[u].discard(v)
                neighbors[u].update(w for w in nbrs if w != u and w in neighbors)
    return order


def _eliminate(net: BayesNet, evidence: Assignment, keep: tuple[str, ...]) -> Factor:
    """Sum out every variable outside ``evidence`` and ``keep``.

    The returned factor has scope exactly ``keep`` (in net order) and sums
    to the unnormalized mass of the evidence.
    """
    check_assignment(net, evidence)
    ev_codes = {k: net.code(k, v) for k, v in evidence.items()}
    factors = [_cpt_factor(net, v, ev_codes) for v in net.names]
    elim = {v for v in net.names if v not in ev_codes and v not in keep}
    rank = {v: i for i, v in enumerate(net.names)}
    order = _min_degree_order([f.scope for f in factors], elim, rank)
    for v in order:
        touching = [f for f in factors if v in f.scope]
        rest = [f for f in factors if v not in f.scope]
        prod = touching[0]
        for f in touching[1:]:
            prod = _multiply(prod, f)
        factors = rest + [_sum_out(prod, v)]
    result = Factor((), np.asarray(1.0))
    for f in factors:
        result = _multiply(result, f)
    keep_ordered = tuple(v for v in net.names if v in keep)
    return Factor(keep_ordered, np.transpose(result.table, [result.scope.index(v) for v in keep_ordered])
                  if result.scope else result.table)


def marginal(net: BayesNet, a: Assignment) -> float:
    """B(a) for a partial assignment, by variable elimination."""
    return float(_eliminate(net, a, ()).table)


def enumerate_marginal(net: BayesNet, a: Assignment, *, cap: int = DEFAULT_ENUM_CAP) -> float:
    """Exact sum over all completions of ``a`` by full enumeration.

    Test oracle only; refuses nets whose joint exceeds ``2**cap`` states.
    """
    check_assignment(net, a)
    joint = enumerate_joint(net, cap=cap)
    index = tuple(net.code(v, a[v]) if v in a else slice(None) for v in net.names)
    return float(np.sum(joint[index]))


def enumerate_joint(net: BayesNet, *, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """Full joint table with one axis per variable (net order)."""
    if net.state_count() > 2 ** cap:
        raise EnumerationCapExceeded(
            f"joint has {net.state_count()} states; enumeration cap is 2**{cap}")
    n = len(net.names)
    pos = {v: i for i, v in enumerate(net.names)}
    joint = np.ones(tuple(v.arity for v in net.variables))
    for v in net.names:
        ps = net.parents(v)
        shape = tuple(net.arity(p) for p in ps) + (net.arity(v),)
        t = net.cpts[v].table.reshape(shape + (1,) * (n - len(shape)))
        positions = [pos[p] for p in ps] + [pos[v]]
        joint = joint * np.moveaxis(t, range(len(positions)), positions)
    return joint


def cond_prob(net: BayesNet, x: Assignment, y: Assignment) -> float:
    """B(x | y) = B(x, y) / B(y); raises :class:`ZeroEvidence` when B(y) = 0.

    Overlapping assignments are tolerated: agreeing bindings merge (so
    self-conditioning gives 1), conflicting ones make the event impossible
    (probability 0).
    """
    p_y = marginal(net, y)
    if p_y <= 0.0:
        raise ZeroEvidence(y)
    if not _consistent(x, y):
        return 0.0
    merged = dict(y)
    merged.update(x)
    return marginal(net, merged) / p_y


def family_posterior(net: BayesNet, v: str, evidence: Assignment) -> np.ndarray:
    """P(parents(v) = r, v = q | evidence) for every row r and value q.

    Returns an array shaped like v's CPT.  Configurations that contradict
    the evidence get probability 0.
    """
    ps = net.parents(v)
    fam = ps + (v,)
    free = tuple(f for f in fam if f not in evidence)
    fac = _eliminate(net, evidence, free)
    total = float(fac.table.sum())
    if total <= 0.0:
        raise ZeroEvidence(evidence)
    shape = tuple(net.arity(p) for p in ps) + (net.arity(v),)
    out = np.zeros(shape)
    index = tuple(net.code(f, evidence[f]) if f in evidence else slice(None) for f in fam)
    # fac.scope orders free vars by net order; transpose into family order
    perm = [fac.scope.index(f) for f in fam if f not in evidence]
    out[index] = np.transpose(fac.table, perm) if perm else fac.table
    rows = int(np.prod(shape[:-1], dtype=int)) if ps else 1
    return out.reshape(rows, shape[-1]) / total


def is_markov_blanket_query(net: BayesNet, q) -> bool:
    """True iff the query has a single target variable whose Markov blanket
    is covered by the evidence (the class answerable by local arithmetic)."""
    if len(q.target) != 1:
        return False
    (v,) = q.target.keys()
    return net.markov_blanket(v) <= q.evidence.keys()


def mb_posterior(net: BayesNet, v: str, y: Assignment) -> np.ndarray:
    """Posterior over ``v``'s values given blanket-covering evidence ``y``.

    Uses only the CPT rows of v and of v's children:

        score(q) = e[v=q | y(parents)] * prod_c e[y(c) | y(parents(c)), v=q]

    normalized over v's domain.  No global inference is performed.
    """
    check_assignment(net, y)
    if v in y:
        raise ValueError(f"target {v!r} must not appear in the evidence")
    missing = net.markov_blanket(v) - set(y)
    if missing:
        raise ValueError(f"evidence must cover the Markov blanket of {v!r}; missing {sorted(missing)}")
    own_row = net.row_index(v, y)
    scores = np.array(net.cpts[v].table[own_row], dtype=float)
    local = dict(y)
    for k in range(net.arity(v)):
        local[v] = net.label(v, k)
        for c in net.children(v):
            row = net.row_index(c, local)
            scores[k] *= net.cpts[c].table[row, net.code(c, y[c])]
    total = scores.sum()
    if total <= 0.0:
        raise ZeroEvidence(y)
    return scores / total


def mb_query(net: BayesNet, v: str, v_val: str, y: Assignment) -> float:
    """Posterior probability of ``v = v_val`` given blanket-covering
    evidence; see :func:`mb_posterior`."""
    return float(mb_posterior(net, v, y)[net.code(v, v_val)])


def answer(net: BayesNet, q) -> float:
    """Answer a statistical query, taking the Markov-blanket fast path when
    it applies; the value is identical either way.

    The fast path conditions locally and therefore does not notice evidence
    with zero probability; callers scoring against a possibly-deterministic
    reference net should use :func:`legal_answer`.
    """
    if is_markov_blanket_query(net, q):
        (v, v_val), = q.target.items()
        return mb_query(net, v, v_val, q.evidence)
    return cond_prob(net, q.target, q.evidence)


def legal_answer(net: BayesNet, q) -> float:
    """:func:`answer` plus an explicit legality check on the evidence.

    Only the blanket fast path needs the check; :func:`cond_prob` already
    raises :class:`ZeroEvidence` on the general path.
    """
    if q.evidence and is_markov_blanket_query(net, q) and marginal(net, q.evidence) <= 0.0:
        raise ZeroEvidence(q.evidence)
    return answer(net, q)
