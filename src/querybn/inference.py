"""Exact inference: variable elimination, an enumeration oracle, and the
Markov-blanket fast path.

``marginal`` answers B(assignment) by variable elimination under a greedy
min-degree ordering, each step one pairwise einsum contraction of
the factors that touch the eliminated variable.  The order and every
step's subscripts depend only on the structure and on which variables are
observed, so they are compiled once into a plan and cached by those two
values (at most ``PLAN_CACHE_SIZE`` plans); every plan sums out each
unobserved variable, down to the scalar B(evidence).  A call only slices
the CPTs by the evidence codes and replays the steps (``_replay``)
through numpy's C einsum kernel, called directly (see ``c_einsum``'s
import).  ``marginal``, ``cond_prob``, ``family_posterior``, ``grad``
and the fitter all replay and sweep through ``_replay`` and ``_reverse``.
Every subscript list starts with an ellipsis, so one replay can also
carry a leading batch axis on some registers, which the others broadcast
against: the gradient fitter answers a whole query set in one replay of
the evidence-free plan, with evidence entering as 0/1 indicator factors.
One reverse sweep over a replay, seeded with the derivative of some
scalar with respect to Z = B(evidence), gives that scalar's derivative
with respect to every CPT entry e (Darwiche's differential approach);
seeded with 1 it gives dZ/de, and e * dZ/de / Z is the posterior of e's
family configuration.  ``enumerate_marginal`` is the brute-force
cross-check, capped because the general problem is intractable.

``cond_prob`` forms the ratio B(x, y) / B(y) explicitly, so its value
(and its derivatives with respect to individual CPT entries) stay well
defined even for tables whose rows do not sum to one; gradient checks
rely on this.  Plans therefore keep barren variables too.

``mb_query`` answers single-variable queries whose evidence covers the
target's Markov blanket using only the CPT rows of the target's family,
with no global inference.  ``answer`` is the one way a query gets its
number: it takes that fast path for blanket queries and ``cond_prob``
otherwise, and on both paths refuses evidence of probability zero with
:class:`ZeroEvidence` (an illegal query).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np
# np.einsum(*operands) with optimize=False, its default, returns exactly
# c_einsum(*operands): calling the C kernel directly skips numpy's
# array-function dispatch, which costs more than the small contractions of
# a replay.  numpy._core exists from numpy 2.0.
from numpy._core.multiarray import c_einsum

from .network import Assignment, BayesNet, check_assignment

DEFAULT_ENUM_CAP = 22  # binary-equivalent variables: caps joint size at 2**22
PLAN_CACHE_SIZE = 512  # compiled elimination plans kept; the least recently used goes first
ZERO_EVIDENCE_SHOWN = 8  # evidence bindings a ZeroEvidence message lists


class ZeroEvidence(ValueError):
    """The conditioning event has probability zero under this net.

    Such a query is illegal: no conditional value is defined for it.  The
    message names the first ``ZERO_EVIDENCE_SHOWN`` bindings in sorted
    order; ``evidence`` holds all of them.
    """

    def __init__(self, evidence: Mapping[str, str]):
        shown = sorted(evidence.items())
        desc = ", ".join(f"{k}={v}" for k, v in shown[:ZERO_EVIDENCE_SHOWN]) or "{}"
        if len(shown) > ZERO_EVIDENCE_SHOWN:
            desc += f", … ({len(shown) - ZERO_EVIDENCE_SHOWN} more)"
        super().__init__(f"evidence has zero probability: {desc}")
        self.evidence = dict(evidence)


class EnumerationCapExceeded(RuntimeError):
    """The net's joint state space exceeds the enumeration oracle's cap."""


def _consistent(a: Assignment, b: Assignment) -> bool:
    """True when the assignments agree wherever they bind the same variable."""
    return all(b[k] == v for k, v in a.items() if k in b)


# (a, subscripts of a, b or None, subscripts of b, output subscripts, reverse-pass data);
# every subscript tuple starts with Ellipsis, which stands for an optional batch axis
_Sub = tuple
_ALL = slice(None)  # one object shared by every cached index
_Step = tuple[int, _Sub, int | None, _Sub | None, _Sub, tuple | None]


@dataclass(frozen=True)
class _Plan:
    """Variable elimination compiled for one structure and one set of
    observed variables; it never looks at table values.

    Registers ``0 .. n-1`` hold the variables' CPTs (net order), each
    reshaped to its family and sliced by the evidence codes; step ``k``
    writes register ``n + k`` and the last step's register is the scalar
    B(evidence), every unobserved variable summed out.
    A step ``(a, sa, b, sb, out, back)`` is ``einsum(reg[a], sa, reg[b],
    sb, out)``, a pairwise product onto the union of both scopes, or, when
    ``b`` is None, ``einsum(reg[a], sa, out)``, a sum or a transpose whose
    reverse pass needs ``back = (subscripts of out in sa's order, an index
    that inserts a new axis at each summed position)``.  Every register
    feeds exactly one step.  Subscripts and ``back``'s index start with an
    ellipsis, so registers may carry leading batch axes that broadcast.
    """

    families: tuple[tuple[str, ...], ...]  # parents, then the variable
    shapes: tuple[tuple[int, ...], ...]  # each family's table shape
    steps: tuple[_Step, ...]


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _compile(signature: tuple, observed: frozenset[str]) -> _Plan:
    """The plan that sums every variable outside ``observed``, down to the
    scalar B(evidence).

    The order is greedy min-degree, read off the live factors: each next
    variable is the one that shares a factor with the fewest others, ties
    going to the earliest in net order.  Its factors are then contracted
    into one over their other variables, which joins those variables as
    neighbours for the next choice.  The steps are the pairwise einsum
    calls, subscripts included, that this elimination makes, so replaying
    them gives the same bits as eliminating afresh.  A contraction starts
    from its first factor itself, not from a product with the scalar 1,
    which is exact.  Each contraction numbers only its own variables, since
    einsum subscripts lie in [0, 52); a leading ``...`` in every subscript
    list leaves the bits of unbatched replays unchanged.
    """
    arity = {v: a for v, a, _ in signature}
    families = tuple(ps + (v,) for v, _, ps in signature)
    n = len(signature)
    steps: list[_Step] = []

    def contract(touching: list[tuple[tuple[str, ...], int]], out: tuple[str, ...]) -> int:
        ids: dict[str, int] = {}

        def sub(scope: tuple[str, ...]) -> _Sub:
            return (Ellipsis, *(ids.setdefault(v, len(ids)) for v in scope))

        # pairwise, since einsum takes at most 64 operands and a naive
        # Bayes class variable can touch more child factors
        (scope, reg), rest = touching[0], touching[1:]
        sub(scope)
        for s, r in rest:
            union = tuple(dict.fromkeys(scope + s))
            steps.append((reg, sub(scope), r, sub(s), sub(union), None))
            scope, reg = union, n + len(steps) - 1
        sa, so = sub(scope), sub(out)
        back = ((Ellipsis, *(ids[v] for v in scope if v in out)),
                (Ellipsis, *(_ALL if v in out else None for v in scope)))
        steps.append((reg, sa, None, None, so, back))
        return n + len(steps) - 1

    factors = [(tuple(s for s in fam if s not in observed), i) for i, fam in enumerate(families)]
    elim = [v for v, _, _ in signature if v not in observed]
    while elim:
        near: dict[str, set[str]] = {}
        for sc, _ in factors:
            for u in sc:
                near.setdefault(u, set()).update(sc)
        v = min(elim, key=lambda u: len(near[u]))
        elim.remove(v)
        touching = [f for f in factors if v in f[0]]
        scope = tuple(u for u in dict.fromkeys(u for sc, _ in touching for u in sc) if u != v)
        factors = [f for f in factors if v not in f[0]] + [(scope, contract(touching, scope))]
    contract(factors, ())
    shapes = tuple(tuple(arity[f] for f in fam) for fam in families)
    return _Plan(families, shapes, tuple(steps))


def _forward(net: BayesNet, evidence: Assignment) -> tuple[_Plan, list[tuple], list[np.ndarray]]:
    """Replay the cached plan: (plan, each CPT's evidence index, registers)."""
    codes = {k: net.code(k, v) for k, v in evidence.items()}
    plan = _compile(net.signature(), frozenset(codes))
    index = [tuple(codes.get(f, slice(None)) for f in fam) for fam in plan.families]
    regs = [net.cpts[v].table.reshape(shape)[ix]
            for v, shape, ix in zip(net.names, plan.shapes, index)]
    return plan, index, _replay(plan, regs)


def _replay(plan: _Plan, regs: list[np.ndarray]) -> list[np.ndarray]:
    """Append every step's register to ``regs``, the CPT registers in net
    order, and return it; the last register is B(evidence), a scalar per
    batch element.

    A register may carry leading batch axes; the others broadcast against
    it, so a batch of stacked registers gives each element the bits of its
    own replay.
    """
    for a, sa, b, sb, out, _ in plan.steps:
        regs.append(c_einsum(regs[a], sa, out) if b is None
                    else c_einsum(regs[a], sa, regs[b], sb, out))
    return regs


def _reverse(plan: _Plan, regs: list[np.ndarray], seed: np.ndarray) -> list[np.ndarray]:
    """One reverse sweep over a :func:`_replay`: the adjoint of each CPT
    register, in net order.

    ``seed`` is the derivative of some scalar with respect to B(evidence),
    ``regs[-1]``, and has its shape, batch axes included.  The adjoint
    of a pairwise product is the two einsums with the output and one
    operand's subscripts swapped; the adjoint of a sum broadcasts back over
    the summed axes, so an adjoint may have size 1 there.  A register
    without the seed's batch axes gets one adjoint per batch element.  The
    table values never divide anything, so zero entries are fine here.
    """
    n = len(plan.families)
    adj: list = [None] * (len(regs) - 1) + [seed]
    for k in range(len(plan.steps) - 1, -1, -1):
        a, sa, b, sb, out, back = plan.steps[k]
        d = adj[n + k]
        if b is None:
            kept, axes = back
            adj[a] = (d if kept == out else c_einsum(d, out, kept))[axes]
        else:
            adj[a] = c_einsum(d, out, regs[b], sb, sa)
            adj[b] = c_einsum(d, out, regs[a], sa, sb)
    return adj[:n]


def _value_and_grad(net: BayesNet, evidence: Assignment, wrt: tuple[str, ...],
                    ) -> tuple[float, dict[str, np.ndarray]]:
    """``Z = B(evidence)`` and ``dZ/de`` for every entry of each ``wrt``
    variable's CPT, shaped like that CPT: one forward replay, whose last
    register is the scalar Z, and one :func:`_reverse` sweep seeded with
    1, whose register adjoints are scattered into the evidence index.
    Entries that contradict the evidence get 0.  This is the engine's one
    unbatched forward-plus-reverse entry.  ``Z`` is the same float
    :func:`marginal` returns, and ``e * dZ/de / Z`` is a family posterior.
    """
    plan, index, regs = _forward(net, evidence)
    adj = _reverse(plan, regs, np.ones(()))
    grads = {}
    for ix, fam, shape, d in zip(index, plan.families, plan.shapes, adj):
        if fam[-1] in wrt:
            full = np.zeros(shape)
            full[ix] = d
            grads[fam[-1]] = full.reshape(-1, shape[-1])
    return float(regs[-1]), grads


def marginal(net: BayesNet, a: Assignment) -> float:
    """B(a) for a partial assignment, by variable elimination."""
    return float(_forward(net, a)[2][-1])


def enumerate_marginal(net: BayesNet, a: Assignment) -> float:
    """Exact sum over all completions of ``a`` by full enumeration.

    Test oracle only; refuses nets of over ``2**DEFAULT_ENUM_CAP`` states.
    """
    check_assignment(net, a)
    joint = enumerate_joint(net)
    index = tuple(net.code(v, a[v]) if v in a else slice(None) for v in net.names)
    return float(np.sum(joint[index]))


def enumerate_joint(net: BayesNet) -> np.ndarray:
    """Full joint table with one axis per variable (net order)."""
    if net.state_count() > 2 ** DEFAULT_ENUM_CAP:
        raise EnumerationCapExceeded(
            f"joint has {net.state_count()} states; enumeration cap is 2**{DEFAULT_ENUM_CAP}")
    n = len(net.names)
    joint = np.ones(tuple(v.arity for v in net.variables))
    for v in net.names:
        ps = net.parents(v)
        shape = tuple(net.arity(p) for p in ps) + (net.arity(v),)
        t = net.cpts[v].table.reshape(shape + (1,) * (n - len(shape)))
        positions = [net._column[u] for u in (*ps, v)]
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
    # B(x, y) and B(y) come from two plans that round differently
    return min(1.0, marginal(net, merged) / p_y)


def family_posterior(net: BayesNet, v: str, evidence: Assignment) -> np.ndarray:
    """P(parents(v) = r, v = q | evidence) for every row r and value q,
    shaped like v's CPT: ``e[q|r] * dZ/de[q|r] / Z`` for Z = B(evidence)
    (:func:`_value_and_grad`).  Each term of Z holds exactly one entry of
    v's CPT, so e * dZ/de is the mass of e's configuration; configurations
    that contradict the evidence get 0.
    """
    net.var(v)  # an unknown name raises KeyError("unknown variable ...")
    z, dz = _value_and_grad(net, evidence, (v,))
    if z <= 0.0:
        raise ZeroEvidence(evidence)
    return net.cpts[v].table * dz[v] / z


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
    """B(target | evidence) for a statistical query; raises
    :class:`ZeroEvidence` when the net gives the evidence probability zero.

    This is the one rule by which a query gets its number.  A query whose
    evidence covers its single target's Markov blanket is answered from
    the blanket's CPT rows (:func:`mb_query`), every other query by
    :func:`cond_prob`; the value is identical either way.  The blanket's
    rows cannot see a zero elsewhere in the net, so when some entry is zero
    the evidence is first checked with :func:`marginal`; with every entry
    positive every evidence has positive probability and no check runs.
    """
    if is_markov_blanket_query(net, q):
        if q.evidence and net._has_zero() and marginal(net, q.evidence) <= 0.0:
            raise ZeroEvidence(q.evidence)
        (v, v_val), = q.target.items()
        return mb_query(net, v, v_val, q.evidence)
    return cond_prob(net, q.target, q.evidence)
