"""Parameter fitting for a fixed structure.

Two fitters are provided.  ``ofe`` fills each CPT row with (optionally
Laplace-smoothed) observed frequencies from complete tuples, ignoring the
query distribution.  ``fit_cpt`` minimizes the empirical squared-error
score over a set of labeled queries by analytic gradient descent.

The per-entry derivative of an answered conditional is

    dB(x|y) / de[q|r] = B(x|y) * (B(q,r | x,y) - B(q,r | y)) / e[q|r]

so the derivative of one query's squared error is ``2 (B(x|y) - p)``
times that.  It vanishes exactly when the answer is already correct, and
when the evidence d-separates the entry's family from the target (those
entries get exact zeros).  ``grad`` takes every general query of a query
set from one batched replay of the evidence-free plan (a ``_Program``,
built from the structure and the queries): evidence enters as 0/1
indicator factors, query ``k`` owns one batch row for its evidence and
one for its evidence and target, and the replay gives ``Z0 = B(y)``,
``Z1 = B(x, y)`` and ``B(x|y) = Z1 / Z0`` for all of them at once.  One
batched reverse sweep seeded with ``c = 2w(B - p) / Z0`` on the second
row and ``-cB`` on the first then gives the form above multiplied out,
so no entry is divided by; a 0/1 mask of the rows whose query can affect
a family keeps its exact zeros.  ``db_dentry`` and ``derr_dentry`` keep
the family-posterior form, an independent implementation.  For queries
whose evidence covers the target's Markov blanket the whole gradient
reduces to local CPT arithmetic (``_grad_blanket``); entries consistent
with the query's assignment follow the closed form

    2 (B - p) / e[q|r] * B * (1 - B)

``fit_cpt`` builds the program once and scores each line-search trial
with one batched replay (``_evaluate``), not with
``scoring.empirical_err``, and keeps the accepted trial's registers, so
each of its gradients costs one batched reverse sweep and no replay.
A trial thus eliminates the evidence-free net over ``2G`` rows for ``G``
general queries, where per-query plans would each eliminate a net sliced
by their own evidence; a net whose evidence-free elimination is much
wider than its sliced ones pays for that.

The optimizer never touches entries directly: each row is parameterized
as softmax of unconstrained scores, so rows sum to one by construction
and stay strictly inside the simplex; entry gradients are chained
through the softmax Jacobian.  The scores of all variables with the same
arity share one stacked array, so these row-wise maps run once per
arity.  Scores are clipped to +-``SCORE_BOUND``
and materialized rows are clamped into [eps_clamp, 1 - eps_clamp].
Random starts draw rows from a symmetric Dirichlet(``DIRICHLET_ALPHA``);
each restart's line search first tries ``FIRST_STEP`` and halves a step
at most ``MAX_HALVINGS`` times before the restart stalls.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import bounds
from .inference import (ZeroEvidence, _compile, _Plan, _replay, _reverse, cond_prob,
                        family_posterior, is_markov_blanket_query, mb_posterior)
from .network import BayesNet, EntryId, clamp_row, d_separated
from .queries import LabeledQuery, StatQuery
from .sampling import Dataset, collect_until_matched, cond_freq

DIRICHLET_ALPHA = 1.0
FIRST_STEP = 1.0
MAX_HALVINGS = 30
SCORE_BOUND = 30.0
# a kept-target replay's B(x|y) differs from cond_prob's by rounding only,
# at most 7e-16 relative on 1,010 random general queries
TIE_RTOL = 1e-12


# -- observed frequency estimates -------------------------------------------------


def ofe(structure: BayesNet, data: Dataset, alpha: float = 0.0) -> BayesNet:
    """Fill every CPT entry with the observed conditional frequency
    ``(count(q, r) + alpha) / (count(r) + alpha * arity)``.

    With ``alpha = 0`` a parent configuration that never occurs gets a
    uniform row.  Only the structure (variables + dag) of ``structure`` is
    used; its CPT values are ignored.
    """
    if alpha < 0:
        raise ValueError("smoothing must be non-negative")
    cols = {v: data.column(v) for v in structure.names}
    tables: dict[str, np.ndarray] = {}
    for v in structure.names:
        n_rows, arity = structure.cpts[v].table.shape
        flat = structure.row_indices(v, data.codes, cols) * arity + data.codes[:, cols[v]]
        counts = np.bincount(flat, minlength=n_rows * arity).reshape(n_rows, arity).astype(float)
        counts += alpha
        totals = counts.sum(axis=1, keepdims=True)
        table = np.divide(counts, totals, out=np.full_like(counts, 1.0 / arity), where=totals > 0)
        tables[v] = table
    return structure.with_tables(tables)


# -- analytic gradients ------------------------------------------------------------


def _family_can_affect(b: BayesNet, v: str, q: StatQuery) -> bool:
    """False only when the derivative of B(target|evidence) with respect to
    every entry of ``v``'s CPT is identically zero: the entry's family is
    either fully fixed by the evidence or d-separated from the target."""
    fam = {v, *b.parents(v)}
    if fam & q.target.keys():
        return True
    free = fam - q.evidence.keys()
    if not free:
        return False
    return not d_separated(b, free, set(q.target), set(q.evidence))


def _db_table(b: BayesNet, v: str, q: StatQuery, scale: float) -> np.ndarray:
    """``scale * (P(q,r | x,y) - P(q,r | y)) / e[q|r]`` for every entry of
    ``v``'s CPT, from two family posteriors.

    With ``scale = B(x|y)`` this is dB(x|y)/de for the whole table.
    """
    _check_positive(b, v)
    p1 = family_posterior(b, v, {**q.target, **q.evidence})
    p0 = family_posterior(b, v, q.evidence)
    return scale * (p1 - p0) / b.cpts[v].table


def _check_positive(b: BayesNet, v: str) -> None:
    table = b.cpts[v].table
    if (table <= 0.0).any():
        row, col = np.argwhere(table <= 0.0)[0]
        raise ValueError(f"entry {b.describe_entry(EntryId(v, int(row), int(col)))} is zero; "
                         "the derivative form divides by it (fit against a clamped net)")


def db_dentry(b: BayesNet, q: StatQuery, e: EntryId) -> float:
    """Derivative of the answered conditional with respect to one raw CPT
    entry, holding all other entries fixed."""
    if not _family_can_affect(b, e.var, q):
        return 0.0
    B = cond_prob(b, q.target, q.evidence)
    return float(_db_table(b, e.var, q, B)[e.row, e.value])


def derr_dentry(b: BayesNet, lq: LabeledQuery, e: EntryId) -> float:
    """Derivative of one query's squared error with respect to a raw entry:
    ``2 (B(x|y) - p) * dB/de``; exactly zero when the answer matches the
    label.  Always takes the family-posterior path, even for blanket
    queries, so it cross-checks :func:`derr_dentry_mb`."""
    B = cond_prob(b, lq.query.target, lq.query.evidence)
    resid = B - lq.label
    if resid == 0.0:
        return 0.0
    return 2.0 * resid * db_dentry(b, lq.query, e)


def derr_dentry_mb(b: BayesNet, lq: LabeledQuery, e: EntryId) -> float:
    """Blanket-query closed form for the squared-error derivative.

    Requires the query's evidence to cover the target's Markov blanket.
    Entries whose event (value, parent row) is not consistent with the
    query's target-plus-evidence assignment contribute 0 by convention;
    the rest are read from the blanket gradient.
    """
    q = lq.query
    if not is_markov_blanket_query(b, q):
        raise ValueError("query is not a Markov-blanket query")
    assignment = {**q.target, **q.evidence}
    fam = (e.var, *b.parents(e.var))
    if any(f not in assignment for f in fam):
        return 0.0
    event = dict(b.decode_row(e.var, e.row))
    event[e.var] = b.label(e.var, e.value)
    if any(assignment[f] != val for f, val in event.items()):
        return 0.0
    return float(grad(b, [lq], weights=[1.0])[e.var][e.row, e.value])


def grad(b: BayesNet, qs: Sequence[LabeledQuery], weights: Sequence[float] | None = None,
         ) -> dict[str, np.ndarray]:
    """Weighted sum of per-query error derivatives for every CPT entry.

    Returns one array per variable, shaped like its CPT.  With the default
    weights ``1/len(qs)`` this is the gradient of :func:`scoring.empirical_err`.
    Blanket queries take the local-arithmetic path, with no elimination.
    All other queries share one :class:`_Program`: one batched forward
    replay of the evidence-free plan answers every one of them, and one
    batched reverse sweep over it yields every CPT's derivative; nothing is
    divided by an entry.  Entries whose family is d-separated from a
    query's target get exact zeros from that query.  A zero entry in a
    family the query can affect raises ``ValueError``, as in
    :func:`db_dentry`.
    """
    if weights is None:
        weights = [1.0 / len(qs)] * len(qs)
    if len(weights) != len(qs):
        raise ValueError("weights must match queries")
    prog = _program(b, qs)
    _, state = _evaluate(b, prog, qs, weights)
    return _grad_from_state(b, prog, qs, weights, state)


@dataclass(frozen=True)
class _Program:
    """A query set's general queries as one batch over the evidence-free plan.

    General query ``k`` owns batch rows ``2k`` (its evidence) and ``2k + 1``
    (its evidence and target).  Evidence enters as 0/1 indicators:
    ``lam[i]`` holds, for each row, the indicator of variable ``i``'s
    observed value (all ones where the row leaves it free), shaped to
    broadcast against its CPT, or is None when no row observes it.  CPT
    register ``i`` is the table times ``lam[i]``, so one replay gives
    ``Z0 = B(y)`` and ``Z1 = B(x, y)`` for every query.  ``coef[i]`` is
    ``lam[i]`` times the 0/1 mask of rows whose query can affect ``i``'s
    CPT (:func:`_family_can_affect`), or None when no query can, so the
    summed register adjoints give exact zeros outside affected families.
    Built from the structure and the queries alone, never from values.
    """

    plan: _Plan | None  # None when every query is a blanket query
    slots: tuple[int | None, ...]  # each query's k, or None for a blanket query
    affected: tuple[tuple[str, ...], ...]  # per general query, in k order
    lam: tuple[np.ndarray | None, ...]
    coef: tuple[np.ndarray | None, ...]


def _program(b: BayesNet, qs: Sequence[LabeledQuery]) -> _Program:
    slots, rows, affected = [], [], []
    for lq in qs:
        q = lq.query
        if is_markov_blanket_query(b, q):
            slots.append(None)
            continue
        slots.append(len(affected))
        rows += [q.evidence, {**q.evidence, **q.target}]
        affected.append(tuple(v for v in b.names if _family_can_affect(b, v, q)))
    plan = _compile(b.signature(), frozenset(), ()) if rows else None
    lam, coef = [], []
    for v in b.names:
        shape = (len(rows),) + (1,) * len(b.parents(v))
        mask = np.array([v in affected[r // 2] for r in range(len(rows))], dtype=float)
        mask = mask.reshape(shape + (1,))
        ind = None
        if any(v in row for row in rows):
            # a row that leaves v free matches every value
            ind = np.array([[float(row.get(v, lab) == lab) for lab in b.domain(v)]
                            for row in rows]).reshape(shape + (-1,))
        lam.append(ind)
        coef.append(None if not mask.any() else mask if ind is None else mask * ind)
    return _Program(plan, tuple(slots), tuple(affected), tuple(lam), tuple(coef))


def _evaluate(b: BayesNet, prog: _Program, qs: Sequence[LabeledQuery],
              weights: Sequence[float]) -> tuple[float, tuple]:
    """The weighted squared error ``sum w (B - p)^2`` of ``b``'s answers, in
    query order, and the forward state :func:`_grad_from_state` needs:
    each query's answer and the batched replay's registers.

    A blanket query's answer is ``(B, post)`` with ``post`` its
    :func:`mb_posterior`, so its ``B`` is the float :func:`answer` gives.
    A general query's is ``(B, Z0)`` with ``B = Z1 / Z0`` from the replay,
    which may differ from :func:`cond_prob`'s by rounding.  The first
    query, in query order, whose evidence has zero probability raises
    :class:`ZeroEvidence`.
    """
    regs = None
    if prog.plan is not None:
        tables = (b.cpts[v].table.reshape(shape) for v, shape in zip(b.names, prog.plan.shapes))
        regs = _replay(prog.plan, [t if lam is None else t * lam
                                   for t, lam in zip(tables, prog.lam)])
    err = 0.0
    answers = []
    for lq, w, k in zip(qs, weights, prog.slots):
        q = lq.query
        if k is None:
            (v, v_val), = q.target.items()
            post = mb_posterior(b, v, q.evidence)
            ans = (float(post[b.code(v, v_val)]), post)
        else:
            z0 = float(regs[-1][2 * k])
            if z0 <= 0.0:
                raise ZeroEvidence(q.evidence)
            ans = (float(regs[-1][2 * k + 1]) / z0, z0)
        err += w * (ans[0] - lq.label) ** 2
        answers.append(ans)
    return err, (answers, regs)


def _grad_from_state(b: BayesNet, prog: _Program, qs: Sequence[LabeledQuery],
                     weights: Sequence[float], state: tuple) -> dict[str, np.ndarray]:
    """:func:`grad` from the state :func:`_evaluate` returned for ``b``: one
    batched reverse sweep and no replay.

    With ``c = 2w(B - p) / Z0`` a general query's squared-error derivative
    is ``c (dZ1 - B dZ0)``, so the sweep is seeded with ``-cB`` on its
    evidence row and ``c`` on its evidence-and-target row, and each CPT's
    gradient is its register adjoints summed over the rows with weights
    ``coef``.  The replay's ``B`` may differ from :func:`cond_prob`'s by
    rounding, so a label within ``TIE_RTOL`` of it is compared with
    :func:`cond_prob`'s instead: a label that equals the answer gets exact
    zeros.
    """
    answers, regs = state
    g = {v: np.zeros_like(b.cpts[v].table) for v in b.names}
    seed = None if regs is None else np.zeros(regs[-1].shape)
    checked: set[str] = set()
    for lq, w, k, ans in zip(qs, weights, prog.slots, answers):
        if k is None:
            _grad_blanket(g, b, lq, w, *ans)
            continue
        B, z0 = ans
        resid = B - lq.label
        if abs(resid) <= TIE_RTOL * B:
            resid = cond_prob(b, lq.query.target, lq.query.evidence) - lq.label
        if resid == 0.0:
            continue
        for v in prog.affected[k]:
            if v not in checked:
                _check_positive(b, v)
                checked.add(v)
        c = 2.0 * w * resid / z0
        seed[2 * k] = -c * B
        seed[2 * k + 1] = c
    if seed is not None and seed.any():
        adj = _reverse(prog.plan, regs, seed)
        for v, shape, coef, d in zip(b.names, prog.plan.shapes, prog.coef, adj):
            if coef is not None:
                g[v].reshape(shape)[...] += (coef * d).sum(axis=0)
    return g


def _grad_blanket(g: dict[str, np.ndarray], b: BayesNet, lq: LabeledQuery, w: float,
                  B: float, post: np.ndarray) -> None:
    """Local-arithmetic gradient for a blanket query, from ``B`` and its
    :func:`mb_posterior` ``post``.

    Only the target's own row and its children's rows can matter.  For the
    row configurations consistent with the evidence, the value matching the
    query's assignment follows the ``2(B-p) B (1-B) / e`` closed form and
    every sibling value v' follows ``-2(B-p) B B(v'|y) / e``; both fall out
    of the same normalized score vector.
    """
    q = lq.query
    (v, v_val), = q.target.items()
    y = q.evidence
    val = b.code(v, v_val)
    resid = B - lq.label
    if resid == 0.0:
        return
    coeff = 2.0 * w * resid * B

    def add(var: str, row: int, col: int, numer: float) -> None:
        if numer == 0.0:
            return
        entry = b.cpts[var].table[row, col]
        if entry <= 0.0:
            raise ValueError(f"entry {b.describe_entry(EntryId(var, row, col))} is zero; "
                             "gradient undefined")
        g[var][row, col] += numer / entry

    own_row = b.row_index(v, y)
    local = dict(y)
    for k in range(b.arity(v)):
        numer = coeff * (1.0 - B) if k == val else -coeff * float(post[k])
        add(v, own_row, k, numer)
        local[v] = b.label(v, k)
        for c in b.children(v):
            add(c, b.row_index(c, local), b.code(c, y[c]), numer)


def flatten_grad(b: BayesNet, g: Mapping[str, np.ndarray]) -> dict[EntryId, float]:
    """Per-entry view of a gradient, for reports and tests."""
    out: dict[EntryId, float] = {}
    for v, table in g.items():
        rows, arity = table.shape
        for r in range(rows):
            for k in range(arity):
                out[EntryId(v, r, k)] = float(table[r, k])
    return out


# -- gradient-descent fitter -------------------------------------------------------


@dataclass(frozen=True)
class FitOptions:
    """Knobs for :func:`fit_cpt`.

    ``init`` selects the first restart's starting point: ``"uniform"``,
    ``"dirichlet"`` (symmetric, ``DIRICHLET_ALPHA``) or ``"net"`` (the
    tables of ``fit_cpt``'s ``init_net``; pass ``ofe(structure, data,
    alpha=1.0)`` there to start from observed frequencies).  Restarts after
    the first always draw fresh Dirichlet rows, since deterministic inits
    would just repeat themselves.  The first line-search step, the halving
    limit and the score clip are the module constants ``FIRST_STEP``,
    ``MAX_HALVINGS`` and ``SCORE_BOUND``.
    """

    init: str = "dirichlet"
    restarts: int = 5
    max_iters: int = 200
    tol: float = 1e-8
    eps_clamp: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.init not in ("uniform", "dirichlet", "net"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be at least 1")
        if not 0.0 < self.eps_clamp < 0.5:
            raise ValueError("eps_clamp must lie in (0, 0.5)")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")


@dataclass(frozen=True)
class TraceRow:
    restart: int
    iteration: int
    err: float
    grad_norm: float
    step: float
    accepted: bool


@dataclass
class FitResult:
    net: BayesNet
    err: float
    trace: list[TraceRow]
    restart: int
    converged: bool
    labeled_queries: list[LabeledQuery] = field(default_factory=list)

    def write_trace_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["restart", "iteration", "err", "grad_norm", "step", "accepted"])
            for r in self.trace:
                w.writerow([r.restart, r.iteration, repr(r.err), repr(r.grad_norm),
                            repr(r.step), int(r.accepted)])


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# variable -> (arity, its rows in that arity's stack)
_Layout = dict[str, tuple[int, slice]]


def _layout(structure: BayesNet) -> _Layout:
    """Where each variable's rows sit in one ``(rows, m)`` stack per arity
    ``m``, so that row-wise maps run once per arity, not once per variable."""
    layout: _Layout = {}
    ends: dict[int, int] = {}
    for v in structure.names:
        rows, m = structure.cpts[v].table.shape
        lo = ends.get(m, 0)
        ends[m] = lo + rows
        layout[v] = (m, slice(lo, lo + rows))
    return layout


def _stack(layout: _Layout, per_var: Mapping[str, np.ndarray]) -> dict[int, np.ndarray]:
    parts: dict[int, list[np.ndarray]] = {}
    for v, (m, _) in layout.items():
        parts.setdefault(m, []).append(per_var[v])
    return {m: np.concatenate(p) for m, p in parts.items()}


def _unstack(layout: _Layout, stacks: Mapping[int, np.ndarray]) -> dict[str, np.ndarray]:
    """Each variable's rows, as views into the stacks, in net order."""
    return {v: stacks[m][rows] for v, (m, rows) in layout.items()}


def _materialize(structure: BayesNet, layout: _Layout, scores: Mapping[int, np.ndarray],
                 eps: float) -> BayesNet:
    tables = {m: clamp_row(_softmax_rows(s), eps) for m, s in scores.items()}
    return structure.with_tables(_unstack(layout, tables))


def _chain_to_scores(scores: Mapping, g_entries: Mapping, eps: float) -> dict:
    """Pull an entry-space gradient back through clamp(softmax(scores)),
    one score block at a time.

    Row map: entry_k = eps + (1 - m*eps) * softmax(s)_k, so
    d err / d s_j = (1 - m*eps) * sm_j * (g_j - sum_k sm_k g_k).
    """
    out = {}
    for key, s in scores.items():
        sm = _softmax_rows(s)
        m = s.shape[1]
        ge = g_entries[key]
        inner = (sm * ge).sum(axis=1, keepdims=True)
        out[key] = (1.0 - m * eps) * sm * (ge - inner)
    return out


def _grad_norm(g: Mapping[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float((t * t).sum()) for t in g.values())))


def _scores_from_net(structure: BayesNet, net: BayesNet, eps: float) -> dict[str, np.ndarray]:
    """Scores whose materialization reproduces ``net``'s rows.

    Inverts entry = eps + (1 - m*eps) softmax(s); rows with entries at or
    below the clamp floor land on the floor instead.
    """
    out = {}
    for v in structure.names:
        t = net.cpts[v].table
        s = np.log(np.clip((t - eps) / (1.0 - t.shape[1] * eps), 1e-300, None))
        out[v] = s - s.mean(axis=1, keepdims=True)
    return out


def _initial_scores(structure: BayesNet, opts: FitOptions, restart: int,
                    rng: np.random.Generator, init_net: BayesNet | None) -> dict[str, np.ndarray]:
    shapes = {v: structure.cpts[v].table.shape for v in structure.names}
    if restart > 0 or opts.init == "dirichlet":
        return {v: np.log(rng.dirichlet([DIRICHLET_ALPHA] * shape[1], size=shape[0]))
                for v, shape in shapes.items()}
    if opts.init == "uniform":
        return {v: np.zeros(shape) for v, shape in shapes.items()}
    if init_net is None:
        raise ValueError("init='net' requires init_net")
    return _scores_from_net(structure, init_net, opts.eps_clamp)


def fit_cpt(structure: BayesNet, qs: Sequence[LabeledQuery], opts: FitOptions = FitOptions(),
            *, init_net: BayesNet | None = None,
            on_step: Callable[[BayesNet, int, float], None] | None = None) -> FitResult:
    """Fit CPTs to labeled queries by clamped gradient descent with restarts.

    Each restart runs backtracking line search (step halved until the error
    decreases), so accepted steps never increase the empirical error, and
    stops when the score-space gradient norm falls below ``tol``, the step
    search stalls, or ``max_iters`` is reached.  The best restart by final
    error wins (ties broken by restart index).  No global optimality is
    claimed: the returned net is a local fit.

    The query set is compiled once into a :class:`_Program`, so each
    line-search trial costs one batched replay and each gradient one
    batched sweep, however many general queries there are.  Scores live in
    one stack per arity (:func:`_layout`).
    """
    if not qs:
        raise ValueError("fit_cpt needs at least one labeled query")
    rng = np.random.default_rng(opts.seed)
    weights = [1.0 / len(qs)] * len(qs)
    prog = _program(structure, qs)
    layout = _layout(structure)
    trace: list[TraceRow] = []
    best: tuple[float, int, BayesNet, bool] | None = None
    for restart in range(opts.restarts):
        scores = {m: np.clip(s, -SCORE_BOUND, SCORE_BOUND) for m, s in _stack(
            layout, _initial_scores(structure, opts, restart, rng, init_net)).items()}
        net = _materialize(structure, layout, scores, opts.eps_clamp)
        err, state = _evaluate(net, prog, qs, weights)
        step = FIRST_STEP
        converged = False
        for it in range(1, opts.max_iters + 1):
            g_entries = _stack(layout, _grad_from_state(net, prog, qs, weights, state))
            g_scores = _chain_to_scores(scores, g_entries, opts.eps_clamp)
            gnorm = _grad_norm(_unstack(layout, g_scores))
            if gnorm < opts.tol:
                trace.append(TraceRow(restart, it, err, gnorm, 0.0, False))
                converged = True
                break
            accepted = False
            t = step
            for _ in range(MAX_HALVINGS + 1):
                candidate = {m: np.clip(s - t * g_scores[m], -SCORE_BOUND, SCORE_BOUND)
                             for m, s in scores.items()}
                cand_net = _materialize(structure, layout, candidate, opts.eps_clamp)
                cand_err, cand_state = _evaluate(cand_net, prog, qs, weights)
                if cand_err < err:
                    accepted = True
                    break
                t *= 0.5
            trace.append(TraceRow(restart, it, err, gnorm, t if accepted else 0.0, accepted))
            if not accepted:
                break
            scores, net, err, state = candidate, cand_net, cand_err, cand_state
            step = t * 2.0
            if on_step is not None:
                on_step(net, it, err)
        if best is None or err < best[0]:
            best = (err, restart, net, converged)
    err, restart, net, converged = best
    return FitResult(net=net, err=err, trace=trace, restart=restart, converged=converged)


def fit_cpt_from_events(structure: BayesNet, qs: Sequence[StatQuery], source: BayesNet,
                        opts: FitOptions = FitOptions(), eps: float = 0.2, delta: float = 0.2,
                        *, cap: int = 10_000_000) -> FitResult:
    """Fit from unlabeled queries plus an event source.

    Draws tuples from ``source`` until every distinct evidence pattern has
    the required number of matches, labels each query with its observed
    conditional frequency, then runs :func:`fit_cpt` on the labeled set.
    """
    if not qs:
        raise ValueError("fit_cpt_from_events needs at least one query")
    per = bounds.m_prime_d(eps, delta, bounds.m_sq(eps, delta))
    data = collect_until_matched(source, [q.evidence for q in qs], per, cap=cap, seed=opts.seed)
    labeled = [LabeledQuery(q, cond_freq(data, q.target, q.evidence)) for q in qs]
    result = fit_cpt(structure, labeled, opts)
    result.labeled_queries = labeled
    return result
