"""Parameter fitting for a fixed structure.

Two fitters are provided.  ``ofe`` fills each CPT row with (optionally
Laplace-smoothed) observed frequencies from complete tuples, ignoring the
query distribution.  ``fit_cpt`` minimizes the query-weighted squared
error over a set of labeled queries by analytic gradient descent.

The per-entry derivative of an answered conditional is

    dB(x|y) / de[q|r] = B(x|y) * (B(q,r | x,y) - B(q,r | y)) / e[q|r]

so the derivative of one query's squared error is ``2 (B(x|y) - p)``
times that.  It vanishes exactly when the answer is already correct, and
when the evidence d-separates the entry's family from the target (those
entries get exact zeros).  ``grad`` takes every labeled query of a set,
blanket queries included, from one batched replay of the evidence-free
plan (a ``_Program``, built from the structure and the queries, which
owns their labels and weights as arrays, ``1/Q`` each by default):
evidence enters as 0/1 indicators, query ``k`` owns one batch row for
its evidence and one for its evidence and target, and the replay gives
``Z0 = B(y)``, ``Z1 = B(x, y)`` and ``B(x|y) = Z1 / Z0`` for all of them
at once.  One batched reverse sweep seeded with ``c = 2w(B - p) / Z0``
on the second row and ``-cB`` on the first then gives the form above
multiplied out, so no entry is divided by; a 0/1 mask of the rows whose
query can affect a family keeps its exact zeros.  A label within
``TIE_RTOL`` relative of the replay's answer counts as met.
``derr_dentry`` keeps the family-posterior form and ``derr_dentry_mb``
the closed form ``2 (B - p) / e[q|r] * B * (1 - B)`` of a Markov-blanket
query's consistent entries, with ``B`` from ``mb_posterior``: two
implementations independent of the batch and of each other.

``fit_cpt`` builds the program once.  A line-search round scores up to
``LINE_BATCH`` step halvings (``t``, ``t/2``, ``t/4``) in one batched
replay of their clamped tables (``_evaluate``), with a candidate axis in
front of the query rows and no net built, and accepts the first that
lowers the error, so trials, steps and results are those of halving one
step at a time.  The accepted candidate's registers are kept, so each
gradient costs one batched reverse sweep and no replay, and comes back
as one stack per arity.  A candidate thus eliminates the evidence-free
net over ``2Q`` rows for ``Q`` queries, where per-query plans would each
eliminate a net sliced by their own evidence; a net whose evidence-free
elimination is much wider than its sliced ones pays for that.

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
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import bounds
from .inference import (ZeroEvidence, _compile, _Plan, _replay, _reverse, cond_prob,
                        family_posterior, is_markov_blanket_query, mb_posterior)
from .network import BayesNet, EntryId, clamp_row, d_separated
from .queries import LabeledQuery, StatQuery, _query_weights, label_from_data
from .sampling import Dataset, collect_until_matched

DIRICHLET_ALPHA = 1.0
FIRST_STEP = 1.0
MAX_HALVINGS = 30
LINE_BATCH = 3  # step halvings a line-search round scores in one batched replay
SCORE_BOUND = 30.0
# a label this close, relative, to a replay's B(x|y) counts as met; that B differs from
# answer's by 6e-16 relative at most, on 1,010 general and 1,032 blanket random queries
TIE_RTOL = 1e-12


# -- observed frequency estimates -------------------------------------------------


def ofe(structure: BayesNet, data: Dataset, alpha: float = 0.0) -> BayesNet:
    """Fill every CPT entry with the observed conditional frequency
    ``(count(q, r) + alpha) / (count(r) + alpha * arity)``.

    With ``alpha = 0`` a parent configuration that never occurs gets a
    uniform row.  Only the structure (variables + dag) of ``structure`` is
    used; its CPT values are ignored.
    """
    if not 0.0 <= alpha < np.inf:
        raise ValueError(f"smoothing must be finite and non-negative, got {alpha}")
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
    """Raise ``ValueError`` naming the first zero entry of ``v``'s CPT."""
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
    """Blanket-query closed form ``2 (B - p) B (1 - B) / e`` of the
    squared-error derivative, with ``B`` from :func:`mb_posterior`.

    Requires the query's evidence to cover the target's Markov blanket.
    Entries whose family lacks the target or whose event (value, parent
    row) contradicts the query's assignment contribute 0 by convention.
    A zero entry raises ``ValueError`` unless the numerator is 0.
    """
    q = lq.query
    if not is_markov_blanket_query(b, q):
        raise ValueError("query is not a Markov-blanket query")
    (v, v_val), = q.target.items()
    assignment = {**q.target, **q.evidence}
    event = dict(b.decode_row(e.var, e.row))  # the entry's family, parents first
    event[e.var] = b.label(e.var, e.value)
    if v not in event or any(assignment[f] != val for f, val in event.items()):
        return 0.0
    B = float(mb_posterior(b, v, q.evidence)[b.code(v, v_val)])
    numer = 2.0 * (B - lq.label) * B * (1.0 - B)
    if numer == 0.0:
        return 0.0
    entry = float(b.cpts[e.var].table[e.row, e.value])
    if entry <= 0.0:
        raise ValueError(f"entry {b.describe_entry(e)} is zero; gradient undefined")
    return numer / entry


def grad(b: BayesNet, qs: Sequence[LabeledQuery], weights: Sequence[float] | None = None,
         ) -> dict[str, np.ndarray]:
    """Weighted sum of per-query error derivatives for every CPT entry.

    Returns one array per variable, shaped like its CPT: the gradient of
    :func:`scoring.empirical_err` with the same weights (``1/len(qs)`` each by default).
    Every query, blanket queries included, shares one :class:`_Program`:
    one batched replay of the evidence-free plan answers them all and one
    batched reverse sweep yields every CPT's derivative, dividing by no
    entry.  A label within 1e-12 relative of the replay's answer
    (``TIE_RTOL``) counts as met and gives exact zeros, as do entries whose
    family is d-separated from a query's target.  Evidence of probability
    zero raises :class:`ZeroEvidence`, for a blanket query too, which
    :func:`answer`'s fast path does not notice.  A zero entry in a family
    the query can affect raises ``ValueError``, as in :func:`db_dentry`.
    """
    if not qs:
        raise ValueError("grad needs at least one labeled query")
    prog = _program(b, qs, weights)
    tables = _stack(prog.layout, {v: b.cpts[v].table[None] for v in b.names})
    _, state = next(_evaluate(prog, tables))
    # every family some query whose label is not met can affect, in net order
    for i in np.flatnonzero(prog.affected[~state[3][0]].any(axis=0)):
        _check_positive(b, b.names[i])
    return _unstack(prog.layout, _grad_from_state(prog, state))


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
    """One array per arity: the variables' arrays joined along their row
    axis, the second to last, so leading axes ride along."""
    parts: dict[int, list[np.ndarray]] = {}
    for v, (m, _) in layout.items():
        parts.setdefault(m, []).append(per_var[v])
    return {m: np.concatenate(p, axis=-2) for m, p in parts.items()}


def _unstack(layout: _Layout, stacks: Mapping[int, np.ndarray]) -> dict[str, np.ndarray]:
    """Each variable's rows, as views into the ``(rows, m)`` stacks, in net order."""
    return {v: stacks[m][rows] for v, (m, rows) in layout.items()}


@dataclass(frozen=True)
class _Program:
    """A query set as one batch over the evidence-free plan, and the one owner
    of its ``(Q,)`` ``labels`` and ``weights``, each query's ``evidence`` (for
    :class:`ZeroEvidence`) and ``affected[k, i]``: whether query ``k`` can
    affect the CPT at net position ``i`` (:func:`_family_can_affect`, run once
    per role of target and evidence variables).  Query ``k`` owns batch rows
    ``2k`` (its evidence) and ``2k + 1`` (its evidence and target).
    ``lam[i]`` holds, for each row, the 0/1 indicator of variable ``i``'s
    observed value (all ones where the row leaves it free), shaped to
    broadcast against its CPT, or is None when no row observes it.  CPT
    register ``i`` is the table times ``lam[i]``, so one replay gives ``Z0 =
    B(y)`` and ``Z1 = B(x, y)`` for every query.  ``coef[m]`` holds, for the
    variables of arity ``m`` laid out as in ``layout``, ``lam`` times the
    query's ``affected`` bit, shaped ``(rows, CPT rows, m)``, so the summed
    register adjoints give exact zeros outside affected families.  Built from
    the structure and the queries, never from values.
    """

    plan: _Plan
    labels: np.ndarray
    weights: np.ndarray
    evidence: tuple[Mapping[str, str], ...]
    affected: np.ndarray
    layout: _Layout
    lam: tuple[np.ndarray | None, ...]
    coef: dict[int, np.ndarray]


def _program(b: BayesNet, qs: Sequence[LabeledQuery],
             weights: Sequence[float] | None = None) -> _Program:
    pos, rows = {v: i for i, v in enumerate(b.names)}, 2 * len(qs)
    weights = np.array(_query_weights(len(qs), weights))
    # value codes of each query's evidence and evidence-and-target rows, -1 if free
    codes = np.full((len(qs), 2, len(pos)), -1)
    roles, affected = {}, []
    for k, lq in enumerate(qs):
        q = lq.query
        for v, val in {**q.evidence, **q.target}.items():
            codes[k, int(v in q.target):, pos[v]] = b.code(v, val)
        role = (frozenset(q.target), frozenset(q.evidence))
        if role not in roles:
            roles[role] = [_family_can_affect(b, v, q) for v in b.names]
        affected.append(roles[role])
    affected = np.array(affected, dtype=bool)
    plan = _compile(b.signature(), frozenset())
    lam, coef = [], {}
    for i, (v, family) in enumerate(zip(b.names, plan.shapes)):
        shape = (rows,) + (1,) * len(b.parents(v))
        col = codes[:, :, i].reshape(rows, 1)
        # a row that leaves v free matches every value
        ind = ((col < 0) | (col == np.arange(family[-1]))).astype(float).reshape(shape + (-1,))
        lam.append(ind if (col >= 0).any() else None)
        mask = np.repeat(affected[:, i], 2).reshape(shape + (1,))
        coef[v] = np.broadcast_to(mask * ind, (rows,) + family).reshape(rows, -1, family[-1])
    layout = _layout(b)
    return _Program(plan, np.array([lq.label for lq in qs]), weights,
                    tuple(lq.query.evidence for lq in qs), affected, layout, tuple(lam),
                    _stack(layout, coef))


def _evaluate(prog: _Program, tables: Mapping[int, np.ndarray]) -> Iterator[tuple[float, tuple]]:
    """Score ``k`` candidate CPT sets in one batched replay.

    ``tables`` holds one ``(k, rows, m)`` stack per arity ``m``, laid out
    as ``prog.layout``.  Yields, candidate by candidate, the weighted
    squared error ``sum w (B - p)^2``, summed in query order
    (``np.add.accumulate``), and the forward state
    :func:`_grad_from_state` needs: the ``(k, Q)`` arrays ``B = Z1 / Z0``,
    ``B - p``, ``Z0`` and the labels met (within ``TIE_RTOL`` relative),
    the batched registers and the candidate's index.  The first query, in
    query order, whose evidence has zero probability raises
    :class:`ZeroEvidence` when its candidate is reached, so a candidate
    never asked for never raises, and is not scored.

    A register carries the candidate axis and the query-row axis; a
    variable no row observes keeps size 1 on the row axis and is not
    multiplied by anything, which gives each candidate the bits of its own
    unbatched replay.  ``B`` may differ from :func:`answer`'s by rounding.
    """
    regs = []
    for (m, rows), shape, lam in zip(prog.layout.values(), prog.plan.shapes, prog.lam):
        t = tables[m][:, rows].reshape((-1, 1) + shape)
        regs.append(t if lam is None else t * lam)
    regs = _replay(prog.plan, regs)
    z0, z1 = regs[-1][:, 0::2], regs[-1][:, 1::2]
    reached = int((z0 <= 0.0).any(axis=1).argmax()) if z0.min() <= 0.0 else len(z0)
    B = z1[:reached] / z0[:reached]
    d = B - prog.labels
    err = np.add.accumulate(prog.weights * (d * d), axis=1)[:, -1].tolist()
    met = np.abs(d) <= TIE_RTOL * B
    for j in range(reached):
        yield err[j], (B, d, z0, met, regs, j)
    if reached < len(regs[-1]):
        raise ZeroEvidence(prog.evidence[int((regs[-1][reached, 0::2] <= 0.0).argmax())])


def _grad_from_state(prog: _Program, state: tuple) -> dict[int, np.ndarray]:
    """:func:`grad` as one ``(rows, m)`` stack per arity, laid out as
    ``prog.layout``, from the state :func:`_evaluate` yielded for one
    candidate: one batched reverse sweep over its registers and no replay.

    With ``c = 2w(B - p) / Z0`` a query's squared-error derivative is
    ``c (dZ1 - B dZ0)``, so the sweep is seeded with ``-cB`` on its
    evidence row and ``c`` on its evidence-and-target row.  The register
    adjoints are copied into one ``(query rows, rows, m)`` buffer per
    arity, multiplied once by ``prog.coef`` and summed over the query
    rows.  A query whose label is met (``TIE_RTOL``) seeds ``+0.0``, so a
    label that equals the answer gets exact zeros although the replay's
    ``B`` may differ from :func:`answer`'s by rounding.  Checks no entry
    for zero; :func:`grad` does that.
    """
    B, d, z0, met, regs, j = state
    regs = [r[j] for r in regs]
    c = 2.0 * prog.weights * d[j] / z0[j]
    seed = np.empty(regs[-1].shape)
    seed[0::2] = -c * B[j]
    seed[1::2] = c
    seed.reshape(-1, 2)[met[j]] = 0.0
    if not seed.any():
        return {m: np.zeros(c.shape[1:]) for m, c in prog.coef.items()}
    adj = _reverse(prog.plan, regs, seed)
    bufs = {m: np.empty(c.shape) for m, c in prog.coef.items()}
    for (m, rows), shape, d in zip(prog.layout.values(), prog.plan.shapes, adj):
        bufs[m][:, rows].reshape(seed.shape + shape)[...] = d
    return {m: (buf * prog.coef[m]).sum(axis=0) for m, buf in bufs.items()}


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
    limit, the round size and the score clip are the module constants
    ``FIRST_STEP``, ``MAX_HALVINGS``, ``LINE_BATCH`` and ``SCORE_BOUND``.
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
        if not self.tol >= 0:
            raise ValueError("tol must be non-negative")

    def check_arities(self, structure: BayesNet) -> None:
        """Raise ``ValueError`` naming the first variable of ``structure``
        whose arity ``m`` leaves clamped rows no room: ``eps_clamp * m >= 1``."""
        for v in structure.names:
            m = structure.arity(v)
            if self.eps_clamp * m >= 1.0:
                raise ValueError(f"eps_clamp {self.eps_clamp} leaves no room for the "
                                 f"{m} values of {v!r}")


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
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _materialize(scores: Mapping[int, np.ndarray], eps: float) -> dict[int, np.ndarray]:
    """The clamped softmax rows of every score stack, leading axes kept."""
    return {m: clamp_row(_softmax_rows(s), eps) for m, s in scores.items()}


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


def _pick(stacks: Mapping[int, np.ndarray], j: int) -> dict[int, np.ndarray]:
    """Candidate ``j``'s slice of every stack."""
    return {m: s[j] for m, s in stacks.items()}


def _line_search(prog: _Program, scores: Mapping[int, np.ndarray],
                 g_scores: Mapping[int, np.ndarray], err: float, step: float,
                 eps: float) -> tuple | None:
    """The first of the steps ``step``, ``step/2``, ... (``MAX_HALVINGS``
    halvings) whose error is below ``err``, as ``(t, scores, tables, err,
    state)``, or None when every step fails.

    The steps are scored ``LINE_BATCH`` at a time in one batched replay
    (a round) and accepted in order, so the outcome is that of trying them
    one by one: the halvings are the same floats, and a candidate after
    the accepted one is scored but never reached.
    """
    ts = [step]
    for _ in range(MAX_HALVINGS):
        ts.append(ts[-1] * 0.5)
    for lo in range(0, len(ts), LINE_BATCH):
        batch = np.array(ts[lo:lo + LINE_BATCH]).reshape(-1, 1, 1)
        cand = {m: np.clip(s - batch * g_scores[m], -SCORE_BOUND, SCORE_BOUND)
                for m, s in scores.items()}
        tables = _materialize(cand, eps)
        for j, (cand_err, state) in enumerate(_evaluate(prog, tables)):
            if cand_err < err:
                return ts[lo + j], _pick(cand, j), _pick(tables, j), cand_err, state
    return None


def fit_cpt(structure: BayesNet, qs: Sequence[LabeledQuery], opts: FitOptions = FitOptions(),
            *, weights: Sequence[float] | None = None, init_net: BayesNet | None = None,
            on_step: Callable[[BayesNet, int, float], None] | None = None) -> FitResult:
    """Fit CPTs to labeled queries by clamped gradient descent with restarts.

    Each restart runs backtracking line search (step halved until the error
    decreases), so accepted steps never increase the empirical error, and
    stops when the score-space gradient norm falls below ``tol``, the step
    search stalls, or ``max_iters`` is reached.  The best restart by final
    error wins (ties broken by restart index).  No global optimality is
    claimed: the returned net is a local fit.  A clamp too wide for some
    variable's arity raises ``ValueError`` before any work.

    The query set is compiled once into a :class:`_Program`.  Scores live
    in one stack per arity (:func:`_layout`), and a line-search round
    scores up to ``LINE_BATCH`` step halvings in one batched replay
    (:func:`_line_search`), with the same trials, steps and results as
    halving one step at a time.  Each gradient is one batched sweep over
    the accepted candidate's registers and comes back as one stack per
    arity.  A net is built only for ``on_step`` and for the returned fit.
    ``weights``, one per query and ``1/len(qs)`` each by default, weight the errors.
    """
    if not qs:
        raise ValueError("fit_cpt needs at least one labeled query")
    opts.check_arities(structure)
    rng = np.random.default_rng(opts.seed)
    prog = _program(structure, qs, weights)
    layout = prog.layout
    trace: list[TraceRow] = []
    best: tuple[float, int, dict[int, np.ndarray], bool] | None = None

    def net_of(tables: Mapping[int, np.ndarray]) -> BayesNet:
        return structure.with_tables(_unstack(layout, tables))

    for restart in range(opts.restarts):
        scores = {m: np.clip(s, -SCORE_BOUND, SCORE_BOUND) for m, s in _stack(
            layout, _initial_scores(structure, opts, restart, rng, init_net)).items()}
        tables = _materialize({m: s[None] for m, s in scores.items()}, opts.eps_clamp)
        err, state = next(_evaluate(prog, tables))
        tables = _pick(tables, 0)
        step = FIRST_STEP
        converged = False
        for it in range(1, opts.max_iters + 1):
            g_scores = _chain_to_scores(scores, _grad_from_state(prog, state), opts.eps_clamp)
            gnorm = _grad_norm(_unstack(layout, g_scores))
            if gnorm < opts.tol:
                trace.append(TraceRow(restart, it, err, gnorm, 0.0, False))
                converged = True
                break
            found = _line_search(prog, scores, g_scores, err, step, opts.eps_clamp)
            trace.append(TraceRow(restart, it, err, gnorm, 0.0 if found is None else found[0],
                                  found is not None))
            if found is None:
                break
            t, scores, tables, err, state = found
            step = t * 2.0
            if on_step is not None:
                on_step(net_of(tables), it, err)
        if best is None or err < best[0]:
            best = (err, restart, tables, converged)
    err, restart, tables, converged = best
    return FitResult(net=net_of(tables), err=err, trace=trace, restart=restart,
                     converged=converged)


def fit_cpt_from_events(structure: BayesNet, qs: Sequence[StatQuery], source: BayesNet,
                        opts: FitOptions = FitOptions(), eps: float = 0.2,
                        delta: float = 0.2) -> FitResult:
    """Fit from unlabeled queries plus an event source.

    Draws tuples from ``source`` until every distinct evidence pattern has
    the required number of matches, labels each query with its observed
    conditional frequency, then runs :func:`fit_cpt` on the labeled set.
    """
    if not qs:
        raise ValueError("fit_cpt_from_events needs at least one query")
    per = bounds.m_prime_d(eps, delta, bounds.m_sq(eps, delta))
    data = collect_until_matched(source, [q.evidence for q in qs], per, seed=opts.seed)
    labeled = label_from_data(data, qs)
    result = fit_cpt(structure, labeled, opts)
    result.labeled_queries = labeled
    return result
