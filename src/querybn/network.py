"""Discrete Bayesian networks: variables, DAG structure, CPTs, graph queries.

A :class:`BayesNet` couples a directed acyclic graph over named
finite-domain variables with one conditional probability table (CPT) per
variable.  The probability of a complete assignment factorizes as the
product of one CPT entry per variable.

CPT rows follow a fixed canonical order: parent configurations enumerate
in the declared parent order with the *last* parent varying fastest
(row-major).  For parent value codes c_1..c_k with arities a_1..a_k the
row index is ``((c_1 * a_2 + c_2) * a_3 + c_3) ...``.  The JSON net format
and every entry id in traces and reports rely on this order.

Networks are immutable values: all operations here are pure, and
modification happens by building a new net (see :meth:`BayesNet.with_tables`).
"""

from __future__ import annotations

import copy
import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .queries import StatQuery

# A (partial) assignment maps variable names to value labels.
Assignment = Mapping[str, str]

ROW_SUM_TOL = 1e-9


class CycleError(ValueError):
    """The directed graph admits no topological order."""


class InvalidNetError(ValueError):
    """A net file failed validation; ``violations`` lists the findings."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid net: " + "; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class Variable:
    """A named variable with an ordered finite domain of value labels."""

    name: str
    domain: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(str(v) for v in self.domain))

    @property
    def arity(self) -> int:
        return len(self.domain)


@dataclass(frozen=True)
class Dag:
    """Node names plus an ordered parent list per node.

    Parent order is significant: it fixes the canonical CPT row order.
    """

    nodes: tuple[str, ...]
    parents: Mapping[str, tuple[str, ...]]

    @classmethod
    def from_edges(cls, nodes: Sequence[str], edges: Iterable[tuple[str, str]]) -> "Dag":
        """Build a Dag from (parent, child) pairs; parents keep edge order."""
        parents: dict[str, list[str]] = {n: [] for n in nodes}
        for parent, child in edges:
            parents.setdefault(child, []).append(parent)
        return cls(tuple(nodes), {n: tuple(ps) for n, ps in parents.items()})

    def children_map(self) -> dict[str, tuple[str, ...]]:
        children: dict[str, list[str]] = {n: [] for n in self.nodes}
        for child, ps in self.parents.items():
            for p in ps:
                children.setdefault(p, []).append(child)
        return {n: tuple(cs) for n, cs in children.items()}

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm; raises :class:`CycleError` when no order exists."""
        indeg = {n: 0 for n in self.nodes}
        for n in self.nodes:
            for p in self.parents.get(n, ()):
                if p in indeg:
                    indeg[n] += 1
        children = self.children_map()
        ready = deque(n for n in self.nodes if indeg[n] == 0)
        order: list[str] = []
        while ready:
            n = ready.popleft()
            order.append(n)
            for c in children.get(n, ()):
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(order) != len(self.nodes):
            raise CycleError("graph contains a directed cycle")
        return tuple(order)


class EntryId(NamedTuple):
    """Identifies one CPT entry: (variable, canonical row index, value index)."""

    var: str
    row: int
    value: int


@dataclass(frozen=True)
class Cpt:
    """CPT of one variable: one probability row per parent configuration."""

    table: np.ndarray  # shape (n_parent_configs, arity)

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim == 1:
            t = t.reshape(1, -1)
        t = np.ascontiguousarray(t)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


class BayesNet:
    """An immutable discrete Bayesian network.

    The constructor is permissive so that :func:`validate` can inspect
    malformed nets (cycles, bad row sums, shape mismatches); inference and
    sampling assume a net that validates cleanly.
    """

    def __init__(self, variables: Sequence[Variable], dag: Dag, cpts: Mapping[str, Cpt]):
        self.variables = tuple(variables)
        self.dag = dag
        self.cpts = dict(cpts)
        self._var = {v.name: v for v in self.variables}
        self._code = {v.name: {lab: i for i, lab in enumerate(v.domain)} for v in self.variables}
        self._children = dag.children_map()
        self._topo: tuple[str, ...] | None = None
        self._signature: tuple | None = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_dict(cls, doc: Mapping) -> "BayesNet":
        """Build a net from the JSON document structure (see `save_net`)."""
        variables = [Variable(str(v["name"]), tuple(v["domain"])) for v in doc["variables"]]
        names = [v.name for v in variables]
        dag = Dag.from_edges(names, [(str(p), str(c)) for p, c in doc.get("edges", [])])
        cpts = {name: Cpt(np.asarray(rows, dtype=float)) for name, rows in doc.get("cpts", {}).items()}
        return cls(variables, dag, cpts)

    @classmethod
    def uniform(cls, variables: Sequence[Variable], dag: Dag) -> "BayesNet":
        """A net over the given structure with every CPT row uniform."""
        net_vars = {v.name: v for v in variables}
        cpts = {}
        for name in dag.nodes:
            arity = net_vars[name].arity
            rows = 1
            for p in dag.parents.get(name, ()):
                rows *= net_vars[p].arity
            cpts[name] = Cpt(np.full((rows, arity), 1.0 / arity))
        return cls(variables, dag, cpts)

    def with_tables(self, tables: Mapping[str, np.ndarray]) -> "BayesNet":
        """Copy of this net with some CPT tables replaced.

        The copy shares this net's structure and the maps derived from it,
        which no net ever changes.
        """
        net = copy.copy(self)
        net.cpts = dict(self.cpts)
        for name, table in tables.items():
            net.cpts[name] = Cpt(np.asarray(table, dtype=float))
        return net

    # -- basic accessors -------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def var(self, name: str) -> Variable:
        try:
            return self._var[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def arity(self, name: str) -> int:
        return self.var(name).arity

    def domain(self, name: str) -> tuple[str, ...]:
        return self.var(name).domain

    def code(self, name: str, label: str) -> int:
        try:
            codes = self._code[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None
        try:
            return codes[label]
        except KeyError:
            raise ValueError(f"value {label!r} not in domain of {name!r}") from None

    def label(self, name: str, code: int) -> str:
        return self.var(name).domain[code]

    def parents(self, name: str) -> tuple[str, ...]:
        self.var(name)
        return self.dag.parents.get(name, ())

    def children(self, name: str) -> tuple[str, ...]:
        self.var(name)
        return self._children.get(name, ())

    def topological_order(self) -> tuple[str, ...]:
        if self._topo is None:
            self._topo = self.dag.topological_order()
        return self._topo

    def signature(self) -> tuple[tuple[str, int, tuple[str, ...]], ...]:
        """``(name, arity, parents)`` of every variable, in net order.

        A value-based key for the structure alone: nets that share it
        share every elimination plan, whatever their tables hold.
        """
        if self._signature is None:
            self._signature = tuple((v.name, v.arity, self.parents(v.name)) for v in self.variables)
        return self._signature

    def state_count(self) -> int:
        n = 1
        for v in self.variables:
            n *= v.arity
        return n

    # -- CPT addressing --------------------------------------------------------

    def row_index(self, name: str, assignment: Assignment) -> int:
        """Canonical row index of ``name``'s CPT under the given parent values."""
        idx = 0
        for p in self.parents(name):
            idx = idx * self.arity(p) + self.code(p, assignment[p])
        return idx

    def row_indices(self, name: str, codes: np.ndarray, cols: Mapping[str, int]) -> np.ndarray:
        """:meth:`row_index` of every row of a code matrix whose column for
        variable ``v`` is ``cols[v]``."""
        rows = np.zeros(len(codes), dtype=np.int64)
        for p in self.parents(name):
            rows = rows * self.arity(p) + codes[:, cols[p]]
        return rows

    def decode_row(self, name: str, row: int) -> dict[str, str]:
        """Inverse of :meth:`row_index`: parent labels for a canonical row."""
        ps = self.parents(name)
        codes: list[int] = []
        for p in reversed(ps):
            a = self.arity(p)
            codes.append(row % a)
            row //= a
        codes.reverse()
        return {p: self.label(p, c) for p, c in zip(ps, codes)}

    def entry_ids(self, name: str | None = None) -> list[EntryId]:
        """All entry ids of one variable (or of the whole net)."""
        names = [name] if name is not None else list(self.names)
        out = []
        for v in names:
            rows, arity = self.cpts[v].table.shape
            out.extend(EntryId(v, r, k) for r in range(rows) for k in range(arity))
        return out

    def describe_entry(self, e: EntryId) -> str:
        cond = ",".join(f"{p}={lab}" for p, lab in self.decode_row(e.var, e.row).items())
        head = f"{e.var}={self.label(e.var, e.value)}"
        return f"e[{head}|{cond}]" if cond else f"e[{head}]"

    # -- probabilistic / graphical queries -------------------------------------

    def joint_prob(self, assignment: Assignment) -> float:
        """Product of matching CPT entries; requires a complete assignment."""
        missing = set(self.names) - set(assignment)
        if missing:
            raise ValueError(f"assignment must bind every variable; missing {sorted(missing)}")
        p = 1.0
        for v in self.names:
            row = self.row_index(v, assignment)
            p *= self.cpts[v].table[row, self.code(v, assignment[v])]
        return float(p)

    def markov_blanket(self, name: str) -> frozenset[str]:
        """Parents, children, and children's other parents of ``name``."""
        self.var(name)
        blanket = set(self.parents(name)) | set(self.children(name))
        for c in self.children(name):
            blanket.update(self.parents(c))
        blanket.discard(name)
        return frozenset(blanket)


# -- Bayes-ball traversal ------------------------------------------------------


def _bayes_ball(net: BayesNet, sources: Iterable[str], observed: set[str]) -> tuple[set[str], set[str]]:
    """Shachter's Bayes-ball pass from ``sources`` given ``observed``.

    Returns ``(top, bottom)`` marks.  A node is reachable through an active
    trail iff it carries either mark; the CPT of a node can influence the
    conditional of the sources given the observations iff the node is
    top-marked (the "requisite probability node" criterion).
    """
    top: set[str] = set()
    bottom: set[str] = set()
    agenda: deque[tuple[str, bool]] = deque((s, True) for s in sources)  # True = arrived from a child
    while agenda:
        node, from_child = agenda.popleft()
        if from_child:
            if node in observed:
                continue
            if node not in top:
                top.add(node)
                agenda.extend((p, True) for p in net.parents(node))
            if node not in bottom:
                bottom.add(node)
                agenda.extend((c, False) for c in net.children(node))
        else:
            if node in observed:
                if node not in top:
                    top.add(node)
                    agenda.extend((p, True) for p in net.parents(node))
            elif node not in bottom:
                bottom.add(node)
                agenda.extend((c, False) for c in net.children(node))
    return top, bottom


def d_separated(net: BayesNet, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str]) -> bool:
    """True iff every trail between ``xs`` and ``ys`` is blocked given ``zs``."""
    xs, ys, zs = set(xs), set(ys), set(zs)
    for group in (xs, ys, zs):
        for n in group:
            net.var(n)
    if xs & ys or xs & zs or ys & zs:
        raise ValueError("d-separation requires pairwise disjoint variable sets")
    top, bottom = _bayes_ball(net, xs, zs)
    return not (ys & (top | bottom))


def requisite_cpd_vars(net: BayesNet, targets: Iterable[str], evidence: Iterable[str]) -> frozenset[str]:
    """Variables whose CPT can influence p(targets | evidence).

    These are the top-marked nodes of a Bayes-ball pass.  Rows of every
    other variable may be perturbed (and renormalized) without changing the
    conditional.
    """
    targets, evidence = set(targets), set(evidence)
    top, _ = _bayes_ball(net, targets, evidence)
    return frozenset(top)


def relevant_entries(net: BayesNet, queries: Iterable[StatQuery]) -> set[EntryId]:
    """CPT entries that can affect the net's answer to some query in ``queries``.

    Entries outside the returned set provably cannot change any answered
    conditional, however their row is re-distributed.
    """
    needed: set[str] = set()
    for q in queries:
        needed |= requisite_cpd_vars(net, q.target.keys(), q.evidence.keys())
    out: set[EntryId] = set()
    for v in needed:
        out.update(net.entry_ids(v))
    return out


# -- validation ----------------------------------------------------------------


def validate(net: BayesNet, *, eps_clamp: float | None = None) -> list[str]:
    """Check every structural invariant; return one message per violation.

    Passing ``eps_clamp`` additionally requires every entry to lie in
    ``[eps_clamp, 1 - eps_clamp]`` (clamped mode); an ``eps_clamp``
    outside (0, 0.5) raises ``ValueError``.
    """
    if eps_clamp is not None and not 0.0 < eps_clamp < 0.5:
        raise ValueError(f"eps_clamp must lie in (0, 0.5), got {eps_clamp}")
    out: list[str] = []
    names = [v.name for v in net.variables]
    seen: set[str] = set()
    for n in names:
        if n in seen:
            out.append(f"duplicate variable name {n!r}")
        seen.add(n)
    for v in net.variables:
        if v.arity < 2:
            out.append(f"variable {v.name!r}: domain must list at least 2 values")
        if len(set(v.domain)) != v.arity:
            out.append(f"variable {v.name!r}: duplicate value labels")

    name_set = set(names)
    dag_nodes = set(net.dag.nodes)
    for extra in sorted(dag_nodes - name_set):
        out.append(f"dag node {extra!r} has no variable declaration")
    for missing in sorted(name_set - dag_nodes):
        out.append(f"variable {missing!r} missing from dag nodes")

    for n, ps in net.dag.parents.items():
        if n not in dag_nodes:
            out.append(f"edge references unknown child {n!r}")
        if len(set(ps)) != len(ps):
            out.append(f"node {n!r}: duplicate parents")
        for p in ps:
            if p not in name_set:
                out.append(f"node {n!r}: unknown parent {p!r}")
    try:
        net.dag.topological_order()
    except CycleError:
        out.append("dag contains a directed cycle (no topological order exists)")

    for n in names:
        if n not in net.cpts:
            out.append(f"variable {n!r} has no CPT")
    for n in net.cpts:
        if n not in name_set:
            out.append(f"CPT for unknown variable {n!r}")

    for n, cpt in net.cpts.items():
        if n not in name_set:
            continue
        t = cpt.table
        arity = net.arity(n)
        expect_rows = 1
        for p in net.dag.parents.get(n, ()):
            if p in name_set:
                expect_rows *= net.arity(p)
        if t.ndim != 2 or t.shape[1] != arity:
            out.append(f"cpt[{n}]: row width {t.shape[-1] if t.ndim else '?'} != arity {arity}")
            continue
        if t.shape[0] != expect_rows:
            out.append(f"cpt[{n}]: {t.shape[0]} rows != {expect_rows} parent configurations")
        if not np.all(np.isfinite(t)):
            out.append(f"cpt[{n}]: non-finite entries")
            continue
        bad = (t < -1e-12) | (t > 1 + 1e-12)
        for r in np.nonzero(bad.any(axis=1))[0]:
            out.append(f"cpt[{n}] row {int(r)}: entry outside [0, 1]")
        sums = t.sum(axis=1)
        for r in np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]:
            out.append(f"cpt[{n}] row {int(r)}: sum {sums[r]:.12g} != 1")
        if eps_clamp is not None:
            lo, hi = eps_clamp - 1e-15, 1 - eps_clamp + 1e-15
            for r in np.nonzero(((t < lo) | (t > hi)).any(axis=1))[0]:
                out.append(f"cpt[{n}] row {int(r)}: entry outside clamp [{eps_clamp}, 1-{eps_clamp}]")
    return out


def check_assignment(net: BayesNet, a: Assignment) -> None:
    """Raise unless every binding names a known variable and in-domain value."""
    for name, label in a.items():
        net.code(name, label)  # raises on unknown variable or value


# -- row clamping ----------------------------------------------------------------


def clamp_row(row: np.ndarray, eps: float) -> np.ndarray:
    """Shrink a probability row linearly toward uniform so that every entry
    lands in ``[eps, 1 - eps]`` exactly while the row still sums to 1."""
    row = np.asarray(row, dtype=float)
    m = row.shape[-1]
    if not 0 < eps * m < 1:
        raise ValueError(f"eps {eps} incompatible with arity {m}")
    total = row.sum(axis=-1, keepdims=True)
    return eps + (1.0 - m * eps) * (row / total)


def clamp_net(net: BayesNet, eps: float) -> BayesNet:
    """Copy of ``net`` with every CPT row clamped to ``[eps, 1 - eps]``."""
    return net.with_tables({v: clamp_row(net.cpts[v].table, eps) for v in net.names})


# -- JSON net format -------------------------------------------------------------
#
# {"variables": [{"name": .., "domain": [..]}, ..],
#  "edges": [["parent", "child"], ..],
#  "cpts": {"var": [[row ..], ..], ..}}
#
# CPT rows use the canonical order documented at the top of this module.


def net_to_dict(net: BayesNet) -> dict:
    return {
        "variables": [{"name": v.name, "domain": list(v.domain)} for v in net.variables],
        "edges": [[p, c] for c in net.dag.nodes for p in net.dag.parents.get(c, ())],
        "cpts": {n: net.cpts[n].table.tolist() for n in net.names if n in net.cpts},
    }


def save_net(net: BayesNet, path) -> None:
    with open(path, "w") as fh:
        json.dump(net_to_dict(net), fh, indent=2)
        fh.write("\n")


def load_net(path) -> BayesNet:
    """Load and validate a net; raises :class:`InvalidNetError` on violations."""
    with open(path) as fh:
        doc = json.load(fh)
    net = BayesNet.from_dict(doc)
    violations = validate(net)
    if violations:
        raise InvalidNetError(violations)
    return net
