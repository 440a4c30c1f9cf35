"""Forward sampling of event tuples and conditional-frequency estimation.

Includes the on-line collection procedure that keeps drawing tuples until
every evidence pattern of interest has been matched a required number of
times.  All randomness flows through explicit seeds or generators so every
experiment is reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .network import Assignment, BayesNet

DEFAULT_COLLECT_CAP = 10_000_000


class CapExceeded(RuntimeError):
    """Tuple collection hit its draw cap before matching every evidence."""


@dataclass(frozen=True)
class Dataset:
    """A multiset of complete event tuples.

    Values are stored as integer codes against ``domains`` for fast
    counting; ``labels`` views decode on demand.  Column names must be
    distinct, and every code must lie in its column's domain.  A dataset
    binds to a net by variable name and domain (see :func:`_net_codes`),
    so its column order need not be the net's.
    """

    variables: tuple[str, ...]
    domains: tuple[tuple[str, ...], ...]
    codes: np.ndarray  # shape (n_tuples, n_variables), integer codes

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate dataset columns")
        codes = np.array(self.codes, dtype=np.int64)  # own copy; frozen below
        if codes.ndim != 2 or not codes.shape[1] == len(self.variables) == len(self.domains):
            raise ValueError("codes must be a (n_tuples, n_variables) array, one domain per column")
        for j, dom in enumerate(self.domains):
            if codes.shape[0] and (codes[:, j].min() < 0 or codes[:, j].max() >= len(dom)):
                raise ValueError(f"column {self.variables[j]!r} has out-of-domain codes")
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "domains", tuple(tuple(d) for d in self.domains))

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def column(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"dataset has no variable {name!r}") from None

    def labels(self, i: int) -> dict[str, str]:
        return {v: self.domains[j][self.codes[i, j]] for j, v in enumerate(self.variables)}

    def encode(self, a: Assignment) -> dict[int, int]:
        """Column index -> value code for an assignment over dataset variables."""
        out = {}
        for name, label in a.items():
            j = self.column(name)
            try:
                out[j] = self.domains[j].index(label)
            except ValueError:
                raise ValueError(f"value {label!r} not in domain of {name!r}") from None
        return out

    def match_mask(self, a: Assignment) -> np.ndarray:
        """Boolean mask of tuples consistent with the assignment.

        Contradictory assignments (same variable bound twice upstream)
        simply match nothing.
        """
        mask = np.ones(len(self), dtype=bool)
        for j, code in self.encode(a).items():
            mask &= self.codes[:, j] == code
        return mask

    @classmethod
    def from_labels(cls, variables: Sequence[str], domains: Sequence[Sequence[str]],
                    rows: Iterable[Sequence[str]]) -> "Dataset":
        domains = [tuple(d) for d in domains]
        if len(domains) != len(variables):
            raise ValueError(f"{len(domains)} domains for {len(variables)} variables; "
                             "one domain per column")
        index = [{lab: i for i, lab in enumerate(d)} for d in domains]
        codes = []
        for r, row in enumerate(rows):
            if len(row) != len(variables):
                raise ValueError(f"row {r}: expected {len(variables)} values, got {len(row)}")
            try:
                codes.append([index[j][str(v)] for j, v in enumerate(row)])
            except KeyError as exc:
                raise ValueError(f"row {r}: unknown value {exc.args[0]!r}") from None
        arr = np.asarray(codes, dtype=np.int64).reshape(len(codes), len(variables))
        return cls(tuple(variables), tuple(domains), arr)


def forward_sample(net: BayesNet, n: int, seed: int | np.random.Generator = 0) -> Dataset:
    """Draw ``n`` i.i.d. complete tuples by sampling each variable in
    topological order from its CPT row given the sampled parents."""
    if n < 0:
        raise ValueError("sample size must be non-negative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    codes = np.zeros((n, len(net.names)), dtype=np.int64)
    for v in net.topological_order():
        cum = np.cumsum(net.cpts[v].table[net.row_indices(v, codes)], axis=1)
        cum /= cum[:, -1:]  # a validated row may sum to 1 - 1e-9; u < 1 must not reach code arity
        u = rng.random(n)
        codes[:, net._column[v]] = (u[:, None] >= cum).sum(axis=1)
    return Dataset(net.names, tuple(v.domain for v in net.variables), codes)


def collect_until_matched(source: BayesNet, evidences: Sequence[Assignment], per_evidence: int,
                          seed: int | np.random.Generator = 0) -> Dataset:
    """Draw tuples sequentially until every evidence pattern has at least
    ``per_evidence`` matching tuples; return *all* tuples drawn up to the
    first point where that holds.

    Raises :class:`CapExceeded` after ``DEFAULT_COLLECT_CAP`` draws;
    matching a rare evidence can require many more draws than ``per_evidence``.
    """
    if per_evidence < 0:
        raise ValueError("per_evidence must be non-negative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    evidences = list(evidences)
    domains = tuple(v.domain for v in source.variables)
    if per_evidence == 0 or not evidences:
        return Dataset(source.names, domains, np.zeros((0, len(source.names)), dtype=np.int64))

    chunks: list[np.ndarray] = []
    counts = np.zeros(len(evidences), dtype=np.int64)
    drawn = 0
    batch = max(256, min(per_evidence * 2, 65536))
    while True:
        take = min(batch, DEFAULT_COLLECT_CAP - drawn)
        if take <= 0:
            raise CapExceeded(
                f"drew {drawn} tuples without matching every evidence {per_evidence} times")
        data = forward_sample(source, take, rng)
        drawn += take
        hits = np.stack([data.match_mask(e) for e in evidences], axis=1)
        running = counts[None, :] + np.cumsum(hits, axis=0)
        done = (running >= per_evidence).all(axis=1)
        if done.any():
            chunks.append(data.codes[: int(np.argmax(done)) + 1])
            break
        counts += hits.sum(axis=0)
        chunks.append(data.codes)
    total = np.concatenate(chunks, axis=0)
    return Dataset(source.names, domains, total)


def _net_codes(net: BayesNet, data: Dataset) -> np.ndarray:
    """``data``'s codes with one column per variable of ``net``, in net order.

    This is how a dataset binds to a net: by variable name and domain.
    Every net variable must be a column of ``data`` (``KeyError``
    otherwise, from :meth:`Dataset.column`) whose domain lists the net's
    labels in the net's order (``ValueError`` otherwise); columns the net
    does not name are ignored.  When the net's columns lead ``data`` in
    net order the result is a read-only view of ``data.codes``, else a copy.
    """
    cols = [data.column(v) for v in net.names]
    for v, j in zip(net.names, cols):
        if data.domains[j] != net.domain(v):
            raise ValueError(f"dataset domain of {v!r} does not match the net")
    in_order = cols == list(range(len(cols)))
    return data.codes[:, :len(cols)] if in_order else data.codes[:, cols]


def cond_freq(data: Dataset, x: Assignment, y: Assignment) -> float:
    """Observed conditional frequency #(x and y) / #(y).

    Raises when no tuple matches the evidence.  A self-contradictory
    ``x and y`` event has frequency 0.
    """
    y_mask = data.match_mask(y)
    n_y = int(y_mask.sum())
    if n_y == 0:
        raise ValueError(f"no tuples match the evidence {dict(y)!r}")
    overlap = set(x) & set(y)
    for k in overlap:
        if x[k] != y[k]:
            return 0.0
    xy_mask = y_mask & data.match_mask({k: v for k, v in x.items() if k not in overlap})
    return float(xy_mask.sum() / n_y)


# -- CSV dataset format -----------------------------------------------------------
#
# First row: variable names.  Each subsequent row: one value label per
# variable.  The loader validates names and labels against a net.


def save_dataset(data: Dataset, path) -> None:
    columns = [np.asarray(dom, dtype=object)[data.codes[:, j]]
               for j, dom in enumerate(data.domains)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(data.variables)
        w.writerows(zip(*columns))


def load_dataset(path, net: BayesNet) -> Dataset:
    """Read a CSV dataset whose header names variables of ``net``.

    Columns keep the file's order, each with the net's domain for its
    variable.  Raises ``ValueError`` for an empty file, a column the net
    does not know, a net variable with no column, a repeated column (from
    :class:`Dataset`) or a row with a wrong length or an unknown label.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("dataset file is empty") from None
        unknown = [h for h in header if h not in set(net.names)]
        if unknown:
            raise ValueError(f"dataset columns not in net: {unknown}")
        missing = [n for n in net.names if n not in header]
        if missing:
            raise ValueError(f"dataset missing variables: {missing}")
        return Dataset.from_labels(header, [net.domain(h) for h in header], list(reader))
