"""Random nets and queries for experiments and property checks.

Entries are kept strictly interior (default at least 0.1 from the simplex
boundary) so that conditionals, gradients, and log scores stay well
conditioned in randomized tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .inference import marginal
from .network import BayesNet, Dag, Variable, clamp_row
from .queries import StatQuery
from .sampling import forward_sample


def random_dag(rng: np.random.Generator, n_vars: int, max_parents: int = 2) -> Dag:
    """A DAG on V0..V{n-1}; each node draws parents among earlier nodes."""
    names = [f"V{i}" for i in range(n_vars)]
    parents = {}
    for i, name in enumerate(names):
        k = int(rng.integers(0, min(max_parents, i) + 1))
        picks = sorted(rng.choice(i, size=k, replace=False)) if k else []
        parents[name] = tuple(names[j] for j in picks)
    return Dag(tuple(names), parents)


def random_net(rng: np.random.Generator, n_vars: int = 5, arities: Sequence[int] = (2,),
               max_parents: int = 2, interior: float = 0.1) -> BayesNet:
    """A random net with Dirichlet rows shrunk to the given interior margin."""
    dag = random_dag(rng, n_vars, max_parents)
    variables = [Variable(n, tuple(str(k) for k in range(int(rng.choice(arities)))))
                 for n in dag.nodes]
    net = BayesNet.uniform(variables, dag)
    tables = {}
    for v in variables:
        raw = rng.dirichlet(np.ones(v.arity), size=net.cpts[v.name].table.shape[0])
        tables[v.name] = clamp_row(raw, interior / v.arity)
    return net.with_tables(tables)


def random_query(rng: np.random.Generator, net: BayesNet, max_target: int = 1,
                 max_evidence: int = 3, min_evidence_prob: float = 0.0) -> StatQuery:
    """A legal random query: evidence values come from a sampled world, so
    the conditioning event always has positive probability."""
    names = list(net.names)
    for _ in range(200):
        n_target = int(rng.integers(1, min(max_target, len(names)) + 1))
        n_evidence = int(rng.integers(0, min(max_evidence, len(names) - n_target) + 1))
        picks = list(rng.choice(len(names), size=n_target + n_evidence, replace=False))
        world = forward_sample(net, 1, rng).labels(0)
        target = {names[i]: str(rng.choice(net.domain(names[i]))) for i in picks[:n_target]}
        evidence = {names[i]: world[names[i]] for i in picks[n_target:]}
        if min_evidence_prob and evidence and marginal(net, evidence) < min_evidence_prob:
            continue
        return StatQuery(target, evidence)
    raise RuntimeError("could not draw a query meeting the evidence-probability floor")


def random_blanket_query(rng: np.random.Generator, net: BayesNet,
                         extra_evidence: bool = True) -> StatQuery:
    """A random query whose evidence covers the target's Markov blanket."""
    v = str(rng.choice(net.names))
    world = forward_sample(net, 1, rng).labels(0)
    evidence_vars = set(net.markov_blanket(v))
    if extra_evidence:
        others = [n for n in net.names if n != v and n not in evidence_vars]
        if others and rng.random() < 0.5:
            evidence_vars.add(str(rng.choice(others)))
    evidence = {n: world[n] for n in evidence_vars}
    target_val = str(rng.choice(net.domain(v)))
    return StatQuery({v: target_val}, evidence)
