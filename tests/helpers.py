"""Shared fixtures and independent oracles for the test suite.

The gradient oracles exploit that any marginal B(a) is an affine function
of each single CPT entry (every full-assignment term uses one entry per
variable), so a central difference with a large step is exact up to
roundoff for both the numerator and denominator of B(x|y); the quotient
rule then gives the conditional's derivative without truncation error.
All oracle marginals go through full enumeration, not the elimination
engine they are used to check.
"""

from __future__ import annotations

import numpy as np

from querybn import BayesNet, Dag, EntryId, LabeledQuery, StatQuery, Variable
from querybn.inference import enumerate_marginal


def make_net(variables, edges, cpts) -> BayesNet:
    """Compact net builder: variables as (name, domain) pairs."""
    vs = [Variable(n, tuple(d)) for n, d in variables]
    dag = Dag.from_edges([n for n, _ in variables], edges)
    net = BayesNet.uniform(vs, dag)
    return net.with_tables(cpts)


def chain_net(p_a=0.5, p_x_a=(0.5, 0.5), p_c_x=(0.5, 0.5)) -> BayesNet:
    """Binary chain A -> X -> C; probabilities are of value '1'."""
    return make_net(
        [("A", "01"), ("X", "01"), ("C", "01")],
        [("A", "X"), ("X", "C")],
        {
            "A": [[1 - p_a, p_a]],
            "X": [[1 - p_x_a[0], p_x_a[0]], [1 - p_x_a[1], p_x_a[1]]],
            "C": [[1 - p_c_x[0], p_c_x[0]], [1 - p_c_x[1], p_c_x[1]]],
        },
    )


def collider_net() -> BayesNet:
    return make_net(
        [("A", "01"), ("B", "01"), ("C", "01")],
        [("A", "C"), ("B", "C")],
        {
            "A": [[0.4, 0.6]],
            "B": [[0.7, 0.3]],
            "C": [[0.9, 0.1], [0.5, 0.5], [0.3, 0.7], [0.2, 0.8]],
        },
    )


def certain_parent_net() -> BayesNet:
    """A -> B, A -> C, B -> C with B = 1 only when A = 1, so
    P(A=1 | B=1) is exactly 1; its two marginals round differently."""
    return make_net(
        [("A", "01"), ("B", "01"), ("C", "01")],
        [("A", "B"), ("A", "C"), ("B", "C")],
        {
            "A": [[0.6, 0.4]],
            "B": [[1.0, 0.0], [0.7, 1 - 0.7]],
            "C": [[0.2, 0.8], [0.1, 0.9], [0.3, 0.7], [0.3, 0.7]],
        },
    )


def naive_bayes_net(n=4, p_c=0.5, p_a_c0=0.2, p_a_c1=0.7) -> BayesNet:
    variables = [("C", "01")] + [(f"A{i}", "01") for i in range(1, n + 1)]
    edges = [("C", f"A{i}") for i in range(1, n + 1)]
    cpts = {"C": [[1 - p_c, p_c]]}
    for i in range(1, n + 1):
        cpts[f"A{i}"] = [[1 - p_a_c0, p_a_c0], [1 - p_a_c1, p_a_c1]]
    return make_net(variables, edges, cpts)


def perturb_entry(net: BayesNet, eid: EntryId, delta: float) -> BayesNet:
    """Shift one raw entry, leaving the rest of its row untouched."""
    t = np.array(net.cpts[eid.var].table)
    t[eid.row, eid.value] += delta
    return net.with_tables({eid.var: t})


def db_oracle(net: BayesNet, query: StatQuery, eid: EntryId, h: float = 0.05) -> tuple[float, float]:
    """(dB(x|y)/d entry, B(x|y)) via exact central differences of enumerated
    marginals (see module docstring)."""
    xy = {**query.target, **query.evidence}
    pos, neg = perturb_entry(net, eid, h), perturb_entry(net, eid, -h)
    num_p, num_m = enumerate_marginal(pos, xy), enumerate_marginal(neg, xy)
    den_p, den_m = enumerate_marginal(pos, query.evidence), enumerate_marginal(neg, query.evidence)
    d_num, d_den = (num_p - num_m) / (2 * h), (den_p - den_m) / (2 * h)
    num, den = (num_p + num_m) / 2, (den_p + den_m) / 2
    return (d_num * den - num * d_den) / (den * den), num / den


def derr_oracle(net: BayesNet, lq: LabeledQuery, eid: EntryId, h: float = 0.05) -> float:
    """d (B(x|y) - p)^2 / d entry via the same exact difference."""
    d_b, b = db_oracle(net, lq.query, eid, h)
    return 2.0 * (b - lq.label) * d_b


def grad_oracle(net: BayesNet, lqs, eid: EntryId, weights=None, h: float = 0.05) -> float:
    if weights is None:
        weights = [1.0 / len(lqs)] * len(lqs)
    return sum(w * derr_oracle(net, lq, eid, h) for lq, w in zip(lqs, weights))


def rel_err(a: float, b: float, floor: float = 1e-8) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def enumerate_completions(net: BayesNet, a):
    """All full assignments extending ``a`` (oracle-side enumeration)."""
    import itertools

    free = [v for v in net.names if v not in a]
    for combo in itertools.product(*(net.domain(v) for v in free)):
        full = dict(a)
        full.update(zip(free, combo))
        yield full


def ci_by_enumeration(net: BayesNet, xs, ys, zs, tol: float = 1e-9) -> bool:
    """Conditional-independence check on the enumerated joint: for every
    assignment, P(x, y | z) must equal P(x | z) P(y | z)."""
    import itertools

    xs, ys, zs = sorted(xs), sorted(ys), sorted(zs)
    for z_vals in itertools.product(*(net.domain(v) for v in zs)):
        z = dict(zip(zs, z_vals))
        p_z = enumerate_marginal(net, z)
        if p_z <= 0:
            continue
        for x_vals in itertools.product(*(net.domain(v) for v in xs)):
            x = dict(zip(xs, x_vals))
            p_xz = enumerate_marginal(net, {**x, **z})
            for y_vals in itertools.product(*(net.domain(v) for v in ys)):
                y = dict(zip(ys, y_vals))
                p_yz = enumerate_marginal(net, {**y, **z})
                p_xyz = enumerate_marginal(net, {**x, **y, **z})
                if abs(p_xyz / p_z - (p_xz / p_z) * (p_yz / p_z)) > tol:
                    return False
    return True
