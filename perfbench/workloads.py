"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` and
then runs passes.  A pass is a closed loop of operations issued one after
another by a single caller; it reports each operation's latency, the work
units it finished, and a fingerprint of its results that a traced pass
must reproduce exactly.  ``check`` runs after the pass, outside the timed
region, and returns how many of the pass's operations failed it.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import querybn as qb
from querybn import cli, experiments
from querybn.random_nets import random_blanket_query, random_net, random_query

@dataclass
class Outcome:
    latencies: list[float]  # seconds, one per operation
    units: int
    fingerprint: Any
    data: Any = None  # what check() inspects


@dataclass
class Check:
    failed_ops: int = 0
    problems: list[str] = field(default_factory=list)
    observed: dict[str, float] = field(default_factory=dict)  # summed over passes


def _seed_of(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def _digest(net: qb.BayesNet) -> str:
    h = hashlib.sha256()
    for v in net.names:
        h.update(net.cpts[v].table.tobytes())
    return h.hexdigest()


def _quiet(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _score_problems(report, what: str) -> list[str]:
    """Answers in [0, 1], no failed rows, and an aggregate that matches its rows."""
    out = []
    if report.n_errors:
        out.append(f"{what}: {report.n_errors} rows could not be answered")
        return out
    if not all(0.0 <= r.hypothesis <= 1.0 and 0.0 <= r.reference <= 1.0 for r in report.rows):
        out.append(f"{what}: an answer lies outside [0, 1]")
    total = math.fsum(r.weight * (r.hypothesis - r.reference) ** 2 for r in report.rows)
    if abs(total - report.aggregate) > 1e-9:
        out.append(f"{what}: aggregate {report.aggregate!r} != {total!r} from its rows")
    return out


# -- qfit -----------------------------------------------------------------------------


class QFit:
    """Gradient fit of a fixed 8-variable structure to 6 labeled general queries."""

    name = "qfit"
    unit = "iteration"
    STRUCTURE_SEED = 7  # one structure for every workload seed
    ROLES_SEED = 8  # which variables each query targets and observes
    N_VARS = 8
    N_QUERIES = 6
    QUERY_SETS = 4  # passes cycle through them, so a run averages over query sets
    RESTARTS = 6  # with 3, about one fit in a hundred ends above the OFE error check() demands
    MAX_ITERS = 80

    def setup(self, seed: int, workdir: Path):
        structure = random_net(np.random.default_rng(self.STRUCTURE_SEED), self.N_VARS)
        # The seed draws truth nets, values and labels, but not the roles:
        # with fixed roles every query set needs the same inference per
        # gradient, so the cost of an iteration does not swing with the seed.
        roles_rng = np.random.default_rng(self.ROLES_SEED)
        roles: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
        while len(roles) < self.N_QUERIES:
            q = random_query(roles_rng, structure, max_target=2, max_evidence=3)
            role = (tuple(q.target), tuple(q.evidence))
            if role not in roles and not qb.is_markov_blanket_query(structure, q):
                roles.append(role)
        sets = []
        for j in range(self.QUERY_SETS):
            rng = np.random.default_rng([seed, j])
            truth = random_net(rng, self.N_VARS, max_parents=3)
            qs = []
            for target, evidence in roles:
                world = qb.forward_sample(truth, 1, rng).labels(0)
                qs.append(qb.StatQuery({v: str(rng.choice(truth.domain(v))) for v in target},
                                       {v: world[v] for v in evidence}))
            sets.append((truth, qb.label_queries(truth, qs)))
        return {"seed": seed, "structure": structure, "sets": sets, "ofe_err": {}}

    def run_pass(self, state, index: int) -> Outcome:
        j = index % len(state["sets"])
        _, lqs = state["sets"][j]
        opts = qb.FitOptions(restarts=self.RESTARTS, max_iters=self.MAX_ITERS, seed=index)
        steps: list[tuple[int, float]] = []
        fit = qb.fit_cpt(state["structure"], lqs, opts,
                         on_step=lambda net, it, err: steps.append((it, time.perf_counter())))
        # an operation is an iteration with a callback at both ends: the first
        # iteration of a restart also pays for its set-up, and the last one of
        # a stalled restart makes no callback
        latencies = [t1 - t0 for (i0, t0), (i1, t1) in zip(steps, steps[1:]) if i1 == i0 + 1]
        return Outcome(latencies, len(fit.trace),
                       (fit.err, len(fit.trace), _digest(fit.net)), (j, fit))

    def check(self, state, outcome: Outcome) -> Check:
        j, fit = outcome.data
        truth, lqs = state["sets"][j]
        problems = []
        for prev, row in zip(fit.trace, fit.trace[1:]):
            if row.restart == prev.restart and row.err > prev.err:
                problems.append(f"restart {row.restart}: error rose at iteration {row.iteration}")
        problems += [f"fitted net: {v}" for v in qb.validate(fit.net)]
        if j not in state["ofe_err"]:
            data = qb.forward_sample(truth, 10_000, seed=_seed_of(state["seed"], j, 62))
            state["ofe_err"][j] = qb.empirical_err(qb.ofe(state["structure"], data), lqs).aggregate
        if not fit.err <= state["ofe_err"][j] + 1e-9:
            problems.append(f"fit err {fit.err!r} above OFE err {state['ofe_err'][j]!r}")
        if abs(qb.empirical_err(fit.net, lqs).aggregate - fit.err) > 1e-12:
            problems.append("reported fit err does not match the fitted net")
        return Check(len(outcome.latencies) if problems else 0, problems)

    def properties(self, state, observed: dict) -> dict:
        return {"variables": self.N_VARS, "queries_per_set": self.N_QUERIES,
                "query_sets": self.QUERY_SETS, "restarts": self.RESTARTS,
                "max_iters": self.MAX_ITERS}


# -- score ----------------------------------------------------------------------------


class Score:
    """Labeled-query score estimates of a 30-variable net, plus true_err."""

    name = "score"
    unit = "query"
    # Fixed nets: elimination cost depends on the random structure's width,
    # so a fresh pair per seed would make the spread measure the seeds.
    NET_SEEDS = (301, 302)
    ROLES_SEED = 303  # which variables each atom targets and observes
    VALUE_TRIES = 20
    N_VARS = 30
    N_ATOMS = 300
    ZIPF = 1.1
    BATCHES_PER_PASS = 8
    BATCH = qb.m_lsq(0.1, 0.1)  # 150 labeled queries

    def __init__(self, n_atoms: int = N_ATOMS):
        self.n_atoms = n_atoms

    def setup(self, seed: int, workdir: Path):
        truth = random_net(np.random.default_rng(self.NET_SEEDS[0]), self.N_VARS)
        hypothesis = random_net(np.random.default_rng(self.NET_SEEDS[1]), self.N_VARS)
        # The roles come from a fixed stream and the seed draws only the values:
        # an atom's elimination cost depends on its variables, not their values,
        # so the cost of a batch does not swing with the seed.
        roles_rng = np.random.default_rng(self.ROLES_SEED)
        rng = np.random.default_rng([seed, 0])
        atoms: list[qb.StatQuery] = []
        while len(atoms) < self.n_atoms:
            # two in five weight ranks are blanket queries, so the blanket share
            # of the draws does not swing with the seed
            blanket = len(atoms) % 5 in (0, 2)
            if blanket:
                role = random_blanket_query(roles_rng, hypothesis, extra_evidence=False)
            else:
                role = random_query(roles_rng, truth, max_target=1, max_evidence=4)
            if qb.is_markov_blanket_query(hypothesis, role) != blanket:
                continue
            for _ in range(self.VALUE_TRIES):
                world = qb.forward_sample(truth, 1, rng).labels(0)
                q = qb.StatQuery({v: str(rng.choice(truth.domain(v))) for v in role.target},
                                 {v: world[v] for v in role.evidence})
                if q not in atoms:
                    atoms.append(q)
                    break
        weights = 1.0 / np.arange(1, self.n_atoms + 1) ** self.ZIPF
        dist = qb.QueryDistribution(zip(atoms, weights / weights.sum()))
        labels = {lq.query: lq for lq in qb.label_queries(truth, atoms)}
        return {"truth": truth, "hypothesis": hypothesis, "dist": dist, "labels": labels,
                "rng": np.random.default_rng([seed, 1]), "true_err": None}

    def run_pass(self, state, index: int, batches: int = BATCHES_PER_PASS) -> Outcome:
        latencies, reports = [], []
        for _ in range(batches):
            t0 = time.perf_counter()
            batch = state["dist"].sample(state["rng"], self.BATCH)
            labeled = [state["labels"][q] for q in batch]
            reports.append(qb.empirical_err(state["hypothesis"], labeled))
            latencies.append(time.perf_counter() - t0)
        truth_report = qb.true_err(state["hypothesis"], state["dist"], state["truth"])
        return Outcome(latencies, batches * self.BATCH + len(state["dist"]),
                       ([r.aggregate for r in reports], truth_report.aggregate),
                       (reports, truth_report))

    def check(self, state, outcome: Outcome) -> Check:
        reports, truth_report = outcome.data
        out = Check()
        for k, report in enumerate(reports):
            problems = _score_problems(report, f"batch {k}")
            answers: dict = {}
            for r in report.rows:
                if r.reference != state["labels"][r.query].label:
                    problems.append(f"batch {k}: row reference is not the query's label")
                    break
                if answers.setdefault(r.query, r.hypothesis) != r.hypothesis:
                    problems.append(f"batch {k}: one query answered two ways")
                    break
            out.failed_ops += bool(problems)
            out.problems += problems
            out.observed["rows"] = out.observed.get("rows", 0) + len(report.rows)
            out.observed["distinct"] = out.observed.get("distinct", 0) + len(answers)
        problems = _score_problems(truth_report, "true_err")
        if state["true_err"] is None:
            state["true_err"] = truth_report.aggregate
        elif truth_report.aggregate != state["true_err"]:
            problems.append("true_err changed between passes")
        if problems:
            out.failed_ops = len(reports)
            out.problems += problems
        return out

    def properties(self, state, observed: dict) -> dict:
        blanket = sum(qb.is_markov_blanket_query(state["hypothesis"], q)
                      for q in state["dist"].queries())
        return {"variables": self.N_VARS, "atoms": len(state["dist"]), "batch": self.BATCH,
                "batches_per_pass": self.BATCHES_PER_PASS, "zipf_exponent": self.ZIPF,
                "blanket_atom_share": blanket / len(state["dist"]),
                "distinct_share_per_batch": observed["distinct"] / observed["rows"]}

    def reference(self, seed: int, workdir: Path) -> dict[str, float]:
        state = self.setup(seed, workdir)
        o = self.run_pass(state, 0, batches=1)
        return {"batch_err": o.fingerprint[0][0], "true_err": o.fingerprint[1]}


# -- events ---------------------------------------------------------------------------


class Events:
    """The CLI data pipeline: sample, learn --mode ofe, eval --data and
    repro --id hoeffding, plus a rare-evidence collection."""

    name = "events"
    unit = "tuple"
    NET_SEED = 401  # fixed for the same reason as Score.NET_SEEDS
    N_VARS = 20
    N_TUPLES = 20_000
    N_QUERIES = 50
    RARE_N = 4  # ex4.2 naive Bayes with 4 attributes: the evidence has p ~ 8e-4
    PER_EVIDENCE = 40

    def __init__(self, n_tuples: int = N_TUPLES):
        self.n_tuples = n_tuples

    def setup(self, seed: int, workdir: Path):
        net = random_net(np.random.default_rng(self.NET_SEED), self.N_VARS, arities=(2, 3))
        rng = np.random.default_rng([seed, 0])
        qs: list[qb.StatQuery] = []
        while len(qs) < self.N_QUERIES:
            q = random_query(rng, net, max_target=1, max_evidence=3, min_evidence_prob=0.01)
            if q not in qs:
                qs.append(q)
        workdir.mkdir(parents=True, exist_ok=True)
        qb.save_net(net, workdir / "net.json")
        qb.save_queries(workdir / "queries.json", [(q, 1.0 / len(qs)) for q in qs])
        return {"seed": seed, "net": net, "dir": workdir,
                "rare": experiments.ex42_truth(self.RARE_N),
                "evidence": experiments.ex42_query(self.RARE_N).evidence}

    def run_pass(self, state, index: int) -> Outcome:
        d = state["dir"]
        s = str(_seed_of(state["seed"], index))
        data = str(d / "pass" / "data.csv")
        t0 = time.perf_counter()
        rcs = (_quiet(["sample", "--net", str(d / "net.json"), "-n", str(self.n_tuples),
                       "--seed", s, "--out", str(d / "pass")]),
               _quiet(["learn", "--mode", "ofe", "--net", str(d / "net.json"), "--data", data,
                       "--out", str(d / "pass" / "ofe")]),
               _quiet(["eval", "--net", str(d / "pass" / "ofe" / "net.json"),
                       "--queries", str(d / "queries.json"), "--data", data,
                       "--out", str(d / "pass" / "eval"), "--format", "json"]),
               _quiet(["repro", "--id", "hoeffding", "--jobs", "1", "--seed", s,
                       "--out", str(d / "pass" / "repro")]))
        collected = qb.collect_until_matched(state["rare"], [state["evidence"]],
                                             self.PER_EVIDENCE, seed=int(s))
        latency = time.perf_counter() - t0
        ok = rcs == (0, 0, 0, 0)
        report = json.loads((d / "pass" / "eval" / "report.json").read_text()) if ok else None
        learned = (d / "pass" / "ofe" / "net.json").read_bytes() if ok else b""
        repro = (d / "pass" / "repro" / "hoeffding_report.json").read_bytes() if ok else b""
        fingerprint = (rcs, hashlib.sha256(learned).hexdigest(),
                       report and report["aggregate"], len(collected),
                       hashlib.sha256(repro).hexdigest())
        return Outcome([latency], self.n_tuples + len(collected), fingerprint,
                       (rcs, report, collected, repro))

    def check(self, state, outcome: Outcome) -> Check:
        rcs, report, collected, repro = outcome.data
        if rcs != (0, 0, 0, 0):
            return Check(1, [f"cli exit codes {rcs}"])
        net, d = state["net"], state["dir"] / "pass"
        problems = []
        if not json.loads(repro)["all_passed"]:
            problems.append("repro hoeffding: a criterion failed")
        # codes read back independently of the library's CSV loader; every
        # domain here is ("0", "1", ...), so a label is its own code
        codes = np.loadtxt(d / "data.csv", delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        if codes.shape != (self.n_tuples, len(net.names)):
            problems.append(f"data.csv holds {codes.shape}, want {self.n_tuples} tuples")
            return Check(1, problems)
        col = {v: i for i, v in enumerate(net.names)}
        learned = qb.load_net(d / "ofe" / "net.json")
        for v in net.names:
            rows = np.zeros(len(codes), dtype=np.int64)
            for p in net.parents(v):
                rows = rows * net.arity(p) + codes[:, col[p]]
            shape = net.cpts[v].table.shape
            counts = np.bincount(rows * shape[1] + codes[:, col[v]],
                                 minlength=shape[0] * shape[1]).reshape(shape)
            totals = counts.sum(axis=1, keepdims=True)
            want = np.where(totals > 0, counts / np.maximum(totals, 1), 1.0 / shape[1])
            if np.abs(learned.cpts[v].table - want).max() > 1e-12:
                problems.append(f"learned CPT of {v} is not the observed frequency")
        for row in report["rows"]:
            match = np.ones(len(codes), dtype=bool)
            for k, val in row["evidence"].items():
                match &= codes[:, col[k]] == int(val)
            hit = match.copy()
            for k, val in row["target"].items():
                hit &= codes[:, col[k]] == int(val)
            if abs(row["reference"] - hit.sum() / match.sum()) > 1e-12:
                problems.append(f"{row['query']}: reference is not the observed frequency")
            if row["hypothesis"] is None or not 0.0 <= row["hypothesis"] <= 1.0:
                problems.append(f"{row['query']}: answer missing or outside [0, 1]")
        if not problems:
            total = math.fsum(r["weight"] * (r["hypothesis"] - r["reference"]) ** 2
                              for r in report["rows"])
            if abs(total - report["aggregate"]) > 1e-9:
                problems.append("eval aggregate does not match its rows")
        hits = collected.match_mask(state["evidence"])
        if int(hits.sum()) != self.PER_EVIDENCE or not hits[-1]:
            problems.append("collect_until_matched did not stop at the required match")
        return Check(1 if problems else 0, problems)

    def properties(self, state, observed: dict) -> dict:
        return {"variables": self.N_VARS, "queries": self.N_QUERIES,
                "sampled_tuples_per_pass": self.n_tuples,
                "rare_evidence_attributes": self.RARE_N, "per_evidence": self.PER_EVIDENCE}

    def reference(self, seed: int, workdir: Path) -> dict[str, float]:
        state = self.setup(seed, workdir)
        o = self.run_pass(state, 0)
        return {"eval_aggregate": o.fingerprint[2], "collected": float(o.fingerprint[3])}


WORKLOADS = {w.name: w for w in (QFit(), Score(), Events())}

# small fixed-seed configurations whose aggregates are stored in reference.json
REFERENCE_CONFIGS = {"score": Score(n_atoms=40), "events": Events(n_tuples=5_000)}
