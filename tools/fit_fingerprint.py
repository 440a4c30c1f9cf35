"""Print one sha256 per fitting case, compiled elimination plan, answer
set, label set, score report and ``repro`` report, to check that a change
to the fitter, the inference engine or scoring keeps every bit of its
results.

    python3 tools/fit_fingerprint.py > before.txt
    # change the library, then
    python3 tools/fit_fingerprint.py | diff before.txt -

It imports the library from the ``src`` directory next to this script.
The cases are the qfit benchmark's fits for seeds 61-63 and passes 0-7
(query sets and options read from ``perfbench/workloads.py``), 12 random
mixed sets of general and blanket queries, the ex4.1 fit, three seeded
``querybn learn --mode qfit`` runs on the ex4.1 fixture (``--init``
``dirichlet``, ``uniform`` and ``net``, through ``cli.main``), ``grad`` on
60 random nets, and the plans ``inference._compile`` makes for 2,000
random structures of 1-15 variables and 150 of 20-70 variables (arities
2-4, random observed sets), ``ex42_truth(100)``, ``ex42_truth(400)`` and
``ex43_truth(10)``.  A fit's digest covers its trace (floats as hex), the
fitted tables' bytes, ``err``, ``restart``, ``converged`` and every net
``on_step`` received; a ``learn`` run's covers the bytes of its
``net.json`` and ``trace.csv``; a gradient's covers each array's bytes;
a plan's covers its steps, families and shapes.

Then ``answer`` on three general and three blanket queries of each of
300 random nets (arities 2-4) and of 40 nets with zero entries, whose
queries draw their evidence from sampled worlds so it stays possible;
``label_queries`` on 20 query sets; the ``to_dict()`` JSON of
``true_err``, ``empirical_err`` and ``empirical_err_from_events`` on 20
random (truth, hypothesis) pairs; and every ``querybn repro`` id at seed
0 through ``cli.main``.  An answer or label set's digest covers each
float as hex (an answer that raises ``ZeroEvidence`` is that name); a
``repro`` run's covers its exit code, its stdout with the output
directory masked, and the bytes of every file it wrote.

Last come event data: on 48 random nets (arities 2-4) the codes of a
``forward_sample``, the tables of ``ofe`` at alpha 0 and 1, and ``nll``
of the net, of both fits and of the alpha-0 fit on a second sample (a
float as hex, or the ``ZeroProbability`` message), every odd net's data
with its columns shuffled out of net order; and on 4 random nets the
outputs of ``querybn sample``, ``learn --mode ofe`` and ``eval --data``
through ``cli.main``, the odd nets' CSV rewritten with shuffled columns
before it is learned from.  A CLI run's digest covers its exit code, its
stdout with the output directory masked, and the bytes of the files it
wrote.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import querybn as qb  # noqa: E402
from querybn.cli import main as cli_main  # noqa: E402
from querybn.experiments import (EXPERIMENT_IDS, ex41_labeled_queries,  # noqa: E402
                                 ex41_structure, ex42_truth, ex43_truth)
from querybn.inference import _compile  # noqa: E402
from querybn.random_nets import (random_blanket_query, random_dag, random_net,  # noqa: E402
                                 random_query)
from workloads import QFit  # noqa: E402

QFIT_SEEDS = (61, 62, 63)
QFIT_PASSES = 8


def _tables(net: qb.BayesNet) -> list[bytes]:
    return [net.cpts[v].table.tobytes() for v in net.names]


def _fit_digest(structure, lqs, opts, weights=None) -> str:
    steps = []
    fit = qb.fit_cpt(structure, lqs, opts, weights=weights,
                     on_step=lambda net, it, err: steps.append((it, err.hex(), _tables(net))))
    trace = [(r.restart, r.iteration, r.err.hex(), r.grad_norm.hex(), r.step.hex(), r.accepted)
             for r in fit.trace]
    doc = (trace, _tables(fit.net), fit.err.hex(), fit.restart, fit.converged, steps)
    return hashlib.sha256(repr(doc).encode()).hexdigest()


def _learn_digests(tmp: Path):
    """(init, digest) of one seeded ``learn --mode qfit`` run per ``--init``
    on the ex4.1 chain, whose net file holds non-uniform tables so that
    ``--init net`` starts somewhere of its own."""
    net = ex41_structure().with_tables({"A": [[0.3, 0.7]], "X": [[0.6, 0.4], [0.2, 0.8]],
                                        "C": [[0.7, 0.3], [0.4, 0.6]]})
    qb.save_net(net, tmp / "ex41.json")
    qb.save_queries(tmp / "ex41_queries.json",
                    [(lq.query, 0.5, lq.label) for lq in ex41_labeled_queries()])
    for init in ("dirichlet", "uniform", "net"):
        out = tmp / f"learn_{init}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["learn", "--mode", "qfit", "--net", str(tmp / "ex41.json"),
                           "--queries", str(tmp / "ex41_queries.json"), "--init", init,
                           "--restarts", "3", "--max-iters", "300", "--seed", "7",
                           "--out", str(out)])
        blob = (out / "net.json").read_bytes() + (out / "trace.csv").read_bytes()
        yield init, hashlib.sha256(repr((rc, blob)).encode()).hexdigest()


def _mixed(rng, net, n_general: int, n_blanket: int) -> list[qb.LabeledQuery]:
    """``n_general`` non-blanket and ``n_blanket`` blanket queries, randomly labeled."""
    qs = []
    while len(qs) < n_general:
        q = random_query(rng, net, max_target=2, max_evidence=3)
        if not qb.is_markov_blanket_query(net, q):
            qs.append(q)
    qs += [random_blanket_query(rng, net) for _ in range(n_blanket)]
    return [qb.LabeledQuery(q, float(rng.random())) for q in qs]


def _plan_digest(signature, observed) -> str:
    plan = _compile(signature, frozenset(observed))
    doc = (plan.steps, plan.families, plan.shapes)
    return hashlib.sha256(repr(doc).encode()).hexdigest()


def _random_signature(rng, n_vars: int):
    """A random structure's signature (1-3 parents, arities 2-4) and a
    random observed subset of its variables."""
    dag = random_dag(rng, n_vars, int(rng.integers(1, 4)))
    signature = tuple((v, int(rng.choice((2, 3, 4))), dag.parents[v]) for v in dag.nodes)
    share = rng.random()
    observed = [v for v in dag.nodes if rng.random() < share]
    return signature, observed


def _zeroed(rng, net: qb.BayesNet) -> qb.BayesNet:
    """``net`` with one entry of a random row set to 0 in each of about
    half its CPTs, each such row renormalised."""
    tables = {}
    for v in net.names:
        if rng.random() < 0.5:
            t = np.array(net.cpts[v].table)
            row = t[int(rng.integers(len(t)))]
            row[int(rng.integers(len(row)))] = 0.0
            row /= row.sum()
            tables[v] = t
    return net.with_tables(tables)


def _answers_digest(net: qb.BayesNet, qs) -> str:
    """The digest of ``answer`` on each query: a float as hex, or
    ``ZeroEvidence``."""
    out = []
    for q in qs:
        try:
            out.append(qb.answer(net, q).hex())
        except qb.ZeroEvidence:
            out.append("ZeroEvidence")
    return hashlib.sha256(repr(out).encode()).hexdigest()


def _score_cases(rng, i: int):
    """(name, digest) of the three scores on one random (truth,
    hypothesis) pair; odd pairs give the hypothesis zero entries and draw
    the queries from its worlds, so they stay legal under it."""
    hyp = random_net(rng, n_vars=int(rng.integers(3, 8)), arities=(2, 3, 4), max_parents=2)
    truth = hyp.with_tables({v: rng.dirichlet(np.ones(hyp.arity(v)), hyp.cpts[v].table.shape[0])
                             for v in hyp.names})
    if i % 2:
        hyp = _zeroed(rng, hyp)
    qs = list(dict.fromkeys(lq.query for lq in _mixed(rng, hyp, 3, 3)))
    weights = rng.uniform(0.1, 2.0, len(qs))
    dist = qb.QueryDistribution(zip(qs, weights / weights.sum()))
    lqs = [qb.LabeledQuery(q, float(rng.random())) for q in qs]
    rows = lqs + lqs[::2]
    data = qb.forward_sample(truth, 300, seed=int(rng.integers(2 ** 31)))
    seen = [q for q in qs if data.match_mask(q.evidence).any()]
    reports = (("true_err", lambda: qb.true_err(hyp, dist, truth)),
               ("empirical_err", lambda: qb.empirical_err(hyp, rows, list(rng.random(len(rows))))),
               ("empirical_err_from_events", lambda: qb.empirical_err_from_events(hyp, seen, data)))
    for name, report in reports:
        doc = json.dumps(report().to_dict(), sort_keys=True)
        yield f"{name} pair {i}", hashlib.sha256(doc.encode()).hexdigest()


def _repro_digests(tmp: Path):
    """(id, digest) of every ``querybn repro`` id at seed 0."""
    for experiment in EXPERIMENT_IDS:
        out = tmp / experiment
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli_main(["repro", "--id", experiment, "--seed", "0", "--out", str(out)])
        printed = stdout.getvalue().replace(str(out), "<out>")  # the temporary directory
        files = [(f.name, f.read_bytes()) for f in sorted(out.iterdir())]
        yield experiment, hashlib.sha256(repr((rc, printed, files)).encode()).hexdigest()


def _shuffled(rng, data: qb.Dataset) -> qb.Dataset:
    """``data`` with its columns in a random order other than the net's."""
    order = list(range(len(data.variables)))
    while order == sorted(order):
        order = [int(j) for j in rng.permutation(len(order))]
    return qb.Dataset(tuple(data.variables[j] for j in order),
                      tuple(data.domains[j] for j in order), data.codes[:, order])


def _nll_hex(net: qb.BayesNet, data: qb.Dataset) -> str:
    try:
        return qb.nll(net, data).hex()
    except qb.ZeroProbability as exc:
        return f"ZeroProbability {exc}"


def _event_cases(rng, i: int):
    """(name, digest) of sampling, OFE and nll on one random net; odd
    nets' data has its columns shuffled out of net order."""
    truth = random_net(rng, n_vars=int(rng.integers(2, 8)), arities=(2, 3, 4),
                       max_parents=int(rng.integers(1, 4)))
    data = qb.forward_sample(truth, int(rng.integers(1, 400)), seed=int(rng.integers(2 ** 31)))
    yield f"forward_sample net {i}", hashlib.sha256(data.codes.tobytes()).hexdigest()
    if i % 2:
        data = _shuffled(rng, data)
    fits = [qb.ofe(truth, data, alpha=alpha) for alpha in (0.0, 1.0)]
    for alpha, fit in zip((0, 1), fits):
        yield f"ofe alpha {alpha} net {i}", hashlib.sha256(b"".join(_tables(fit))).hexdigest()
    other = qb.forward_sample(truth, 200, seed=int(rng.integers(2 ** 31)))
    values = [_nll_hex(truth, data), _nll_hex(fits[0], data), _nll_hex(fits[1], data),
              _nll_hex(fits[0], other)]
    yield f"nll net {i}", hashlib.sha256(repr(values).encode()).hexdigest()


def _cli_digest(argv: list[str], out: Path, files: Sequence[str]) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli_main(argv + ["--out", str(out)])
    printed = stdout.getvalue().replace(str(out), "<out>")  # the temporary directory
    blob = [(name, (out / name).read_bytes()) for name in files]
    return hashlib.sha256(repr((rc, printed, blob)).encode()).hexdigest()


def _cli_event_cases(rng, i: int, tmp: Path):
    """(name, digest) of ``sample``, ``learn --mode ofe`` and ``eval
    --data`` on one random net, with queries whose evidence the sample
    matches; odd nets' CSV has its columns shuffled first."""
    truth = random_net(rng, n_vars=int(rng.integers(3, 7)), arities=(2, 3, 4))
    net_path, query_path = tmp / f"net{i}.json", tmp / f"queries{i}.json"
    qb.save_net(truth, net_path)
    out = tmp / f"cli{i}"
    yield f"cli sample net {i}", _cli_digest(
        ["sample", "--net", str(net_path), "-n", "300", "--seed", str(i)], out / "sample",
        ["data.csv"])
    data_path = out / "sample" / "data.csv"
    data = qb.load_dataset(data_path, truth)
    if i % 2:
        data_path = out / "shuffled.csv"
        qb.save_dataset(_shuffled(rng, data), data_path)
    qs = [q for q in (random_query(rng, truth, max_target=2) for _ in range(6))
          if data.match_mask(q.evidence).any()]
    qb.save_queries(query_path, [(q, 1.0 / len(qs), None) for q in qs])
    yield f"cli learn ofe net {i}", _cli_digest(
        ["learn", "--mode", "ofe", "--net", str(net_path), "--data", str(data_path),
         "--alpha", "1"], out / "ofe", ["net.json"])
    yield f"cli eval data net {i}", _cli_digest(
        ["eval", "--net", str(out / "ofe" / "net.json"), "--queries", str(query_path),
         "--data", str(data_path)], out / "eval", ["report.json", "report.csv"])


def cases():
    """(name, digest) for every case, in a fixed order."""
    qfit = QFit()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in QFIT_SEEDS:
            state = qfit.setup(seed, Path(tmp))
            for index in range(QFIT_PASSES):
                _, lqs = state["sets"][index % len(state["sets"])]
                opts = qb.FitOptions(restarts=qfit.RESTARTS, max_iters=qfit.MAX_ITERS, seed=index)
                yield f"qfit seed {seed} pass {index}", _fit_digest(state["structure"], lqs, opts)
    rng = np.random.default_rng(65)
    for i in range(12):
        structure = random_net(rng, n_vars=7, arities=(2, 3, 4), max_parents=3)
        lqs = _mixed(rng, structure, 3, 3)
        weights = list(rng.uniform(0.1, 2.0, len(lqs))) if i % 2 else None
        opts = qb.FitOptions(restarts=2, max_iters=80, seed=i)
        yield f"mixed set {i}", _fit_digest(structure, lqs, opts, weights)
    yield "ex4.1", _fit_digest(ex41_structure(), ex41_labeled_queries(),
                               qb.FitOptions(restarts=10, max_iters=2000, seed=0))
    with tempfile.TemporaryDirectory() as tmp:
        for init, digest in _learn_digests(Path(tmp)):
            yield f"learn ex4.1 --init {init}", digest
    rng = np.random.default_rng(66)
    for i in range(60):
        net = random_net(rng, n_vars=int(rng.integers(2, 9)), arities=(2, 3),
                         max_parents=int(rng.integers(1, 4)), interior=0.05)
        lqs = _mixed(rng, net, 3, 2)
        g = qb.grad(net, lqs, weights=list(rng.uniform(0.1, 2.0, len(lqs))))
        digest = hashlib.sha256(b"".join(g[v].tobytes() for v in net.names)).hexdigest()
        yield f"grad net {i}", digest
    rng = np.random.default_rng(67)
    for size, count, low, high in (("small", 2000, 1, 15), ("large", 150, 20, 70)):
        for i in range(count):
            signature, observed = _random_signature(rng, int(rng.integers(low, high + 1)))
            yield f"plan {size} {i}", _plan_digest(signature, observed)
    for name, net in (("ex42_truth(100)", ex42_truth(100)), ("ex42_truth(400)", ex42_truth(400)),
                      ("ex43_truth(10)", ex43_truth(10))):
        yield f"plan {name}", _plan_digest(net.signature(), ())
    rng = np.random.default_rng(68)
    for kind, count in (("", 300), (" zero-entry", 40)):
        for i in range(count):
            net = random_net(rng, n_vars=int(rng.integers(2, 9)), arities=(2, 3, 4),
                             max_parents=int(rng.integers(1, 4)))
            if kind:
                net = _zeroed(rng, net)
            qs = [lq.query for lq in _mixed(rng, net, 3, 3)]
            yield f"answer{kind} net {i}", _answers_digest(net, qs)
    rng = np.random.default_rng(69)
    for i in range(20):
        truth = random_net(rng, n_vars=int(rng.integers(3, 9)), arities=(2, 3, 4))
        if i % 2:
            truth = _zeroed(rng, truth)
        qs = [lq.query for lq in _mixed(rng, truth, 4, 4)]
        labels = [lq.label.hex() for lq in qb.label_queries(truth, qs)]
        yield f"label_queries set {i}", hashlib.sha256(repr(labels).encode()).hexdigest()
    rng = np.random.default_rng(70)
    for i in range(20):
        yield from _score_cases(rng, i)
    with tempfile.TemporaryDirectory() as tmp:
        for experiment, digest in _repro_digests(Path(tmp)):
            yield f"repro {experiment} seed 0", digest
    rng = np.random.default_rng(71)
    for i in range(48):
        yield from _event_cases(rng, i)
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(4):
            yield from _cli_event_cases(rng, i, Path(tmp))


if __name__ == "__main__":
    for name, digest in cases():
        print(f"{digest}  {name}")
