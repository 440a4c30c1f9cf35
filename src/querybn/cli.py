"""Command-line surface.

Subcommands: ``validate``, ``eval``, ``learn``, ``sample``, ``bounds``,
``repro``.  Exit codes: 0 success (criteria pass / no violations), 1
domain failure (violations, failing criteria, illegal queries), 2 usage
or parse errors.  Every subcommand honors ``--seed`` (default 0, never
wall clock) so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable

from . import bounds as bounds_mod
from .experiments import EXPERIMENT_IDS, experiment_params, run_experiment
from .inference import ZeroEvidence
from .learning import FitOptions, fit_cpt, ofe
from .network import BayesNet, InvalidNetError, load_net, save_net, validate
from .queries import UnmatchedEvidence, label_from_data, label_queries, load_queries
from .sampling import forward_sample, load_dataset, save_dataset
from .scoring import empirical_err, empirical_err_from_events, true_err

USAGE_ERROR = 2
DOMAIN_ERROR = 1


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_or_fail(kind: str, path, load: Callable, *, malformed: str = "malformed JSON in"):
    """``load(path)``, with a missing file, malformed JSON or an invalid
    document reported as a CLI error naming the file."""
    try:
        return load(path)
    except FileNotFoundError:
        raise _CliError(f"cannot read {kind} file: {path}", USAGE_ERROR)
    except InvalidNetError as exc:
        raise _CliError(f"{path}: " + "; ".join(exc.violations), DOMAIN_ERROR)
    except json.JSONDecodeError as exc:
        raise _CliError(f"{malformed} {path}: {exc}", USAGE_ERROR)
    except (KeyError, TypeError, ValueError) as exc:
        raise _CliError(f"cannot parse {kind} file {path}: {exc}", USAGE_ERROR)


def _load_net_or_fail(path) -> BayesNet:
    return _load_or_fail("net", path, load_net)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_report(report, outdir: str, fmt: str) -> None:
    if fmt in ("json", "both"):
        report.write_json(os.path.join(outdir, "report.json"))
    if fmt in ("csv", "both"):
        report.write_csv(os.path.join(outdir, "report.csv"))


def cmd_validate(args) -> int:
    # parsed but not validated, so that every violation is listed, one per line
    net = _load_or_fail("net", args.net,
                        lambda p: BayesNet.from_dict(json.loads(Path(p).read_text())),
                        malformed="cannot parse net file")
    try:
        violations = validate(net, eps_clamp=args.clamped)
    except ValueError as exc:
        raise _CliError(f"invalid --clamped: {exc}", USAGE_ERROR)
    for v in violations:
        print(v)
    if violations:
        return DOMAIN_ERROR
    print("ok")
    return 0


def cmd_eval(args) -> int:
    net = _load_net_or_fail(args.net)
    dist = _load_or_fail("query", args.queries, lambda p: load_queries(p, net))
    try:
        if args.truth:
            truth = _load_net_or_fail(args.truth)
            report = true_err(net, dist, truth)
        elif args.data:
            data = _load_or_fail("data", args.data, lambda p: load_dataset(p, net))
            report = empirical_err_from_events(net, dist.queries(), data, dist.weights())
        elif dist.fully_labeled():
            report = empirical_err(net, dist.labeled(), dist.weights())
        else:
            raise _CliError(
                "eval needs --truth, --data, or labels on every query atom", USAGE_ERROR)
    except ZeroEvidence as exc:
        raise _CliError(f"illegal query under the reference net: {exc}", DOMAIN_ERROR)
    except UnmatchedEvidence as exc:
        raise _CliError(str(exc), DOMAIN_ERROR)
    _write_report(report, _outdir(args), args.format)
    print(f"mode: {report.mode}")
    print(f"aggregate: {report.aggregate!r}")
    if report.n_errors:
        print(f"warning: {report.n_errors} queries could not be answered by the net",
              file=sys.stderr)
    return 0


def _fit_options(args, structure: BayesNet) -> FitOptions:
    try:
        opts = FitOptions(init=args.init, restarts=args.restarts, max_iters=args.max_iters,
                          tol=args.tol, eps_clamp=args.clamp, seed=args.seed)
        opts.check_arities(structure)
        return opts
    except ValueError as exc:
        raise _CliError(f"invalid fit options: {exc}", USAGE_ERROR)


def cmd_learn(args) -> int:
    structure = _load_net_or_fail(args.net)
    outdir = _outdir(args)
    if args.mode == "ofe":
        if not args.data:
            raise _CliError("learn --mode ofe requires --data", USAGE_ERROR)
        data = _load_or_fail("data", args.data, lambda p: load_dataset(p, structure))
        try:
            fitted = ofe(structure, data, alpha=args.alpha)
        except ValueError as exc:
            raise _CliError(f"invalid --alpha: {exc}", USAGE_ERROR)
        save_net(fitted, os.path.join(outdir, "net.json"))
        print(f"wrote {os.path.join(outdir, 'net.json')}")
        return 0

    if not args.queries:
        raise _CliError("learn --mode qfit requires --queries", USAGE_ERROR)
    opts = _fit_options(args, structure)
    dist = _load_or_fail("query", args.queries, lambda p: load_queries(p, structure))
    try:
        if dist.fully_labeled():
            labeled = dist.labeled()
        elif args.truth:
            truth = _load_net_or_fail(args.truth)
            labeled = label_queries(truth, dist.queries())
        elif args.data:
            data = _load_or_fail("data", args.data, lambda p: load_dataset(p, structure))
            labeled = label_from_data(data, dist.queries())
        else:
            raise _CliError(
                "learn --mode qfit needs labels in the query file, --truth, or --data",
                USAGE_ERROR)
    except ValueError as exc:  # ZeroEvidence and UnmatchedEvidence included
        raise _CliError(f"cannot label queries: {exc}", DOMAIN_ERROR)
    weights = dist.weights()
    result = fit_cpt(structure, labeled, opts, weights=weights, init_net=structure)
    violations = validate(result.net)
    if violations:  # fitted nets are clamped by construction; this is a safety net
        raise _CliError("fitted net failed validation: " + "; ".join(violations), DOMAIN_ERROR)
    save_net(result.net, os.path.join(outdir, "net.json"))
    result.write_trace_csv(os.path.join(outdir, "trace.csv"))
    # the fitter's own error may differ from empirical_err by rounding;
    # print the value that eval of the written net reports
    err = empirical_err(result.net, labeled, weights).aggregate
    print(f"final empirical err: {err!r} (restart {result.restart})")
    print(f"wrote {os.path.join(outdir, 'net.json')} and trace.csv")
    return 0


def cmd_sample(args) -> int:
    net = _load_net_or_fail(args.net)
    if args.n < 0:
        raise _CliError("sample size must be non-negative", USAGE_ERROR)
    data = forward_sample(net, args.n, seed=args.seed)
    outdir = _outdir(args)
    path = os.path.join(outdir, "data.csv")
    save_dataset(data, path)
    print(f"wrote {path} ({len(data)} tuples, seed {args.seed})")
    return 0


def cmd_bounds(args) -> int:
    try:
        rows = [("M_LSQ", bounds_mod.m_lsq(args.eps, args.delta)),
                ("M_SQ", bounds_mod.m_sq(args.eps, args.delta))]
        msq = rows[-1][1]
        rows.append(("M'_D", bounds_mod.m_prime_d(args.eps, args.delta, msq)))
        if args.lam is not None:
            rows.append(("M_D", bounds_mod.m_d(args.eps, args.delta, args.lam)))
        if args.K is not None and args.N is not None and args.c is not None:
            rows.append(("M'_LSQ", bounds_mod.m_prime_lsq(args.eps, args.delta,
                                                          args.K, args.N, args.c)))
    except ValueError as exc:
        raise _CliError(str(exc), USAGE_ERROR)
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return 0


def _param_fits(value, default) -> bool:
    """Whether a JSON ``--params`` value can stand in for a runner default:
    an int for an int, any number for a float, a list of such for a tuple."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_param_fits(v, default[0]) for v in value)
    if isinstance(value, bool) or not isinstance(default, (int, float)):
        return False
    return isinstance(value, (int, float) if isinstance(default, float) else int)


def cmd_repro(args) -> int:
    if args.id not in EXPERIMENT_IDS:
        raise _CliError(f"unknown experiment id {args.id!r}; choose from {EXPERIMENT_IDS}",
                        USAGE_ERROR)
    params = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise _CliError(f"--params must be a JSON object: {exc}", USAGE_ERROR)
        if not isinstance(params, dict):
            raise _CliError(f"--params must be a JSON object, got {args.params}", USAGE_ERROR)
        known = experiment_params(args.id)
        unknown = sorted(set(params) - set(known))
        if unknown:
            raise _CliError(f"unknown --params for {args.id}: {', '.join(unknown)}; "
                            f"choose from {', '.join(known)}", USAGE_ERROR)
        for name, value in params.items():
            if not _param_fits(value, known[name]):
                like = list(known[name]) if isinstance(known[name], tuple) else known[name]
                raise _CliError(f"--params {name} must be like {json.dumps(like)}, "
                                f"got {json.dumps(value)}", USAGE_ERROR)
    try:
        report = run_experiment(args.id, seed=args.seed, jobs=args.jobs, **params)
    except ZeroEvidence:  # a ValueError too, but a fault of the run, not of its arguments
        raise
    except ValueError as exc:
        raise _CliError(f"invalid arguments for {args.id}: {exc}", USAGE_ERROR)
    outdir = _outdir(args)
    safe = args.id.replace(".", "_")
    report.write_json(os.path.join(outdir, f"{safe}_report.json"))
    report.write_tables_csv(outdir)
    for c in report.criteria:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name} = {c.value!r} (want {c.requirement})")
    print(f"report written to {outdir}")
    return 0 if report.all_passed else DOMAIN_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="querybn",
        description="Score and fit discrete Bayesian nets against a query distribution.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a net file's structural invariants")
    p.add_argument("--net", required=True)
    p.add_argument("--clamped", type=float, default=None, metavar="EPS",
                   help="additionally require entries in [EPS, 1-EPS]")
    p.add_argument("--seed", type=int, default=0, help="accepted for uniformity; unused")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="score a net against queries")
    p.add_argument("--net", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--truth", help="truth net file: exact query-weighted score")
    p.add_argument("--data", help="event CSV: conditional-frequency references")
    p.add_argument("--out", default="out")
    p.add_argument("--format", choices=("json", "csv", "both"), default="both")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("learn", help="fit CPTs for a fixed structure")
    p.add_argument("--mode", choices=("ofe", "qfit"), required=True)
    p.add_argument("--net", required=True, help="net file supplying the structure")
    p.add_argument("--data", help="event CSV (ofe mode, or qfit labels)")
    p.add_argument("--queries", help="query file (qfit mode)")
    p.add_argument("--truth", help="truth net used to label queries (qfit mode)")
    p.add_argument("--alpha", type=float, default=0.0, help="Laplace smoothing for ofe")
    p.add_argument("--init", choices=("uniform", "dirichlet", "net"), default="dirichlet",
                   help="first restart's start; net: the --net file's own tables")
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--max-iters", type=int, default=500, dest="max_iters")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--clamp", type=float, default=1e-6)
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("sample", help="draw event tuples from a net")
    p.add_argument("--net", required=True)
    p.add_argument("-n", type=int, required=True, help="number of tuples")
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("bounds", help="print the sample-complexity table")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--lam", type=float, default=None,
                   help="evidence-probability floor (enables M_D)")
    p.add_argument("--K", type=int, default=None, help="CPT entry count (enables M'_LSQ)")
    p.add_argument("--N", type=int, default=None, help="variable count (enables M'_LSQ)")
    p.add_argument("--c", type=float, default=None,
                   help="interiority exponent > 1 (enables M'_LSQ)")
    p.add_argument("--seed", type=int, default=0, help="accepted for uniformity; unused")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("repro", help="run a reproduction experiment")
    p.add_argument("--id", required=True, help="one of: " + ", ".join(EXPERIMENT_IDS))
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--params", help="JSON object of experiment parameter overrides")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be at least 1")
    try:
        return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
