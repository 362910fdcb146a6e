"""Command-line front-end: run, bound, verify, bench, bruteforce.

The CLI parses flags and files into library calls, and the library checks
the values: a rule such as "k belongs to k_wise_optimistic" is written once,
where the library applies it.  Exit code 0 means the command completed (a
property-violation report is data, not an error); any operational failure,
a typed PairsubError or an OSError, exits 2 with a one-line message on
stderr.  All JSON documents embed "schema": "pairsub/1".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from .algorithms import (
    ALGORITHMS,
    audit_trace,
    brute_force_optimal,
    greedy_full,
    run_algorithm,
    trace_from_dict,
)
from .bounds import (
    BoundReport,
    alphas_k_wise,
    alphas_optimistic,
    alphas_pessimistic,
    bound_from_alphas,
    k_cardinality_curvature,
    post_hoc_bound,
)
from .data import KernelConfig, build_coverage_instance, load_districts
from .errors import InvalidArgument, PairsubError, ParseError
from .functions import AdversarialSpec, build_oracle, load_instance
from .verify import ALL_CHECKS, DEFAULT_SAMPLES, check_normalized

SCHEMA = "pairsub/1"


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text, encoding="utf-8")


def _write_json(doc: dict, out: str | None) -> None:
    doc = {"schema": SCHEMA, **doc}
    _write_text(json.dumps(doc, sort_keys=True, indent=2), out)


def _load_oracle(args):
    sources = [s for s in (args.instance, args.districts) if s is not None]
    if len(sources) != 1:
        raise InvalidArgument("exactly one of --instance or --districts is required")
    if args.instance is not None:
        if args.rs is not None:
            raise InvalidArgument("--rs applies to --districts input only")
        return load_instance(args.instance)
    if args.rs is None:
        raise InvalidArgument("--rs is required when running on a districts CSV")
    districts = load_districts(args.districts)
    return build_oracle(build_coverage_instance(districts, KernelConfig(r_s=args.rs)))


def _add_instance_args(parser):
    parser.add_argument("--instance", help="instance JSON file")
    parser.add_argument("--districts", help="districts CSV file")
    parser.add_argument("--rs", type=float,
                        help="Gaussian kernel range for --districts")
    parser.add_argument("--out", help="output file; standard output if absent or -")


def _list(text: str, flag: str, convert=str) -> list:
    """The comma-separated values of a flag, blank tokens dropped."""
    try:
        return [convert(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidArgument(f"{flag} must be comma-separated integers, got {text!r}") from None


def cmd_run(args) -> int:
    oracle = _load_oracle(args)
    if args.budget is not None:
        oracle = oracle.restricted(args.budget)
    trace = run_algorithm(args.algo, oracle, args.n, k=args.k)
    spec = oracle.spec  # warned only for a run that was answered
    if isinstance(spec, AdversarialSpec) and args.n != len(spec.V_star):
        print(
            f"warning: adversarial instance has |V_star|={len(spec.V_star)} "
            f"but n={args.n}; the k/n tightness statement does not apply",
            file=sys.stderr,
        )
    doc = trace.to_dict()
    if args.audit:
        trace = audit_trace(trace, oracle)
        doc = trace.to_dict()
        full_trace = trace if args.algo == "full" else greedy_full(oracle, args.n)
        full_value = oracle.evaluate(full_trace.final_set)
        own_value = oracle.evaluate(trace.final_set)
        doc["percent_of_full_greedy"] = (
            100.0 if full_value == 0 else 100.0 * own_value / full_value
        )
    _write_json(doc, args.out)
    return 0


def _ordered_solution(args):
    if (args.trace is None) == (args.solution is None):
        raise InvalidArgument("exactly one of --trace or --solution is required")
    if args.trace is not None:
        try:
            doc = json.loads(Path(args.trace).read_text(encoding="utf-8-sig"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{args.trace}: invalid JSON ({exc})") from None
        trace = trace_from_dict(doc)
        if not trace.selections:
            raise InvalidArgument(f"{args.trace}: the trace selects no element")
        return trace, trace.selected_order
    ids = _list(args.solution, "--solution", int)
    if not ids:
        raise InvalidArgument("--solution is empty")
    return None, ids


def cmd_bound(args) -> int:
    oracle = _load_oracle(args)
    trace, solution = _ordered_solution(args)
    method = args.method
    if method == "algorithm1":
        report = post_hoc_bound(solution, oracle)
    elif method == "theorem5":
        tau2 = args.tau2
        if tau2 is None:
            tau2 = k_cardinality_curvature(oracle, 2)
        alphas = alphas_pessimistic(tau2, len(solution))
        report = BoundReport(alphas, bound_from_alphas(alphas, len(solution)), method)
    else:  # theorem2, or theorem3: Theorem 2 is Theorem 3 at k=2
        if trace is None:
            raise InvalidArgument(f"--method {method} needs --trace")
        if method == "theorem2":
            alphas = alphas_optimistic(trace, oracle)
        else:
            k = args.k if args.k is not None else trace.k
            if k is None:
                raise InvalidArgument("--method theorem3 needs --k")
            alphas = alphas_k_wise(trace, oracle, k)
        report = BoundReport(alphas, bound_from_alphas(alphas, trace.n), method)
    _write_json(report.to_dict(), args.out)
    return 0


def cmd_verify(args) -> int:
    oracle = _load_oracle(args)
    if args.properties == "all":
        names = list(ALL_CHECKS)
    else:
        names = _list(args.properties, "--properties")
        unknown = [p for p in names if p not in ALL_CHECKS]
        if unknown or not names:
            raise InvalidArgument(f"--properties must name some of {sorted(ALL_CHECKS)}, "
                                  f"got {args.properties!r}")
    lines = []
    for name in names:
        checker = ALL_CHECKS[name]
        if checker is check_normalized:
            report = checker(oracle)
        else:
            report = checker(oracle, samples=args.samples, seed=args.seed)
        doc = {"schema": SCHEMA, **report.to_dict()}
        lines.append(json.dumps(doc, sort_keys=True))
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def cmd_bench(args) -> int:
    oracle = _load_oracle(args)
    algorithms = _list(args.algos, "--algos")
    if args.ratio is not None and ("full" not in algorithms or len(algorithms) < 2):
        raise InvalidArgument("--ratio needs 'full' plus at least one other "
                              "algorithm in --algos")
    records = bench_mod.scaling_sweep(algorithms, oracle, _list(args.n_grid, "--n-grid", int),
                                      args.trials, k=args.k)
    _write_text(bench_mod.records_to_csv(records), args.out)
    if args.ratio is not None:
        per_algo = {a: [r for r in records if r.algorithm == a] for a in algorithms}
        lines = ["algorithm,n,ratio"]
        for algo in algorithms:
            if algo == "full":
                continue
            for n, ratio in bench_mod.speedup_ratios(per_algo["full"], per_algo[algo]):
                lines.append(f"{algo},{n},{ratio!r}")
        _write_text("\n".join(lines) + "\n", args.ratio)
    return 0


def cmd_bruteforce(args) -> int:
    oracle = _load_oracle(args)
    best_set, value = brute_force_optimal(oracle, args.n)
    _write_json({"set": best_set, "value": value, "n": args.n}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairsub",
        description="Submodular maximization from pairwise information",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a greedy strategy")
    _add_instance_args(run)
    run.add_argument("--budget", type=int,
                     help="restrict the oracle to sets of at most this size")
    run.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    run.add_argument("--n", type=int, required=True)
    run.add_argument("--k", type=int)
    run.add_argument("--audit", action="store_true",
                     help="fill true marginals and percent-of-full-greedy "
                          "(needs a full-budget instance)")
    run.set_defaults(handler=cmd_run)

    bound = sub.add_parser("bound", help="certify a solution")
    _add_instance_args(bound)
    bound.add_argument("--trace", help="trace JSON produced by run")
    bound.add_argument("--solution", help="comma-separated element ids, in order")
    bound.add_argument("--method", default="algorithm1",
                       choices=["algorithm1", "theorem2", "theorem3", "theorem5"])
    bound.add_argument("--tau2", type=float)
    bound.add_argument("--k", type=int)
    bound.set_defaults(handler=cmd_bound)

    verify = sub.add_parser("verify", help="check function properties")
    _add_instance_args(verify)
    verify.add_argument("--properties", default="all")
    verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(handler=cmd_verify)

    bench = sub.add_parser("bench", help="time algorithms over an n grid")
    _add_instance_args(bench)
    bench.add_argument("--algos", required=True,
                       help="comma-separated algorithm names")
    bench.add_argument("--n-grid", required=True, dest="n_grid",
                       help="comma-separated ascending n values")
    bench.add_argument("--trials", type=int, default=5)
    bench.add_argument("--k", type=int)
    bench.add_argument("--ratio", help="also write the full/pairwise ratio of minimum times "
                       "as CSV here")
    bench.set_defaults(handler=cmd_bench)

    brute = sub.add_parser("bruteforce", help="exact optimum by enumeration")
    _add_instance_args(brute)
    brute.add_argument("--n", type=int, required=True)
    brute.set_defaults(handler=cmd_bruteforce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (PairsubError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
