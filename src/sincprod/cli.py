"""Command-line front end.

One subcommand per engine operation, reports as JSON, CSV or plain
text.  Exact rationals are always serialized as "p/q" strings, never as
floats.  Exit codes: 0 success, 1 a failed ``verify`` check, 2 usage
error, 3 a refusal by a cost budget: any ``sincprod.InfeasibleError``,
raised when the exact path is infeasible or an oracle call is past its
work cap MAX_ORACLE_WORK (the error report is emitted as JSON so
callers can machine-parse it).

The CLI holds no precision rule: the breaking-point search starts at
128 bits and doubles while an enclosure straddles the threshold, and
the oracle reads real scales (numeric_oracle.parse_scale), works out
its precision from the requested tolerance and renders its values.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import InfeasibleError, verify as verify_mod
from .borwein_engine import (
    MAX_FAMILY_SIZE,
    NODE_BUDGET_DEFAULT,
    CosineWeightSpec,
    SincProductSpec,
    deficit_report,
    fourier_spline,  # noqa: F401  (spline-dump renders spline_csv; the name stays for wrappers of cli.fourier_spline)
    integral_exact,
    spline_csv,
    weighted_integral_exact,
)
from .exact_core import HarmonicFamily, breaking_point_report
from .numeric_oracle import example5_report, lower_bound_check, numeric_sum, parse_scale, verify_ft_example5
from .rational import int_str, rat, rat_str

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _parse_spec(args) -> SincProductSpec:
    if args.betas and (args.family or args.n is not None):
        raise ValueError("give either --betas or --family with --n, not both")
    if args.betas:
        return SincProductSpec(tuple(_rational(tok) for tok in args.betas.split(",")))
    if args.family:
        if args.n is None:
            raise ValueError("--family requires --n")
        # the parser admits these two families alone
        return (SincProductSpec.odd_harmonic if args.family == "odd-harmonic" else SincProductSpec.sinc_power)(args.n)
    raise ValueError("a spec is required: --betas or --family with --n")


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report))
    elif fmt == "csv":
        keys = list(report.keys())
        print(",".join(keys))
        cells = []
        for k in keys:
            v = report[k]
            if isinstance(v, list):
                v = ";".join("=".join(str(p) for p in item) if isinstance(item, list) else str(item) for item in v)
            cells.append('"%s"' % v if "," in str(v) else str(v))
        print(",".join(cells))
    else:
        for k, v in report.items():
            print("%s: %s" % (k, v))


def _rational(token: str):
    """An exact rational read from text by rat, its errors naming the token as parse_scale's do."""
    try:
        return rat(token)
    except (ValueError, ZeroDivisionError) as exc:  # Fraction(1, 0) says only "Fraction(1, 0)"
        reason = "division by zero" if isinstance(exc, ZeroDivisionError) else exc
        raise ValueError("cannot read rational %r: %s" % (token, reason)) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return value


def _digit_count(text: str) -> int:
    # the decimal is one str() of an integer that many digits long, quadratic
    # in its length: 10^5 digits take 0.2 s, 10^6 about 19 s on a 2-CPU host
    value = _positive_int(text)
    if value > 100_000:
        raise argparse.ArgumentTypeError("at most 100000 digits, got %r" % text)
    return value


def _add_spec_flags(p):
    p.add_argument("--betas", help='comma list of rational scales, e.g. "1,1/3,1/5"')
    p.add_argument("--family", choices=["odd-harmonic", "sinc-power"])
    p.add_argument("--n", type=int, help="family size parameter, at most %d" % MAX_FAMILY_SIZE)


def _add_eval_flags(p, digits):
    _add_spec_flags(p)
    p.add_argument("--node-budget", type=_positive_int, default=NODE_BUDGET_DEFAULT,
                   help="cap on the knot entries the pruned DP expands per request")
    p.add_argument("--digits", type=_digit_count, default=digits, help="significant digits, 1 to 100000")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sincprod",
        description="Exact sinc-product integrals, sums, deficits and breaking points",
    )
    ap.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("breakpoint", help="largest n keeping the partial scale sum below a threshold")
    p.add_argument("--family", choices=["odd-harmonic"], default="odd-harmonic")
    p.add_argument("--threshold", required=True)

    p = sub.add_parser("integral", help="exact integral of the sinc product")
    _add_eval_flags(p, digits=12)

    p = sub.add_parser("weighted-integral", help="exact odd-cosine weighted integral")
    _add_eval_flags(p, digits=12)
    p.add_argument(
        "--weights", type=int, required=True,
        help="number of cosine terms: 1 means 2cos(pi t), 2 adds 2cos(3 pi t), ...",
    )

    p = sub.add_parser("deficit", help="exact deficit 1 - integral")
    _add_eval_flags(p, digits=10)
    p.add_argument(
        "--weights", type=int, default=0,
        help="number of cosine terms (0 = plain unweighted integral)",
    )

    p = sub.add_parser("sum", help="numeric integer-sample sum with rigorous tail bound")
    p.add_argument("--scales", required=True, help='comma list, e.g. "5pi/4,1,1"')
    p.add_argument("--alternating", action="store_true")
    p.add_argument("--one-sided", action="store_true")
    p.add_argument("--abs-tol", type=float, default=1e-10,
                   help="bound on the error of the value: the terms past a short direct head are "
                        "summed by parts with a rigorous remainder bound (tail_bound <= abs-tol)")

    p = sub.add_parser("lower-bound", help="sum-side lower bound counterexample check")
    p.add_argument("--a0", required=True)
    p.add_argument("--rest", required=True)
    p.add_argument("--abs-tol", type=float, default=5e-10)

    p = sub.add_parser("example5", help="band-limited kernel integral or transform check")
    p.add_argument("--a", help='comma list of positive scales, as sum reads them, e.g. "0.5,0.3" or "pi/8"')
    p.add_argument("--b", help="kernel frequency bound, a positive scale")
    p.add_argument("--ft-omegas", help="comma list of transform sample frequencies, read as scales")
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("spline-dump", help="emit the transform spline as CSV pieces (exit 3 past 4*10^6 words)")
    _add_spec_flags(p)
    p.add_argument("--output", help="file path, default stdout")

    p = sub.add_parser("verify", help="run the acceptance self-checks")
    p.add_argument("--suite", choices=["fast", "full"], default="fast")
    return ap


PARSER = build_parser()  # built once per process: it costs about as much as a median request


def _run(args) -> int:
    fmt = args.format
    if args.command == "breakpoint":
        threshold = _rational(args.threshold)
        rep = breaking_point_report(HarmonicFamily.odd_harmonic(), threshold)
        digits = int_str(rep.n)  # also lifts the int/str digit limit for json.dumps
        if fmt == "plain":
            print(digits)
        else:
            _emit(
                {
                    "command": "breakpoint",
                    "family": args.family,
                    "threshold": rat_str(threshold),
                    "breaking_point": rep.n,
                    "mode": rep.mode,
                    "precision_bits": rep.precision_bits,
                },
                fmt,
            )
        return EXIT_OK

    if args.command in ("integral", "weighted-integral", "deficit"):
        spec = _parse_spec(args)
        if args.command == "integral":
            report = integral_exact(spec, digits=args.digits, node_budget=args.node_budget)
            weights = None
        elif args.command == "weighted-integral":
            if args.weights < 1:
                raise ValueError("--weights must be >= 1 for weighted-integral")
            weights = CosineWeightSpec(args.weights - 1)
            report = weighted_integral_exact(spec, weights, digits=args.digits, node_budget=args.node_budget)
        else:
            if args.weights < 0:
                raise ValueError("--weights must be >= 0")
            weights = CosineWeightSpec(args.weights - 1) if args.weights else None
            report = deficit_report(spec, weights, digits=args.digits, node_budget=args.node_budget)
        _emit(report.to_dict(args.command, spec, weights), fmt)
        return EXIT_OK

    if args.command == "sum":
        scales = [parse_scale(tok) for tok in args.scales.split(",")]
        res = numeric_sum(scales, alternating=args.alternating, abs_tol=args.abs_tol, one_sided=args.one_sided)
        _emit({"command": "sum", "scales": args.scales, **res.to_dict()}, fmt)
        return EXIT_OK

    if args.command == "lower-bound":
        rep = lower_bound_check(
            parse_scale(args.a0), [parse_scale(t) for t in args.rest.split(",")], abs_tol=args.abs_tol
        )
        _emit({"command": "lower-bound", "a0": args.a0, "rest": args.rest, **rep}, fmt)
        return EXIT_OK

    if args.command == "example5":
        if args.ft_omegas:
            tokens = args.ft_omegas.split(",")
            samples = verify_ft_example5([parse_scale(tok) for tok in tokens], tol=args.tol)
            reports = [{"omega": tok, **r} for tok, r in zip(tokens, samples)]
            if fmt == "json":
                print(json.dumps({"command": "example5-ft", "samples": reports}))
            else:
                for r in reports:
                    _emit(r, fmt)
            return EXIT_OK
        if not args.a or not args.b:
            raise ValueError("example5 needs --a and --b (or --ft-omegas)")
        report = example5_report([parse_scale(tok) for tok in args.a.split(",")], parse_scale(args.b), tol=args.tol)
        _emit({"command": "example5", "a": args.a, "b": args.b, **report}, fmt)
        return EXIT_OK

    if args.command == "spline-dump":
        lines = spline_csv(_parse_spec(args))
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    fh.writelines(lines)
            except OSError as exc:
                raise ValueError("cannot write --output %s: %s" % (args.output, exc.strerror or exc)) from None
        else:
            sys.stdout.writelines(lines)
        return EXIT_OK

    # verify, the one command left: the parser admits no other
    results = verify_mod.run_suite(args.suite)
    failures = [r for r in results if not r.passed]
    for r in results:
        print(
            "%s  criterion %-2s  %-55s (%.2fs)  %s"
            % ("PASS" if r.passed else "FAIL", r.criterion, r.name, r.seconds, "" if r.passed else r.detail)
        )
    print("%d/%d checks passed (%s suite)" % (len(results) - len(failures), len(results), args.suite))
    return EXIT_OK if not failures else 1


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except (ValueError, ZeroDivisionError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
