"""Command-line front end.

One subcommand per engine operation, reports as JSON, CSV or plain
text.  Exact rationals are always serialized as "p/q" strings, never as
floats.  Exit codes: 0 success, 1 a failed ``verify`` check, 2 usage
error, 3 a refusal by a cost budget: any ``sincprod.InfeasibleError``,
raised when the exact path is infeasible or an oracle call is past its
work cap MAX_ORACLE_WORK (the error report is emitted as JSON so
callers can machine-parse it).

Each command is one row of COMMANDS: its help, its flags, the module
its handler runs on and the handler.  _read parses argv by the flags and
_help renders them for -h: --format goes before the command word, a
long flag may be shortened to a unique prefix and take its value as
"--flag value" or "--flag=value", and a usage error prints one
"usage error: ..." line.

A handler is a function of the namespace _read builds that prints the
command's report.  Before it runs, _run imports the row's module and
binds the names cli takes from it (_IMPORTS) but for those bound
already, such as a wrapper set on cli.  So ``import sincprod.cli``
loads no engine.  The handlers call these names through cli's globals,
not through a local import, because bench/tracing.py wraps nine names
on cli, seven of them these: a name set there is what a command calls.

The CLI holds no precision rule: the breaking-point search starts at
128 bits and doubles while an enclosure straddles the threshold, and
the oracle reads real scales (numeric_oracle.parse_scale), works out
its precision from the requested tolerance and renders its values.
"""

from __future__ import annotations

import json
import re
import sys
from importlib import import_module
from types import SimpleNamespace

from . import MAX_FAMILY_SIZE, NODE_BUDGET_DEFAULT, InfeasibleError
from .rational import int_str, rat, rat_str

_IMPORTS = {
    "borwein_engine": "CosineWeightSpec SincProductSpec deficit_report fourier_spline integral_exact spline_csv "
                      "weighted_integral_exact",  # no command calls fourier_spline: it is bound for wrappers
    "exact_core": "HarmonicFamily breaking_point_report",
    "numeric_oracle": "example5_report lower_bound_check numeric_sum parse_scale verify_ft_example5",
    "verify": "run_suite",
}
_OWNER = {name: module for module, names in _IMPORTS.items() for name in names.split()}


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return globals().setdefault(name, getattr(import_module("." + _OWNER[name], __package__), name))


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
        # the flag table admits these two families alone
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
        raise ValueError("expected a positive integer, got %r" % text)
    return value


def _digit_count(text: str) -> int:
    # the decimal is one str() of an integer that many digits long, quadratic
    # in its length: 10^5 digits take 0.2 s, 10^6 about 19 s on a 2-CPU host
    value = _positive_int(text)
    if value > 100_000:
        raise ValueError("at most 100000 digits, got %r" % text)
    return value


def _breakpoint(args):
    threshold = _rational(args.threshold)
    rep = breaking_point_report(HarmonicFamily.odd_harmonic(), threshold)
    digits = int_str(rep.n)  # also lifts the int/str digit limit for json.dumps
    if args.format == "plain":
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
            args.format,
        )


def _integral(args):
    spec = _parse_spec(args)
    report = integral_exact(spec, digits=args.digits, node_budget=args.node_budget)
    _emit(report.to_dict(args.command, spec, None), args.format)


def _weighted_integral(args):
    spec = _parse_spec(args)
    if args.weights < 1:
        raise ValueError("--weights must be >= 1 for weighted-integral")
    weights = CosineWeightSpec(args.weights - 1)
    report = weighted_integral_exact(spec, weights, digits=args.digits, node_budget=args.node_budget)
    _emit(report.to_dict(args.command, spec, weights), args.format)


def _deficit(args):
    spec = _parse_spec(args)
    if args.weights < 0:
        raise ValueError("--weights must be >= 0")
    weights = CosineWeightSpec(args.weights - 1) if args.weights else None
    report = deficit_report(spec, weights, digits=args.digits, node_budget=args.node_budget)
    _emit(report.to_dict(args.command, spec, weights), args.format)


def _sum(args):
    scales = [parse_scale(tok) for tok in args.scales.split(",")]
    res = numeric_sum(scales, alternating=args.alternating, abs_tol=args.abs_tol, one_sided=args.one_sided)
    _emit({"command": "sum", "scales": args.scales, **res.to_dict()}, args.format)


def _lower_bound(args):
    rep = lower_bound_check(
        parse_scale(args.a0), [parse_scale(t) for t in args.rest.split(",")], abs_tol=args.abs_tol
    )
    _emit({"command": "lower-bound", "a0": args.a0, "rest": args.rest, **rep}, args.format)


def _example5(args):
    if args.ft_omegas:
        tokens = args.ft_omegas.split(",")
        samples = verify_ft_example5([parse_scale(tok) for tok in tokens], tol=args.tol)
        reports = [{"omega": tok, **r} for tok, r in zip(tokens, samples)]
        if args.format == "json":
            print(json.dumps({"command": "example5-ft", "samples": reports}))
        else:
            for r in reports:
                _emit(r, args.format)
        return
    if not args.a or not args.b:
        raise ValueError("example5 needs --a and --b (or --ft-omegas)")
    report = example5_report([parse_scale(tok) for tok in args.a.split(",")], parse_scale(args.b), tol=args.tol)
    _emit({"command": "example5", "a": args.a, "b": args.b, **report}, args.format)


def _spline_dump(args):
    lines = spline_csv(_parse_spec(args))
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.writelines(lines)
        except OSError as exc:
            raise ValueError("cannot write --output %s: %s" % (args.output, exc.strerror or exc)) from None
    else:
        sys.stdout.writelines(lines)


def _verify(args) -> int:
    results = run_suite(args.suite)
    failures = [r for r in results if not r.passed]
    for r in results:
        print(
            "%s  criterion %-2s  %-55s (%.2fs)  %s"
            % ("PASS" if r.passed else "FAIL", r.criterion, r.name, r.seconds, "" if r.passed else r.detail)
        )
    print("%d/%d checks passed (%s suite)" % (len(results) - len(failures), len(results), args.suite))
    return EXIT_OK if not failures else 1


REQUIRED = object()  # the default of a flag that must be given
SPEC_FLAGS = {
    "--betas": (str, None, 'comma list of rational scales, e.g. "1,1/3,1/5"'),
    "--family": (("odd-harmonic", "sinc-power"), None, "a family of scales, sized by --n"),
    "--n": (int, None, "family size parameter, at most %d" % MAX_FAMILY_SIZE),
}


def _eval_flags(digits: int) -> dict:
    return {
        **SPEC_FLAGS,
        "--node-budget": (_positive_int, NODE_BUDGET_DEFAULT,
                          "cap on the knot entries the pruned DP expands per request"),
        "--digits": (_digit_count, digits, "significant digits, 1 to 100000"),
    }


# command -> (help, {flag: (converter, default, help)}, the module whose _IMPORTS names
# its handler calls, the handler); a converter is a callable, a tuple of the values
# accepted, or None for a switch, which takes no value
FORMAT_FLAGS = {"--format": (("json", "csv", "plain"), "plain", "how reports are printed")}
COMMANDS = {
    "breakpoint": ("largest n keeping the partial scale sum below a threshold", {
        "--family": (("odd-harmonic",), "odd-harmonic", "the scales 1/(2k+1), k = 0, 1, 2, ..."),
        "--threshold": (str, REQUIRED, 'a positive rational, e.g. "3" or "39/2"'),
    }, "exact_core", _breakpoint),
    "integral": ("exact integral of the sinc product", _eval_flags(12), "borwein_engine", _integral),
    "weighted-integral": ("exact odd-cosine weighted integral", {
        **_eval_flags(12),
        "--weights": (int, REQUIRED, "number of cosine terms: 1 means 2cos(pi t), 2 adds 2cos(3 pi t), ..."),
    }, "borwein_engine", _weighted_integral),
    "deficit": ("exact deficit 1 - integral", {
        **_eval_flags(10), "--weights": (int, 0, "number of cosine terms (0 = plain unweighted integral)"),
    }, "borwein_engine", _deficit),
    "sum": ("numeric integer-sample sum with rigorous tail bound", {
        "--scales": (str, REQUIRED, 'comma list, e.g. "5pi/4,1,1"'),
        "--alternating": (None, False, "sign each term by (-1)^m"),
        "--one-sided": (None, False, "sum over m >= 0 alone"),
        "--abs-tol": (float, 1e-10, "bound on the error of the value: the terms past a short direct head are "
                                    "summed by parts with a rigorous remainder bound (tail_bound <= abs-tol)"),
    }, "numeric_oracle", _sum),
    "lower-bound": ("sum-side lower bound counterexample check", {
        "--a0": (str, REQUIRED, "the largest scale, as sum reads it"),
        "--rest": (str, REQUIRED, "comma list of the other scales, each at most a0"),
        "--abs-tol": (float, 5e-10, "bound on the error of each of the two sums"),
    }, "numeric_oracle", _lower_bound),
    "example5": ("band-limited kernel integral or transform check", {
        "--a": (str, None, 'comma list of positive scales, as sum reads them, e.g. "0.5,0.3" or "pi/8"'),
        "--b": (str, None, "kernel frequency bound, a positive scale"),
        "--ft-omegas": (str, None, "comma list of transform sample frequencies, read as scales"),
        "--tol": (float, 1e-6, "bound on the error of each value"),
    }, "numeric_oracle", _example5),
    "spline-dump": ("emit the transform spline as CSV pieces (exit 3 past 4*10^6 words)", {
        **SPEC_FLAGS, "--output": (str, None, "file path, default stdout"),
    }, "borwein_engine", _spline_dump),
    "verify": ("run the acceptance self-checks", {
        "--suite": (("fast", "full"), "fast", "full adds threshold 7 and its 168,803-term certificate"),
    }, "verify", _verify),
}


def _help(command) -> str:
    """The -h text of the top level (command None) or of one command."""
    if command is None:
        text, flags = "Exact sinc-product integrals, sums, deficits and breaking points", FORMAT_FLAGS
        usage = "[-h] [--format {%s}] COMMAND [FLAG ...]" % ",".join(FORMAT_FLAGS["--format"][0])
        text += "\n\ncommands:\n" + "".join("  %-18s %s\n" % (name, help) for name, (help, *_) in COMMANDS.items())
    else:
        (text, flags, *_), usage = COMMANDS[command], command + " [-h] [FLAG ...]"
    rows = [("-h, --help", "show this help and exit")]
    for flag, (convert, default, help) in flags.items():
        value = "{%s}" % ",".join(convert) if isinstance(convert, tuple) else "" if convert is None else "VALUE"
        if convert is not None and default is not None:
            help += " (required)" if default is REQUIRED else " (default: %s)" % default
        rows.append(("%s %s" % (flag, value), help))
    rows = "".join("  %-18s %s\n" % row for row in rows)
    return "usage: sincprod %s\n\n%s\n\nflags:\n%s" % (usage, text.rstrip("\n"), rows)


NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _option(token: str, flags: dict):
    """token as (flag, the value attached to it or None) if it names one of flags or -h, as (None,
    token) if it looks like an option of another table, or None if it is a word: "-" alone, a
    negative number or a token with a space.  A long flag may be shortened to a unique prefix."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if token[:2] == "--":
        found = [name] if name in flags else [f for f in [*flags, "--help"] if f.startswith(name)]
        if len(found) > 1:
            raise ValueError("ambiguous option: %s could match %s" % (name, ", ".join(found)))
        if found:
            return found[0], value if eq else None
    elif token[:2] == "-h":  # "-hh" is -h twice, and "-h=" attaches a value as "--help=" does
        return "-h", token[3:] if name == "-h" and eq else token[2:] or None
    return None if " " in token or NEGATIVE_NUMBER.match(token) else (None, token)


def _read(argv):
    """The namespace _run reads, from argv by the flag tables, or None once -h has printed its help.

    Tokens are read left to right: --format and -h, then the command word, then its flags.  The top
    level classifies the tokens to the first command name, the command's table the rest, each before
    reading any, so an ambiguous prefix is reported first; a conversion error stops the reading at
    once; unrecognized tokens, those from the first "--" on among them, are reported at the end."""
    cut = argv.index("--") if "--" in argv else len(argv)
    tokens, stray, command, flags, values = argv[:cut], argv[cut:], None, FORMAT_FLAGS, {}
    for token in (token for token in tokens if token[:3] == "--="):
        _option(token, flags)  # raises wherever it stands: "--" begins both top-level names
    top = next((j + 1 for j, token in enumerate(tokens) if token in COMMANDS), len(tokens))
    kinds, i = [_option(token, flags) for token in tokens[:top]], 0
    while i < len(tokens):
        kind, i = kinds[i], i + 1
        if kind is None and command is None:
            command = tokens[i - 1]
            if command not in COMMANDS:
                raise ValueError("invalid command %r (choose from %s)" % (command, ", ".join(COMMANDS)))
            flags = COMMANDS[command][1]
            kinds[i:] = [_option(token, flags) for token in tokens[i:]]
        elif kind is None or kind[0] is None:
            stray.append(tokens[i - 1])
        elif kind[0] in ("-h", "--help"):
            if kind[1] is not None and (kind[0] == "--help" or kind[1].strip("h") or not kind[1]):
                raise ValueError("argument -h/--help: ignored explicit argument %r" % kind[1])
            print(_help(command), end="")
            return None
        else:
            flag, value = kind
            convert = flags[flag][0]
            if convert is None and value is not None:
                raise ValueError("argument %s: ignored explicit argument %r" % (flag, value))
            if convert is not None and value is None:
                if i == len(tokens) or kinds[i] is not None:
                    raise ValueError("argument %s: expected one argument" % flag)
                value, i = tokens[i], i + 1
            values[flag] = _convert(flag, convert, value)
    if command is None:
        raise ValueError("a command is required: %s" % ", ".join(COMMANDS))
    missing = [flag for flag, (_, default, _) in flags.items() if default is REQUIRED and flag not in values]
    if missing:
        raise ValueError("the following arguments are required: %s" % ", ".join(missing))
    if stray:
        raise ValueError("unrecognized arguments: %s" % " ".join(stray))
    both = {**FORMAT_FLAGS, **flags}
    return SimpleNamespace(command=command, **{f[2:].replace("-", "_"): values.get(f, both[f][1]) for f in both})


def _convert(flag: str, convert, value: str):
    if convert is None:
        return True
    if isinstance(convert, tuple):
        if value not in convert:
            raise ValueError("argument %s: invalid choice: %r (choose from %s)" % (flag, value, ", ".join(convert)))
        return value
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError("argument %s: %s" % (flag, exc)) from None


def _run(args) -> int:
    _, _, engine, handler = COMMANDS[args.command]
    for name in _IMPORTS[engine].split():
        if name not in globals():
            __getattr__(name)
    return handler(args) or EXIT_OK


def main(argv=None) -> int:
    try:
        args = _read(sys.argv[1:] if argv is None else list(argv))
        return EXIT_OK if args is None else _run(args)
    except (ValueError, ZeroDivisionError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
