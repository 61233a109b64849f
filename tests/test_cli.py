import ast
import contextlib
import io
import json
import math
import os
import resource
import shlex
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sincprod import cli, numeric_oracle
from sincprod.borwein_engine import MAX_SAMPLE_POINTS, ExactPathUnavailableError, SincProductSpec, fourier_spline
from sincprod.exact_core import NonTerminatingSearchError
from sincprod.numeric_oracle import ToleranceUnreachableError, numeric_sum
from sincprod.rational import rat
from sincprod.spline_engine import SplineSizeError
from sincprod import verify as verify_mod


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_breakpoint_plain(capsys):
    code, out, _ = run_cli(capsys, "breakpoint", "--family", "odd-harmonic", "--threshold", "3")
    assert code == 0
    assert out.strip() == "55"


def test_breakpoint_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "breakpoint", "--threshold", "2")
    assert code == 0
    d = json.loads(out)
    assert d["breaking_point"] == 6 and d["mode"] == "exact"


@pytest.mark.parametrize(
    "threshold, mode, bits", [("3", "exact", None), ("5", "closed_form", 128), ("11", "closed_form", 128),
                              ("100", "closed_form", 512)],
)
def test_breakpoint_reports_its_precision(capsys, threshold, mode, bits):
    # the closed form starts at 128 bits and doubles while S_n straddles t
    code, out, _ = run_cli(capsys, "--format", "json", "breakpoint", "--threshold", threshold)
    d = json.loads(out)
    assert code == 0 and (d["mode"], d["precision_bits"]) == (mode, bits)


def test_integral_json_fields(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "integral", "--betas", "1")
    d = json.loads(out)
    assert code == 0
    assert d["exact"] == "1/1"
    assert d["decimal"] == "1"
    # exact fields are strings, never floats
    assert isinstance(d["exact"], str) and isinstance(d["support_radius"], str)


def test_deficit_weights_one_means_single_cosine(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "deficit",
        "--family", "odd-harmonic", "--n", "56", "--weights", "1",
    )
    d = json.loads(out)
    assert code == 0
    assert d["decimal"] == "1.484870809e-138"
    assert d["deficit_terms"][0][0] == 3


@pytest.mark.parametrize("n", [56, 57])
def test_heaviest_deficit_matches_the_edge_polynomial(capsys, n):
    # x = 3 is the one sample point, and it lies in the edge region
    # R - 2/(2n+1) < 3 <= R, where F(x) = (R - x)^n / (n! 2^n prod beta_k);
    # the expected deficit 2 F(3) is worked out here in plain Fractions
    betas = [Fraction(1, 2 * k + 1) for k in range(n + 1)]
    R = sum(betas, Fraction(0))
    assert R - Fraction(2, 2 * n + 1) < 3 <= R
    expected = 2 * (R - 3) ** n / (math.factorial(n) * 2**n * math.prod(betas))
    code, out, _ = run_cli(
        capsys, "--format", "json", "deficit", "--family", "odd-harmonic", "--n", str(n), "--weights", "1"
    )
    d = json.loads(out)
    assert code == 0
    assert [x for x, _ in d["deficit_terms"]] == [3]
    assert Fraction(d["exact"]) == expected
    assert d["deficit"] == d["exact"]
    if n == 56:
        assert d["decimal"] == "1.484870809e-138"


def test_weighted_integral_cli(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "weighted-integral",
        "--family", "odd-harmonic", "--n", "55", "--weights", "1",
    )
    d = json.loads(out)
    assert code == 0 and d["exact"] == "1/1"


def test_sum_cli_parses_pi_grammar(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "sum",
        "--scales", "5pi/4,1,1", "--one-sided", "--abs-tol", "1e-9",
    )
    d = json.loads(out)
    assert code == 0
    assert abs(float(d["value"]) - 0.9) < 5e-9


def test_sum_scales_read_at_full_precision(capsys):
    # a 53-bit 5 pi / 4 alone puts the sum 1.6e-17 away from 9/10
    argv = ["--format", "json", "sum", "--scales", "5pi/4,1,1", "--one-sided", "--abs-tol", "1e-20"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert abs(Fraction(json.loads(out)["value"]) - Fraction(9, 10)) < Fraction(1, 10**20)
    res = numeric_sum([numeric_oracle.parse_scale(t) for t in ("5pi/4", "1", "1")], one_sided=True, abs_tol=1e-20)
    with mp.workprec(200):
        assert abs(res.value - mp.mpf(9) / 10) < 1e-20


def test_weighted_integral_stops_at_the_support(capsys):
    # F vanishes past the radius 5/6, so a billion cosine terms cost nothing
    t0 = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "--format", "json", "weighted-integral", "--betas", "1/2,1/3", "--weights", "1000000000"
    )
    assert code == 0 and time.perf_counter() - t0 < 1
    assert json.loads(out)["exact"] == "0/1"
    # a point exactly at the radius stays: the box's jump there is worth 1/(2 beta)
    code, out, _ = run_cli(capsys, "--format", "json", "weighted-integral", "--betas", "3", "--weights", "2")
    assert code == 0 and json.loads(out)["exact"] == "1/1"  # 2 (1/3 + 1/6)


@pytest.mark.parametrize(
    "argv",
    [
        ["integral", "--betas", "1e400,1"],
        ["deficit", "--betas", "1,%d" % (2 * MAX_SAMPLE_POINTS + 1)],
        ["weighted-integral", "--betas", "1e400", "--weights", "1000000000"],
    ],
)
def test_sample_point_count_exits_three_at_once(capsys, argv):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 3 and json.loads(out)["error"]["type"] == "ExactPathUnavailableError"


def test_lower_bound_cli(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "lower-bound", "--a0", "5pi/4", "--rest", "1,1",
    )
    d = json.loads(out)
    assert code == 0
    assert d["hypothesis_holds"] is False and d["inequality_holds"] is False


@pytest.mark.parametrize(
    "a0, holds",
    [
        # 3 a0 = 2 pi (1 - 1e-26): below 2 pi at the sums' 128 bits, equal at 53
        ("0.66666666666666666666666666pi", True),
        # 3 a0 = 2 pi exactly: a gap of a rounding or two must not count
        ("2pi/3", False),
        ("5pi/4", False),
    ],
)
def test_lower_bound_hypothesis_at_working_precision(capsys, a0, holds):
    code, out, _ = run_cli(capsys, "--format", "json", "lower-bound", "--a0", a0, "--rest", "1,1")
    assert code == 0 and json.loads(out)["hypothesis_holds"] is holds


# stdout, plain and JSON, of oracle commands whose renderings stay fixed
ORACLE_OUTPUTS = [
    ("sum --scales 5pi/4,1,1 --one-sided",
     'command: sum\nscales: 5pi/4,1,1\nvalue: 0.9\ntruncation_m: 124\ntail_bound: 5.5048e-26\n'
     'requested_tol: 1e-10\none_sided: True\n',
     '{"command": "sum", "scales": "5pi/4,1,1", "value": "0.9", "truncation_m": 124, "tail_bound": "5.5048e-26", '
     '"requested_tol": 1e-10, "one_sided": true}\n'),
    # three equal scales summing to 2 pi put a frequency at z = 1: the Hurwitz zeta path
    ("sum --scales 2pi/3,2pi/3,2pi/3",
     'command: sum\nscales: 2pi/3,2pi/3,2pi/3\nvalue: 1.125\ntruncation_m: 25\ntail_bound: 2.0586e-33\n'
     'requested_tol: 1e-10\none_sided: False\n',
     '{"command": "sum", "scales": "2pi/3,2pi/3,2pi/3", "value": "1.125", "truncation_m": 25, '
     '"tail_bound": "2.0586e-33", "requested_tol": 1e-10, "one_sided": false}\n'),
    ("lower-bound --a0 5pi/4 --rest 1,1",
     'command: lower-bound\na0: 5pi/4\nrest: 1,1\nlhs: 0.9\nrhs: 0.996\nlhs_truncation_m: 124\n'
     'rhs_truncation_m: 57\nhypothesis_holds: False\ninequality_holds: False\nmargin: -0.096\n',
     '{"command": "lower-bound", "a0": "5pi/4", "rest": "1,1", "lhs": "0.9", "rhs": "0.996", "lhs_truncation_m": 124, '
     '"rhs_truncation_m": 57, "hypothesis_holds": false, "inequality_holds": false, "margin": "-0.096"}\n'),
    ("example5 --a 0.5,0.3 --b 1",
     'command: example5\na: 0.5,0.3\nb: 1\nvalue: 3.1415926548097012\npi_difference: 1.2199e-9\n',
     '{"command": "example5", "a": "0.5,0.3", "b": "1", "value": "3.1415926548097012", '
     '"pi_difference": "1.2199e-9"}\n'),
    ("example5 --a 0.5,0.3 --b 1 --tol 1e-12",
     'command: example5\na: 0.5,0.3\nb: 1\nvalue: 3.1415926535897922\npi_difference: -9.9407e-16\n',
     '{"command": "example5", "a": "0.5,0.3", "b": "1", "value": "3.1415926535897922", '
     '"pi_difference": "-9.9407e-16"}\n'),
    ("example5 --a 0.9 --b 0.5 --tol 1e-4",
     'command: example5\na: 0.9\nb: 0.5\nvalue: 2.1184129104192162\npi_difference: -1.0232\n',
     '{"command": "example5", "a": "0.9", "b": "0.5", "value": "2.1184129104192162", "pi_difference": "-1.0232"}\n'),
    ("example5 --ft-omegas 0,1/2,-1/2,3/2",
     'omega: 0\nnumeric: 4.9699263558324856\nclosed_form: 4.9699264004508497\ndifference: -4.4618e-8\n'
     'within_tol: True\nomega: 1/2\nnumeric: 3.0144127508196633\nclosed_form: 3.0144127383886874\n'
     'difference: 1.2431e-8\nwithin_tol: True\nomega: -1/2\nnumeric: 3.0144127508196633\n'
     'closed_form: 3.0144127383886874\ndifference: 1.2431e-8\nwithin_tol: True\nomega: 3/2\n'
     'numeric: -1.0735150411768412e-10\nclosed_form: 0.0\ndifference: -1.0735e-10\nwithin_tol: True\n',
     '{"command": "example5-ft", "samples": [{"omega": "0", "numeric": "4.9699263558324856", '
     '"closed_form": "4.9699264004508497", "difference": "-4.4618e-8", "within_tol": true}, '
     '{"omega": "1/2", "numeric": "3.0144127508196633", "closed_form": "3.0144127383886874", '
     '"difference": "1.2431e-8", "within_tol": true}, {"omega": "-1/2", "numeric": "3.0144127508196633", '
     '"closed_form": "3.0144127383886874", "difference": "1.2431e-8", "within_tol": true}, '
     '{"omega": "3/2", "numeric": "-1.0735150411768412e-10", "closed_form": "0.0", "difference": "-1.0735e-10", '
     '"within_tol": true}]}\n'),
    ("example5 --a 355/113000 --b 1/7 --tol 1e-4",
     'command: example5\na: 355/113000\nb: 1/7\nvalue: 3.1415926544043327\npi_difference: 8.1454e-10\n',
     '{"command": "example5", "a": "355/113000", "b": "1/7", "value": "3.1415926544043327", '
     '"pi_difference": "8.1454e-10"}\n'),
]


@pytest.mark.parametrize("json_format", [False, True])
@pytest.mark.parametrize("line, plain, as_json", ORACLE_OUTPUTS, ids=[o[0] for o in ORACLE_OUTPUTS])
def test_oracle_outputs_are_pinned(capsys, line, plain, as_json, json_format):
    argv = ["--format", "json"] * json_format + line.split()
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, as_json if json_format else plain)


@pytest.mark.parametrize(
    "line, err",
    [
        ("sum --scales pi/0,1,1", "usage error: cannot read scale 'pi/0': division by zero\n"),
        ("sum --scales nan,1,1", "usage error: cannot read scale 'nan': invalid literal for int() with base 10: 'nan'\n"),
        ("sum --scales 0,1,1", "usage error: scales must be a nonempty list of positive finite reals\n"),
        ("lower-bound --a0 pi/0 --rest 1,1", "usage error: cannot read scale 'pi/0': division by zero\n"),
        ("lower-bound --a0 1 --rest nan", "usage error: cannot read scale 'nan': invalid literal for int() with base 10: 'nan'\n"),
        ("lower-bound --a0 0 --rest 1,1", "usage error: requires a0 >= a_k > 0\n"),
        ("example5 --ft-omegas 1/0", "usage error: cannot read scale '1/0': division by zero\n"),
        ("example5 --a 0.5,0.3 --b nan",
         "usage error: cannot read scale 'nan': invalid literal for int() with base 10: 'nan'\n"),
        ("example5 --a 0.5,abc --b 1",
         "usage error: cannot read scale 'abc': invalid literal for int() with base 10: 'abc'\n"),
        ("example5 --a 0.5,0 --b 1", "usage error: scales must be a nonempty list of positive finite reals\n"),
        ("integral --betas 1,abc",
         "usage error: cannot read rational 'abc': invalid literal for int() with base 10: 'abc'\n"),
        ("breakpoint --threshold 1/0", "usage error: cannot read rational '1/0': division by zero\n"),
    ],
)
def test_scale_reader_usage_errors_are_pinned(capsys, line, err):
    assert run_cli(capsys, *line.split()) == (2, "", err)


def test_example5_reads_pi_scales(capsys):
    # the kernel's scales take sum's grammar: pi/8 + pi/10 < 1 = b, so the integral is pi
    code, out, _ = run_cli(capsys, "--format", "json", "example5", "--a", "pi/8,pi/10", "--b", "1", "--tol", "1e-8")
    assert code == 0 and abs(mp.mpf(json.loads(out)["value"]) - mp.pi) <= 1e-8


def test_cli_holds_no_precision_rule():
    # the oracle reads the scales and renders its values, at precisions it derives itself
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert not imported & {"mpmath", "MAX_PRECISION_BITS", "kernel_prec_bits"}


def test_spline_dump_round_trips(capsys, tmp_path):
    target = tmp_path / "spline.csv"
    code, out, _ = run_cli(
        capsys, "spline-dump", "--betas", "1,1/3,1/5", "--output", str(target)
    )
    assert code == 0
    assert target.read_text() == fourier_spline(SincProductSpec((rat(1), rat(1, 3), rat(1, 5)))).to_csv()


def test_spline_dump_stdout(capsys):
    code, out, _ = run_cli(capsys, "spline-dump", "--betas", "1,1")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].split(",")[0] == "-2/1"


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "integral")[0] == 2                      # no spec
    assert run_cli(capsys, "integral", "--betas", "0")[0] == 2      # invalid scale
    assert run_cli(capsys, "integral", "--betas", "1", "--family", "odd-harmonic")[0] == 2
    assert run_cli(capsys, "weighted-integral", "--betas", "1", "--weights", "0")[0] == 2


def test_infeasible_exact_path_exits_three(capsys):
    # a sample point over its node budget refuses the request, however few knots the spec has
    for betas, budget in [(",".join("1/%d" % (k + 2) for k in range(25)), "10000"), ("1/2,1/3", "1")]:
        code, out, _ = run_cli(capsys, "--format", "json", "integral", "--betas", betas, "--node-budget", budget)
        assert code == 3
        d = json.loads(out)
        assert d["error"]["type"] == "ExactPathUnavailableError"


def test_default_node_budget_breach_takes_seconds(capsys):
    # F(3) of 201 odd-harmonic factors prunes almost nothing, so only the
    # default budget stops it, and that must take seconds, not minutes
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(30)
    try:
        code, out, _ = run_cli(
            capsys, "--format", "json", "weighted-integral", "--family", "odd-harmonic", "--n", "200", "--weights", "1"
        )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3 and json.loads(out)["error"]["type"] == "ExactPathUnavailableError"


def test_node_budget_refuses_before_the_knot_denominator():
    # D of 2001 odd-harmonic factors is a product of integers of about 1,700
    # digits that takes minutes; a fresh process, since the alarm cannot
    # interrupt one long integer product within this one
    argv = [sys.executable, "-m", "sincprod.cli", "--format", "json", "integral",
            "--family", "odd-harmonic", "--n", "2000", "--node-budget", "1000"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(10)
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "ExactPathUnavailableError"


def _limited_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_huge_family_is_priced_before_its_integer_form(n):
    # the integer form of 10^5 odd-harmonic scales alone is about 3.6 GB; the
    # child runs under a 1 GiB address-space cap and a timeout
    argv = [sys.executable, "-m", "sincprod.cli", "--format", "json", "integral",
            "--family", "odd-harmonic", "--n", str(n)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=20, preexec_fn=_limited_address_space)
    assert proc.returncode == 3, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "ExactPathUnavailableError" and "integer form" in error["message"]


@pytest.mark.parametrize(
    "argv",
    [["integral", "--betas", "1,1/3", "--node-budget", "1"],
     ["deficit", "--family", "odd-harmonic", "--n", "56", "--weights", "1", "--node-budget", "100"]],
)
def test_small_node_budget_prices_no_integer_form(capsys, argv):
    # the first runs no DP (its support certifies 1); the second's DP visits 57
    # entries, below its budget, though its integer form takes 146 words
    assert run_cli(capsys, *argv)[0] == 0


@pytest.mark.parametrize(
    "error", [ExactPathUnavailableError, NonTerminatingSearchError, SplineSizeError, ToleranceUnreachableError]
)
def test_every_infeasible_error_exits_three_with_json(capsys, monkeypatch, error):
    def refuse(*args, **kwargs):
        raise error("refused")

    monkeypatch.setattr(cli, "integral_exact", refuse)
    code, out, err = run_cli(capsys, "--format", "json", "integral", "--betas", "1")
    assert (code, err) == (3, "")
    assert json.loads(out) == {"error": {"type": error.__name__, "message": "refused"}}


def test_former_budget_fallbacks_are_fast(capsys):
    # sinc powers coalesce to n + 1 knots, so a small node budget suffices
    # at every sample point and no request falls back or stalls
    t0 = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "--format", "json", "integral", "--family", "sinc-power", "--n", "30", "--node-budget", "20000"
    )
    assert code == 0 and time.perf_counter() - t0 < 1
    n = 30  # the classical closed form of the integral of sinc^n(pi t)
    expected = Fraction(
        sum((-1) ** k * math.comb(n, k) * (n - 2 * k) ** (n - 1) for k in range((n + 1) // 2)),
        2 ** (n - 1) * math.factorial(n - 1),
    )
    d = json.loads(out)
    assert d["exact"] == "%d/%d" % (expected.numerator, expected.denominator)
    assert d["decimal"] == "0.251048514991"
    assert [x for x, _ in d["deficit_terms"]] == list(range(2, 31, 2))
    t0 = time.perf_counter()
    code, _, _ = run_cli(capsys, "deficit", "--family", "sinc-power", "--n", "40")
    assert code == 0 and time.perf_counter() - t0 < 1


def test_spline_dump_size_guard_exits_three(capsys):
    code, out, _ = run_cli(
        capsys, "spline-dump", "--betas", ",".join("1/%d" % (k + 2) for k in range(25))
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "SplineSizeError"


def test_byte_identical_reruns(capsys):
    argv = ["--format", "json", "integral", "--family", "odd-harmonic", "--n", "7"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_second_call_gets_defaults_back(capsys, monkeypatch):
    # one parser serves every main() call in a process; flags given to
    # the first call must not leak into the second as defaults
    seen = []
    real = cli.deficit_report

    def recording(spec, weights, **kwargs):
        seen.append((weights, kwargs["node_budget"]))
        return real(spec, weights, **kwargs)

    monkeypatch.setattr(cli, "deficit_report", recording)
    spec = ["deficit", "--family", "odd-harmonic", "--n", "8"]
    code, out, _ = run_cli(capsys, "--format", "json", *spec, "--weights", "2", "--node-budget", "5")
    assert code == 0 and json.loads(out)["weights"] == 1
    code, out, _ = run_cli(capsys, *spec)
    assert code == 0
    assert out.startswith("command: deficit\n") and "weights: None\n" in out
    assert seen == [(cli.CosineWeightSpec(1), 5), (None, cli.NODE_BUDGET_DEFAULT)]


@pytest.mark.parametrize(
    "command", [["sum", "--scales", "5pi/4,1,1"], ["lower-bound", "--a0", "5pi/4", "--rest", "1,1"]]
)
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-inf"])
def test_bad_abs_tol_exits_two(capsys, command, tol):
    code, out, err = run_cli(capsys, *command, "--abs-tol=" + tol)
    assert code == 2 and out == ""
    assert "abs_tol must be a positive finite number" in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", [["--a", "0.5,0.3", "--b", "1"], ["--ft-omegas", "0"]])
def test_bad_example5_tol_exits_two(capsys, command, tol):
    code, out, err = run_cli(capsys, "example5", *command, "--tol=" + tol)
    assert code == 2 and out == ""
    assert "tol must be a positive finite number" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sum", "--scales", "pi/0,1,1"], "'pi/0'"),
        (["sum", "--scales", "1,x,1"], "'x'"),
        (["spline-dump", "--betas", "1,1", "--output", "/nonexistent-dir/x.csv"], "/nonexistent-dir/x.csv"),
        (["integral", "--betas", "1,1", "--node-budget", "-1"], "--node-budget"),
        (["integral", "--betas", "1,1", "--size-guard", "0"], "--size-guard"),
        (["spline-dump", "--betas", "1,1", "--size-guard", "0"], "--size-guard"),
        # each limit belongs to one kind of operation
        (["integral", "--betas", "1,1", "--size-guard", "5"], "--size-guard"),
        (["spline-dump", "--betas", "1,1", "--node-budget", "1"], "--node-budget"),
        # the search works out its own precision
        (["breakpoint", "--threshold", "3", "--precision-bits", "256"], "unrecognized arguments"),
    ],
)
def test_bad_inputs_exit_two_with_a_message(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_sum_near_resonance_exits_three_at_once(capsys):
    # 2 + 1.141592654 is 4e-10 from pi: the alternating sum has a
    # frequency that close to 2 pi and would need a head of 1e11 terms
    t0 = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "--format", "json", "sum", "--scales", "2,1.141592654", "--alternating", "--abs-tol", "1e-14"
    )
    assert time.perf_counter() - t0 < 1
    assert code == 3 and json.loads(out)["error"]["type"] == "ToleranceUnreachableError"


def test_sum_refusal_keeps_its_message(capsys):
    code, out, err = run_cli(capsys, "sum", "--scales", "2,1.1415926535", "--alternating", "--abs-tol", "1e-12")
    assert code == 3 and err == ""
    assert json.loads(out) == {"error": {
        "type": "ToleranceUnreachableError",
        "message": "a tail within abs_tol 1e-12 needs a direct head of 445467840171 terms, past the 59994-term cap "
                   "(a frequency of the summand is 8.9793e-11 from resonance)",
    }}


@pytest.mark.parametrize("threshold, digits", [("11", 9), ("100", 87)])
def test_breakpoint_large_threshold_is_fast(capsys, threshold, digits):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "--format", "json", "breakpoint", "--threshold", threshold)
    assert time.perf_counter() - t0 < 1.0
    d = json.loads(out)
    assert code == 0 and d["mode"] == "closed_form" and len(str(d["breaking_point"])) == digits
    if threshold == "11":
        assert d["breaking_point"] == 503195827


def test_breakpoint_prints_more_digits_than_the_int_str_limit(capsys):
    # n for t = 5000 has about 4,340 digits, past Python's default 4,300
    code, out, _ = run_cli(capsys, "breakpoint", "--threshold", "5000")
    assert code == 0 and len(out.strip()) > 4300 and out.strip().isdigit()


def test_breakpoint_beyond_max_precision_exits_three(capsys):
    # n would have about 17,300 bits: no precision up to the cap tells S_n from S_(n+1)
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "--format", "json", "breakpoint", "--threshold", "6000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert json.loads(out)["error"]["type"] == "NonTerminatingSearchError"


def test_breakpoint_threshold_beyond_int_str_limit():
    # a fresh process, so no earlier serialization has raised the
    # interpreter's 4300-digit int/str limit yet
    threshold = "2" + "0" * 4999 + "1/1" + "0" * 5000  # (2 10^5000 + 1) / 10^5000
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "sincprod.cli", "breakpoint", "--threshold", threshold],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "6"


@pytest.mark.parametrize(
    "spec, significant", [(["--betas", "1/3,1/5"], "3"), (["--family", "odd-harmonic", "--n", "7"], 5000)]
)
def test_digits_beyond_int_str_limit(spec, significant):
    # a fresh process, as above: 5,000 digits pass the 4,300-digit limit
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "sincprod.cli", "--format", "json", "integral", *spec, "--digits", "5000"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    decimal = json.loads(proc.stdout)["decimal"]
    if isinstance(significant, str):
        assert decimal == significant  # the exact value 3 has no digits to trim back in
    else:
        assert decimal.startswith("0.99999") and len(decimal) - 2 == significant


def test_deficit_output_does_not_depend_on_the_int_str_limit():
    # fresh processes: one at a 640-digit limit, below the deficit's own
    # digit count, must lift it and print what one at the default prints
    argv = [sys.executable, "-m", "sincprod.cli", "--format", "json", "deficit",
            "--family", "odd-harmonic", "--n", "56", "--weights", "1"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    default = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    low = subprocess.run(argv, capture_output=True, env=dict(env, PYTHONINTMAXSTRDIGITS="640"), timeout=120)
    assert default.returncode == 0 and low.returncode == 0, low.stderr
    assert low.stdout == default.stdout


BAD_NUMBERS = ["", "1/0", "pi/0", "nan", "inf", "1e400", "-1/2", "2/3/4"]
numbers = st.sampled_from(BAD_NUMBERS) | st.sampled_from(["1", "1/3", "2", "3/2", "5pi/4"])
number_lists = st.lists(numbers, min_size=1, max_size=3).map(",".join)
tolerances = st.sampled_from(["0", "nan", "1e-30", "1e-9"])
# a head of about 1e9 panels, one of 60, and a transform sample far outside the band
example5_extras = st.sampled_from(["1e-9", "355/113000", "1e9"])


@st.composite
def cli_argv(draw):
    """argv for every subcommand but verify, which reruns the acceptance checks."""
    command = draw(st.sampled_from(
        ["breakpoint", "integral", "weighted-integral", "deficit", "sum", "lower-bound", "spline-dump", "example5"]
    ))
    argv = draw(st.sampled_from([[], ["--format", "json"], ["--format", "csv"]])) + [command]
    if command == "example5":
        pool = numbers | example5_extras
        tol = "--tol=" + draw(tolerances | example5_extras)
        if draw(st.booleans()):
            return argv + ["--ft-omegas=" + draw(st.lists(pool, min_size=1, max_size=3).map(",".join)), tol]
        return argv + ["--a=" + draw(st.lists(pool, min_size=1, max_size=3).map(",".join)), "--b=" + draw(pool), tol]
    if command == "breakpoint":
        return argv + ["--threshold=" + draw(numbers)]
    if command == "sum":
        flags = draw(st.lists(st.sampled_from(["--alternating", "--one-sided"]), unique=True))
        return argv + ["--scales=" + draw(number_lists), "--abs-tol=" + draw(tolerances)] + flags
    if command == "lower-bound":
        return argv + ["--a0=" + draw(numbers), "--rest=" + draw(number_lists), "--abs-tol=" + draw(tolerances)]
    family = ["--family", draw(st.sampled_from(["odd-harmonic", "sinc-power"])), "--n", str(draw(st.integers(-1, 12)))]
    argv += draw(st.sampled_from([family, ["--betas=" + draw(number_lists)]]))
    argv += draw(st.sampled_from([[], ["--size-guard" if command == "spline-dump" else "--node-budget", "1"]]))
    if command in ("weighted-integral", "deficit"):
        argv += ["--weights", str(draw(st.sampled_from([-1, 0, 1, 2, 7, 10**9])))]
    if command != "spline-dump":
        argv += draw(st.sampled_from([[], ["--digits", draw(st.sampled_from(["x", "-1", "0", "40", "100000", "100001"]))]]))
    return argv


def _hung(signum, frame):
    raise TimeoutError("no exit before the alarm")


# inputs at the cost caps run on every call, as random draws may miss them
@example(argv=["integral", "--betas=1e400,1"])
@example(argv=["weighted-integral", "--betas=1e400", "--weights", "1000000000"])
@example(argv=["example5", "--a=1e-9", "--b=1"])
@example(argv=["example5", "--ft-omegas=1e9"])
@example(argv=["sum", "--scales=" + ",".join(["pi"] + ["pi/%d" % (2 * k + 1) for k in range(1, 20)])])
@example(argv=["sum", "--scales=" + ",".join(["1"] * 17)])
@example(argv=["lower-bound", "--a0=1", "--rest=" + ",".join(["1"] * 16)])
@example(argv=["integral", "--betas=1", "--digits", "1000000000"])
@settings(max_examples=200, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
@given(argv=cli_argv())
def test_cli_argv_exit_codes(argv):
    # every argv ends in success, a usage error or an infeasible-path report, never a traceback;
    # the deadline is checked only once a call returns, so an alarm fails a call that hangs
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(10)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "integral", "--betas", "1,1/3")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0].startswith("command,")
    assert len(lines) == 2


@pytest.mark.parametrize(
    "argv, gap",
    [(["--a", "0.5,0.3", "--b", "1"], "1.2199e-9"), (["--a", "1", "--b", "1", "--tol", "1e-30"], "-5.5256e-33")],
)
def test_example5_pi_difference_at_working_precision(capsys, argv, gap):
    # at 53 bits the second gap would read as the rounding of pi, 1.2246e-16
    code, out, _ = run_cli(capsys, "--format", "json", "example5", *argv)
    assert code == 0 and json.loads(out)["pi_difference"] == gap


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("sincprod ")]
    return [line for line in lines if shlex.split(line)[1] != "verify"]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_lines_run(capsys, monkeypatch, tmp_path, line):
    # every documented command but verify exits 0, and prints the value its "# -> value" comment names
    monkeypatch.chdir(tmp_path)
    command, _, comment = line.partition("#")
    code, out, err = run_cli(capsys, *shlex.split(command)[1:])
    assert code == 0, err
    if comment.strip().startswith("->"):
        assert out.strip() == comment.strip()[2:].strip()


def test_verify_fast_suite_reports_known_state(capsys):
    # the fast suite runs every check; exit code mirrors the printed
    # summary, and the only FAIL line is the criterion-3 anchor check
    # documented in the README
    code, out, _ = run_cli(capsys, "verify", "--suite", "fast")
    lines = [l for l in out.strip().splitlines()]
    fails = [l for l in lines if l.startswith("FAIL")]
    assert "10/11 checks passed" in lines[-1]
    assert len(fails) == 1 and "criterion 3" in fails[0]
    assert code == 1


def test_verify_mutation_detected(monkeypatch):
    # a tampered constant must flip the partial-sum check to FAIL
    monkeypatch.setattr(verify_mod, "odd_harmonic_sum", lambda n: rat(1))
    result = verify_mod.check_partial_sums()
    assert not result.passed


def test_example6_check_takes_each_sum_once(monkeypatch):
    # criterion 7 checks the two sums lower-bound prints, from one call, and computes neither again
    calls = []
    real = numeric_oracle.numeric_sum

    def counting(scales, **kwargs):
        calls.append(len(scales))
        return real(scales, **kwargs)

    monkeypatch.setattr(numeric_oracle, "numeric_sum", counting)
    monkeypatch.setattr(verify_mod, "numeric_sum", counting, raising=False)
    assert verify_mod.check_example6_sums().passed
    assert calls == [3, 3]


def test_verify_check_results_structure():
    result = verify_mod.check_partial_sums()
    assert result.passed and result.criterion == "2"
