import ast
import contextlib
import io
import json
import math
import os
import random
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

from sincprod import borwein_engine, cli, exact_core, numeric_oracle
from sincprod.borwein_engine import MAX_SAMPLE_POINTS, ExactPathUnavailableError, SincProductSpec, fourier_spline
from sincprod.exact_core import NonTerminatingSearchError
from sincprod.numeric_oracle import ToleranceUnreachableError, numeric_sum
from sincprod.rational import rat, rat_str
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


def test_breakpoint_where_the_estimate_drifts(capsys):
    # the float estimate gives 12154671470588992 at t = 39/2, 13 short of n, so the
    # search gallops past one step and bisects; S_n = (psi(n + 3/2) + gamma + 2 ln 2) / 2
    # lies 4.8e-18 below t, and S_(n+1) 3.6e-17 above it
    code, out, _ = run_cli(capsys, "--format", "json", "breakpoint", "--threshold", "39/2")
    d = json.loads(out)
    n = 12154671470589005
    assert code == 0 and (d["breaking_point"], d["mode"]) == (n, "closed_form")
    with mp.workprec(256):
        s = [(mp.digamma(m + mp.mpf(3) / 2) + mp.euler + 2 * mp.ln2) / 2 for m in (n, n + 1)]
        assert s[0] < mp.mpf(39) / 2 <= s[1]


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
        # 1 + 1e-20 > 1, though the two are one float
        ("lower-bound --a0 1 --rest 1.00000000000000000001,1", "usage error: requires a0 >= a_k > 0\n"),
        ("example5 --ft-omegas 1/0", "usage error: cannot read scale '1/0': division by zero\n"),
        ("example5 --a 0.5,0.3 --b nan",
         "usage error: cannot read scale 'nan': invalid literal for int() with base 10: 'nan'\n"),
        ("example5 --a 0.5,abc --b 1",
         "usage error: cannot read scale 'abc': invalid literal for int() with base 10: 'abc'\n"),
        ("example5 --a 0.5,0 --b 1", "usage error: scales must be a nonempty list of positive finite reals\n"),
        ("integral --betas 1,abc",
         "usage error: cannot read rational 'abc': invalid literal for int() with base 10: 'abc'\n"),
        ("breakpoint --threshold 1/0", "usage error: cannot read rational '1/0': division by zero\n"),
        ("weighted-integral --betas 1 --weights 0", "usage error: --weights must be >= 1 for weighted-integral\n"),
        ("deficit --betas 1 --weights -1", "usage error: --weights must be >= 0\n"),
        # the spec is read before --weights is checked
        ("weighted-integral --betas 1,abc --weights 0",
         "usage error: cannot read rational 'abc': invalid literal for int() with base 10: 'abc'\n"),
        ("example5 --tol 1e-6", "usage error: example5 needs --a and --b (or --ft-omegas)\n"),
    ],
)
def test_scale_reader_usage_errors_are_pinned(capsys, line, err):
    assert run_cli(capsys, *line.split()) == (2, "", err)


def test_example5_transform_csv_prints_one_table_per_omega(capsys):
    assert run_cli(capsys, "--format", "csv", "example5", "--ft-omegas", "0,1/2") == (0, (
        "omega,numeric,closed_form,difference,within_tol\n0,4.9699263558324856,4.9699264004508497,-4.4618e-8,True\n"
        "omega,numeric,closed_form,difference,within_tol\n1/2,3.0144127508196633,3.0144127383886874,1.2431e-8,True\n"
    ), "")


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


@pytest.mark.parametrize("betas", ["1,1/3,1/5", "1,1,2", "2/3", "1/3,1/3,1/7,1", "1/2,1/3,1/4,1/5,1/6,1/7"])
def test_spline_dump_output_file_matches_stdout(capsys, tmp_path, betas):
    target = tmp_path / "spline.csv"
    assert run_cli(capsys, "spline-dump", "--betas", betas, "--output", str(target)) == (0, "", "")
    code, out, _ = run_cli(capsys, "spline-dump", "--betas", betas)
    assert code == 0 and target.read_bytes() == out.encode()
    assert out == fourier_spline(SincProductSpec(betas.split(","))).to_csv()


@pytest.mark.parametrize(
    "argv, message",
    [(["integral", "--betas=1/0"], "cannot read rational '1/0': division by zero"),
     (["integral", "--betas=1,1/-3"], "scale factors must be positive"),
     (["integral", "--betas=-0/5"], "scale factors must be positive"),
     (["breakpoint", "--threshold=1/0"], "cannot read rational '1/0': division by zero"),
     (["breakpoint", "--threshold=1/-3"], "threshold must be positive"),
     (["breakpoint", "--threshold=-0/5"], "threshold must be positive")],
)
def test_p_over_q_errors_keep_their_message(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", "usage error: %s\n" % message)


def test_p_over_q_with_spaces_is_read(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "integral", "--betas", " 2/4 ,1")
    assert code == 0 and json.loads(out)["spec"] == ["1/2", "1/1"]


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


ARGV_GRAMMAR = [
    # a long flag exactly or as a unique prefix, its value apart or after "=", the last repeat winning
    ("breakpoint --thr 3", 0), ("breakpoint --threshold=3", 0), ("--form json breakpoint --threshold 3", 0),
    ("--format=json breakpoint --threshold 3", 0), ("integral --betas 1 --d 5", 0),
    ("integral --betas 1 --digits 5 --digits 7", 0), ("sum --scales 1,1,1 --alt", 0),
    ("example5 --a 0.5 --b 1 --ft 0", 0), ("example5 --ft-omegas=-1/2,0", 0),
    # the first -h prints help, though an unrecognized token comes before it
    ("-h", 0), ("--format json -h", 0), ("integral --he", 0), ("integral --bogus -h", 0),
    # --format before an exact command word, and nothing unrecognized
    ("", 2), ("--format json", 2), ("integ --betas 1", 2), ("--format xml integral --betas 1", 2),
    ("-x integral --betas 1", 2), ("integral --betas 1 --format json", 2), ("integral --betas 1 extra", 2),
    ("integral --betas 1 --", 2), ("verify -- fast", 2), ("integral --betas", 2), ("integral --betas 1 -n 3", 2),
    # a conversion error stops the reading before a later -h
    ("integral --family odd -h", 2),
    # a value apart from its flag starts with "-" only as "-" or a negative number
    ("example5 --ft-omegas -1/2,0", 2), ("breakpoint --threshold -1/2", 2), ("breakpoint --threshold -", 2),
    ("sum --scales 1,1,1 --abs-tol -1e-9", 2),
    # switches take no value, and a prefix of two flags is ambiguous
    ("sum --scales 1,1,1 --alternating=1", 2), ("sum --scales 1,1,1 --a", 2),
    ("integral --betas 1 --node-budget 1e3", 2), ("breakpoint --threshold --threshold 3", 2),
]


@pytest.mark.parametrize("line, exit_code", ARGV_GRAMMAR, ids=[line or "(empty)" for line, _ in ARGV_GRAMMAR])
def test_argv_grammar_exit_codes(capsys, line, exit_code):
    code, out, err = run_cli(capsys, *shlex.split(line))
    assert code == exit_code, err
    assert "Traceback" not in err
    if exit_code == 2:
        assert out == "" and err


@pytest.mark.parametrize("line", [
    "--format json weighted-integral --betas 1,1/3 --weights 2 --node-budget 300", "--form=csv breakpoint --thr 3",
    "sum --scales 1,1,1 --alt --abs-tol 1e-9", "-x integral --betas 1 extra -- --=x -h",
])
def test_each_token_is_classified_once(capsys, monkeypatch, line):
    # the top-level table classifies the tokens to the command word, the command's table the rest
    seen, option = [], cli._option
    monkeypatch.setattr(cli, "_option", lambda token, flags: seen.append(token) or option(token, flags))
    argv = shlex.split(line)
    cli.main(argv)
    assert seen == argv[:argv.index("--") if "--" in argv else len(argv)]


@pytest.mark.parametrize("line", ["-h --=x", "integral -h --=x", "--format json --=json -h", "nonsense --=x"])
def test_top_level_ambiguous_prefix_is_reported_before_anything(capsys, line):
    # "--" begins both --format and --help, so "--=..." is ambiguous at the top level wherever it stands
    message = "usage error: ambiguous option: -- could match --format, --help\n"
    assert run_cli(capsys, *shlex.split(line)) == (2, "", message)


EVAL_FLAGS = ["--betas", "--family", "--n", "--node-budget", "--digits"]
COMMAND_FLAGS = {
    None: ["--format"],
    "breakpoint": ["--family", "--threshold"],
    "integral": EVAL_FLAGS,
    "weighted-integral": EVAL_FLAGS + ["--weights"],
    "deficit": EVAL_FLAGS + ["--weights"],
    "sum": ["--scales", "--alternating", "--one-sided", "--abs-tol"],
    "lower-bound": ["--a0", "--rest", "--abs-tol"],
    "example5": ["--a", "--b", "--ft-omegas", "--tol"],
    "spline-dump": ["--betas", "--family", "--n", "--output"],
    "verify": ["--suite"],
}


@pytest.mark.parametrize("command", COMMAND_FLAGS, ids=lambda c: c or "(top)")
def test_help_lists_every_flag_with_its_help(capsys, command):
    words = [command] * (command is not None)
    code, out, err = run_cli(capsys, *words, "-h")
    assert (code, err) == (0, "")
    # argparse reads "-hh" as -h twice, gives a switch no value, and reads no option past "--"
    assert run_cli(capsys, *words, "-hh") == (0, out, "")
    assert run_cli(capsys, *words, "--help=x")[:2] == (2, "")
    assert run_cli(capsys, *words, "-h", "--", "--=x") == (0, out, "")
    flags = cli.COMMANDS[command][1] if command else cli.FORMAT_FLAGS
    assert list(flags) == COMMAND_FLAGS[command]
    lines, required = out.splitlines(), []
    for flag, (_, _, help) in [*flags.items(), ("--help", (None, None, "show this help"))]:
        line = next(line for line in lines if flag in line.replace(",", " ").split()[:2])
        assert help and help in line
        required += [flag] * ("(required)" in line)
    if command is None:
        assert all(any(line.split() and line.split()[0] == name and help in line for line in lines)
                   for name, (help, *_) in cli.COMMANDS.items())
    elif required:
        # each flag the help marks required is named when it is left out
        code, out, err = run_cli(capsys, command)
        assert (code, out) == (2, "") and all(flag in err for flag in required)


@pytest.mark.parametrize("command", ["integral", "deficit", "spline-dump"])
@pytest.mark.parametrize("spec", [["--family", "odd-harmonic"], ["--n", "5"], ["--family", "sinc-power", "--n", "5"]])
def test_betas_with_family_or_n_exits_two(capsys, command, spec):
    code, out, err = run_cli(capsys, command, "--betas", "1,1", *spec)
    assert (code, out) == (2, "")
    assert "give either --betas or --family with --n, not both" in err


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


def _sinc_power_integral(n):
    # the classical closed form of the integral of sinc^n(pi t)
    return Fraction(
        sum((-1) ** k * math.comb(n, k) * (n - 2 * k) ** (n - 1) for k in range((n + 1) // 2)),
        2 ** (n - 1) * math.factorial(n - 1),
    )


def test_former_budget_fallbacks_are_fast(capsys):
    # sinc powers coalesce to n + 1 knots, so a small node budget suffices
    # at every sample point and no request falls back or stalls
    t0 = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "--format", "json", "integral", "--family", "sinc-power", "--n", "30", "--node-budget", "20000"
    )
    assert code == 0 and time.perf_counter() - t0 < 1
    expected = _sinc_power_integral(30)
    d = json.loads(out)
    assert d["exact"] == "%d/%d" % (expected.numerator, expected.denominator)
    assert d["decimal"] == "0.251048514991"
    assert [x for x, _ in d["deficit_terms"]] == list(range(2, 31, 2))
    t0 = time.perf_counter()
    code, _, _ = run_cli(capsys, "deficit", "--family", "sinc-power", "--n", "40")
    assert code == 0 and time.perf_counter() - t0 < 1
    # 200 sample points read off one pruned DP, not 200 DPs
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "--format", "json", "integral", "--family", "sinc-power", "--n", "400")
    assert code == 0 and time.perf_counter() - t0 < 2
    expected = _sinc_power_integral(400)
    assert json.loads(out)["exact"] == "%d/%d" % (expected.numerator, expected.denominator)


def test_one_pruned_dp_per_request(capsys, monkeypatch):
    calls = []
    real = borwein_engine._point_eval_pruned_stats

    def counting(spec, xs, *args):
        calls.append(xs)
        return real(spec, xs, *args)

    monkeypatch.setattr(borwein_engine, "_point_eval_pruned_stats", counting)
    code, _, _ = run_cli(capsys, "integral", "--family", "sinc-power", "--n", "30")
    assert code == 0 and len(calls) == 1  # one call for x = 2, 4, ..., 30, not one per point
    assert list(calls[0]) == list(range(2, 31, 2))


def test_spline_dump_size_guard_exits_three(capsys):
    code, out, _ = run_cli(
        capsys, "spline-dump", "--betas", ",".join("1/%d" % (k + 2) for k in range(25))
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "SplineSizeError"


@pytest.mark.parametrize("family, n", [("sinc-power", "1000"), ("odd-harmonic", "19")])
def test_spline_dump_priced_past_the_budget_exits_three_at_once(capsys, family, n):
    # sinc^1000 has 1,001 knots, but 1,000 pieces x 1,000 coefficients x 149 words of D;
    # odd_harmonic(19) has 2^20 knots: either build runs for well over 40 s
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "spline-dump", "--family", family, "--n", n)
    assert time.perf_counter() - t0 < 1
    assert code == 3 and json.loads(out)["error"]["type"] == "SplineSizeError"


@pytest.mark.parametrize("command", ["integral", "spline-dump"])
def test_huge_family_size_exits_two_at_once(capsys, command):
    # the family refuses n before it builds its n scales: 10^9 of them would take 8 GB
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--family", "sinc-power", "--n", "1000000000")
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == "" and "n must be at most 100000" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["integral", "--betas", "1e1000000"], "cannot read rational '1e1000000': an exponent past 999999"),
        (["sum", "--scales", "1e-1000000,1,1"], "cannot read scale '1e-1000000': an exponent past 999999"),
        (["breakpoint", "--threshold", "1e99999999"], "cannot read rational '1e99999999': an exponent past 999999"),
    ],
)
def test_decimal_exponent_past_the_cap_exits_two_at_once(capsys, argv, message):
    # Fraction would build 10^|e| first: 1e99999999 took minutes
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == "" and err == "usage error: %s\n" % message


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


@pytest.mark.parametrize("tiny", ["1e-40", "1e-60", "1e-400"])
def test_sum_with_a_tiny_scale_exits_three(capsys, tiny):
    # the frequencies 2 + a and 2 - a sit 2a apart, and the coefficients carry 1 / a:
    # without guard bits for that they collapse, and the sum reads 3.0961766135605095
    # with tail_bound 0.0 against about pi (1 - a / 4); kept apart they need a head of about 44 / a terms.
    # 1e-400 is positive, though float() reads it as 0
    code, out, _ = run_cli(capsys, "--format", "json", "sum", "--scales", tiny + ",1,1")
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
    # n would have about 17,300 bits: no precision up to the cap tells S_n from S_(n+1); a t past
    # MAX_PRECISION_BITS is refused by t alone, before mpmath reads 1e999999's 3.3-million-bit numerator
    # or the message prints 1e4400's 4,400-digit bit count
    for threshold in ("6000", "1e4400", "1e999999"):
        t0 = time.perf_counter()
        code, out, _ = run_cli(capsys, "--format", "json", "breakpoint", "--threshold", threshold)
        assert time.perf_counter() - t0 < 1.0, threshold
        assert code == 3 and out.count("\n") == 1, threshold
        assert json.loads(out)["error"]["type"] == "NonTerminatingSearchError"
    assert json.loads(out)["error"]["message"] == (
        "the breaking point has more than 47271 bits; telling S_n from S_(n+1) needs more than "
        "MAX_PRECISION_BITS = 16384")


def test_breakpoint_straddle_past_max_exact_terms_exits_three(capsys, monkeypatch):
    # t = S_301 exactly: every enclosure of S_301 straddles it, so the search
    # falls back to the exact sum, which these caps refuse past 300 terms
    monkeypatch.setattr(exact_core, "EXACT_TERM_CUTOFF", 300)
    monkeypatch.setattr(exact_core, "MAX_EXACT_TERMS", 300)
    monkeypatch.setattr(exact_core, "MAX_PRECISION_BITS", 256)
    with pytest.raises(NonTerminatingSearchError, match="MAX_EXACT_TERMS = 300 terms"):
        exact_core.breaking_point(exact_core.HarmonicFamily.odd_harmonic(), exact_core.odd_harmonic_sum(301))
    code, out, err = run_cli(capsys, "breakpoint", "--threshold", rat_str(exact_core.odd_harmonic_sum(301)))
    assert code == 3 and err == ""
    assert json.loads(out) == {"error": {
        "type": "NonTerminatingSearchError",
        "message": "S_n straddles the threshold at 256 bits for an n of 9 bits; the exact S_n is summed "
                   "only up to MAX_EXACT_TERMS = 300 terms",
    }}


def test_example5_past_its_error_bound_exits_three(capsys, monkeypatch):
    # a series head whose bound is 1 leaves the bound plus the truncation
    # bound past the tolerance, which example5 refuses instead of printing
    series_head = numeric_oracle._series_head
    monkeypatch.setattr(numeric_oracle, "_series_head", lambda *args: (series_head(*args)[0], mp.mpf(1)))
    with pytest.raises(ToleranceUnreachableError, match="quadrature error bound 1.0 plus truncation bound"):
        numeric_oracle.example5_integral([0.5], 1)
    code, out, err = run_cli(capsys, "example5", "--a", "0.5", "--b", "1")
    assert code == 3 and err == ""
    assert json.loads(out) == {"error": {
        "type": "ToleranceUnreachableError",
        "message": "quadrature error bound 1.0 plus truncation bound 1.4337e-8 exceeds 5e-07",
    }}


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
# a head of about 1e9 half-periods, one of 60, and a transform sample far outside the band
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
    if command in ("weighted-integral", "deficit"):
        argv += ["--weights", str(draw(st.sampled_from([-1, 0, 1, 2, 7, 10**9])))]
    if command != "spline-dump":
        argv += draw(st.sampled_from([[], ["--node-budget", "1"]]))
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
@example(argv=["spline-dump", "--family", "sinc-power", "--n", "1000"])
@example(argv=["integral", "--family", "odd-harmonic", "--n", "1000000000"])
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


FUZZ_SCALES = ["1", "1/2", "1/3", "2/3", "3/4", "2", "5/2", "0.3", "0.5", "pi/4", "5pi/4", "pi"]
FUZZ_RATIONALS = ["1", "1/3", "1/5", "2/7", "3/2", "5/3", "1/9", "7/3"]
FUZZ_JUNK = ["", "abc", "-1", "0", "1/0", "2/0", "pi/0", "nan", "inf", "1e400", "1e-40", "2/3/4", "--", "-h", "=",
             "1_0"]
# junk for a flag's value, drawn by the reader of that flag, so that each reader's
# errors (a rational's division by zero among them) come up in most seeded runs
FUZZ_VALUE_JUNK = {
    "rational": ["1/0", "2/0", "0/0", "1,1/0", "1/-3", "-0/5", "abc", "1e400", "2/3/4", "1_0", "nan", "inf", ""],
    "scale": ["pi/0", "1/0", "1,0/0", "nan", "inf", "1e400", "1e-40", "0", "-1", "abc", "2/3/4", "pi/", ""],
    "int": ["0", "-1", "abc", "1e3", "1_0", "", "+1", "99999999999999999999", "\u0661"],
    "float": ["0", "-1", "nan", "inf", "-inf", "1e400", "1e-400", "abc", "1/2", ""],
}
FUZZ_READERS = {
    **dict.fromkeys(["--threshold", "--betas"], "rational"),
    **dict.fromkeys(["--scales", "--a0", "--rest", "--a", "--b", "--ft-omegas"], "scale"),
    **dict.fromkeys(["--n", "--weights", "--digits", "--node-budget"], "int"),
    **dict.fromkeys(["--abs-tol", "--tol"], "float"),
}


# the wider pools of tests/fuzz_long.py alone, whose requests may run for seconds: tiny scales,
# and family sizes to 1,000 in one draw of ten
FUZZ_WIDE_SCALES = ["1e-20", "1e-400", "pi/1e300"]
FUZZ_WIDE_SIZE = 1000


def _fuzz_argv(rng, spline_file, wide=False):
    """One argv: a well-formed request for any command but a full verify, mutated half the time;
    wide draws from the wider pools too."""
    wide_scales = FUZZ_WIDE_SCALES * wide

    def scales(k, pool=FUZZ_SCALES + wide_scales):
        return ",".join(rng.choice(pool) for _ in range(k))

    def size(low, top):
        return rng.randint(low, FUZZ_WIDE_SIZE if wide and rng.random() < 0.1 else top)

    command = rng.choice(["breakpoint", "integral", "weighted-integral", "deficit", "sum", "lower-bound",
                          "example5", "spline-dump", "verify"])
    argv = rng.choice([[], ["--format", "json"], ["--format", "csv"], ["--format=plain"]]) + [command]
    if command == "breakpoint":
        argv += ["--threshold", rng.choice(["%d/%d" % (rng.randint(1, 80), rng.randint(1, 10)), "10000", "1/2"])]
    elif command == "sum":
        argv += ["--scales", scales(rng.randint(2, 5))]
        argv += rng.sample(["--alternating", "--one-sided", "--abs-tol=1e-6"], rng.randint(0, 2))
    elif command == "lower-bound":
        argv += ["--a0", rng.choice(["5pi/4", "2", "3/2"]),
                 "--rest", scales(rng.randint(1, 3), FUZZ_SCALES[:7] + wide_scales)]
    elif command == "example5":
        argv += rng.choice([["--ft-omegas", scales(rng.randint(1, 3), ["0", "1/2", "1", "3", "pi"])],
                            ["--a", scales(rng.randint(1, 3), ["0.5", "0.3", "pi/8", "1/4"]), "--b", scales(1)]])
    elif command == "verify":  # left unmutated: a suite takes seconds
        return argv + rng.choice([["-h"], ["--suite", "quick"], ["--suite"], ["--suite=ful"]])
    else:  # a spline-dump of odd-harmonic n = 13 took 0.4 s and of sinc-power 200 0.25 s on a 2-CPU host
        odd, power = (8, 40) if command == "spline-dump" else (16, 200)
        argv += rng.choice([["--betas", scales(rng.randint(1, 6), FUZZ_RATIONALS)],
                            ["--family", "odd-harmonic", "--n", str(size(0, odd))],
                            ["--family", "sinc-power", "--n", str(size(1, power))]])
        if command in ("weighted-integral", "deficit"):
            argv += ["--weights", str(rng.randint(0, 4))]
        if command == "spline-dump":
            argv += rng.choice([[], ["--output", spline_file], ["--output", spline_file + "/missing/x.csv"]])
        else:
            argv += rng.choice([[], ["--digits", str(rng.randint(1, 60))], ["--node-budget", str(rng.randint(1, 500))]])
    if rng.random() < 0.5:
        i = rng.randrange(len(argv) + 1)
        mutation = rng.randrange(6)
        if mutation == 0 and i < len(argv):
            del argv[i]
        elif mutation == 1:
            argv.insert(i, rng.choice(FUZZ_JUNK + ["--bogus", "-x", "--n", "--help=x", "--form"]))
        elif mutation == 2:  # a flag's value, where there is one, by junk its reader may meet
            values = [j for j in range(1, len(argv)) if argv[j - 1][:2] == "--" and argv[j][:1] != "-"]
            j = rng.choice(values or [0])
            reader = FUZZ_READERS.get(argv[j - 1]) if j else None
            argv[j] = rng.choice(FUZZ_VALUE_JUNK[reader] if reader else FUZZ_JUNK)
        elif mutation == 3 and i < len(argv) and argv[i][:2] == "--" and len(argv[i]) > 3:
            argv[i] = argv[i][:rng.randint(3, len(argv[i]))]  # a prefix of the flag, unique or not
        elif mutation == 4 and i + 1 < len(argv) and argv[i][:2] == "--":
            argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]
        else:
            argv = argv[2:] + argv[:2]  # the leading tokens moved to the end
    return argv


def test_seeded_cli_fuzz_exits_cleanly(monkeypatch, tmp_path):
    # 500 seeded argv, well formed or mutated, through the dispatch that loads each command's engine
    # on first use: every one ends in success, one usage error line or one JSON refusal (about 0.5 s)
    monkeypatch.chdir(tmp_path)  # a mutated --output names a file in the working directory
    rng = random.Random(38)
    for _ in range(500):
        argv = _fuzz_argv(rng, str(tmp_path / "spline.csv"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3) and "Traceback" not in out + err, (argv, code, err)
        if code == 2:
            assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1, (argv, err)
        if code == 3:
            assert list(json.loads(out)) == ["error"] and out.count("\n") == 1, (argv, out)


# the names bench/tracing.py wraps on cli, by owning module
TRACED = {"main": "cli", "integral_exact": "borwein_engine", "weighted_integral_exact": "borwein_engine",
          "deficit_report": "borwein_engine", "fourier_spline": "borwein_engine", "rat_str": "rational",
          "breaking_point_report": "exact_core", "numeric_sum": "numeric_oracle",
          "lower_bound_check": "numeric_oracle"}


def test_traced_names_resolve_on_a_fresh_cli_as_their_owners_objects():
    # cli loads no engine at import, so each name resolves on first access, by getattr or from-import
    code = (
        "from importlib import import_module\n"
        "import sincprod.cli as cli\n"
        "for name, owner in %r:\n"
        "    value, namespace = getattr(cli, name), {}\n"
        "    assert value is getattr(import_module('sincprod.' + owner), name), name\n"
        "    exec('from sincprod.cli import ' + name, namespace)\n"
        "    assert namespace[name] is value, name\n" % sorted(TRACED.items())
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name, argv", [
    ("breaking_point_report", ["breakpoint", "--threshold", "3"]),
    ("numeric_sum", ["sum", "--scales", "5pi/4,1,1"]),
])
def test_wrapper_set_on_cli_is_what_the_command_calls(capsys, monkeypatch, name, argv):
    calls, real = [], getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    assert run_cli(capsys, *argv)[0] == 0 and len(calls) == 1


def test_unknown_cli_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name


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


def test_readme_quick_start_values():
    # each expression the library quick start shows has the repr its comment names, or is the number it names
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Library quick start\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines, namespace, shown = block.splitlines(), {}, []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.lineno - 1].partition("# ")[2]
        assert value == int(comment.split()[1]) if comment.startswith("exactly ") else repr(value) == comment
        shown.append(comment)
    assert shown == ["exactly 1", "'0.999999999985'", "3090", "'1.484870809e-138'"]


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
