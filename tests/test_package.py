import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import sincprod

# the package root's exports, by owning module
EXPORTS = {
    "borwein_engine": [
        "CosineWeightSpec", "EvalReport", "ExactPathUnavailableError", "SincProductSpec", "deficit_report",
        "edge_polynomial", "fourier_spline", "integral_exact", "point_eval_pruned", "weighted_integral_exact",
    ],
    "exact_core": [
        "BreakingPointResult", "HarmonicFamily", "Interval", "NonTerminatingSearchError", "breaking_point",
        "breaking_point_report", "interval_odd_harmonic_sum", "odd_harmonic_sum",
    ],
    "numeric_oracle": [
        "RealScales", "SumResult", "ToleranceUnreachableError", "bandlimited_kernel", "example5_integral",
        "lower_bound_check", "numeric_integral", "numeric_sum", "verify_ft_example5", "verify_theorem1",
    ],
    "rational": ["Rat", "rat", "rat_str", "to_decimal"],
    "spline_engine": ["PiecewisePolynomial", "SplineSizeError", "box"],
}
OWNER = {name: module for module, names in EXPORTS.items() for name in names}


def test_bare_import_loads_no_engine():
    code = (
        "import sys, types, sincprod\n"
        "loaded = sorted(m for m in sys.modules if m == 'mpmath' or m.startswith('sincprod.'))\n"
        "assert not loaded, loaded\n"
        "for name in %r:\n"
        "    assert isinstance(getattr(sincprod, name), types.ModuleType), name\n" % sorted(EXPORTS)
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sincprod.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_argparse():
    # argparse and the gettext it imports cost about 2.9 ms per CLI process
    # (-X importtime), and building its subparser tree about 2.1 ms more
    code = (
        "import sys, sincprod.cli\n"
        "loaded = {'argparse', 'gettext'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sincprod.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _modules_loaded(code):
    """The sincprod submodules, and mpmath, that a fresh process has loaded after running code."""
    code += "\nprint(*sorted(m for m in sys.modules if m == 'mpmath' or m.startswith('sincprod.')), file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sincprod.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@pytest.mark.parametrize("argv, modules", [
    (None, set()),  # import sincprod.cli alone
    ("integral --betas 1,1/3", {"sincprod.borwein_engine", "sincprod.spline_engine"}),
    ("deficit --family odd-harmonic --n 8", {"sincprod.borwein_engine", "sincprod.spline_engine"}),
    ("spline-dump --family sinc-power --n 4", {"sincprod.borwein_engine", "sincprod.spline_engine"}),
    ("breakpoint --threshold 3", {"sincprod.exact_core"}),  # every probe sums S_n exactly
    ("breakpoint --threshold 5", {"sincprod.exact_core", "mpmath"}),
    ("sum --scales 5pi/4,1,1", {"sincprod.numeric_oracle", "mpmath"}),
    ("weighted-integral --betas 1,1/3 --weights 1", {"sincprod.borwein_engine", "sincprod.spline_engine"}),
    ("lower-bound --a0 5pi/4 --rest 1,1", {"sincprod.numeric_oracle", "mpmath"}),
    ("example5 --a 0.5,0.3 --b 1", {"sincprod.numeric_oracle", "mpmath"}),
])
def test_cli_loads_only_the_engine_a_command_runs(argv, modules):
    # a CLI process compiles each module it loads: the modules an integral does not
    # run took 0.042 s of its 0.109 s on a 2-CPU host
    code = "import sys, sincprod.cli" + ("\nassert sincprod.cli.main(%r) == 0" % argv.split() if argv else "")
    assert _modules_loaded(code) == {"sincprod.cli", "sincprod.rational", *modules}


def test_oracle_import_loads_no_exact_engine():
    # the oracle shares no code with the exact engine it cross-checks
    code = (
        "import sys, sincprod.numeric_oracle\n"
        "loaded = {'sincprod.borwein_engine', 'sincprod.spline_engine'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sincprod.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_all_names_each_export_once_in_sorted_order():
    assert sincprod.__all__ == sorted([*OWNER, "InfeasibleError"])
    assert set(sincprod.__all__) <= set(dir(sincprod))


@pytest.mark.parametrize("name", sorted(OWNER))
def test_export_is_the_owning_module_object(name):
    assert getattr(sincprod, name) is getattr(import_module("sincprod." + OWNER[name]), name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from sincprod import *", namespace)
    assert {name: namespace[name] for name in sincprod.__all__} == {
        name: getattr(sincprod, name) for name in sincprod.__all__
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_export'"):
        sincprod.no_such_export


@pytest.mark.parametrize(
    "name", ["ExactPathUnavailableError", "NonTerminatingSearchError", "SplineSizeError", "ToleranceUnreachableError"]
)
def test_every_refusal_is_an_infeasible_error(name):
    assert issubclass(getattr(sincprod, name), sincprod.InfeasibleError)


def test_no_module_imports_private_names_of_another():
    # a _-prefixed name belongs to its module: a name another module needs is
    # public, or the two are one module
    imported = []
    for path in sorted(Path(sincprod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "sincprod"):
                imported += ["%s: %s" % (path.name, alias.name) for alias in node.names if alias.name.startswith("_")]
    assert not imported, imported
