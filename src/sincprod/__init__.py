"""Exact and high-precision computation of sinc-product integrals,
their integer-sample sum counterparts, breaking points, and deficits.

The root loads no engine: each exported name imports its module on
first access (PEP 562), so ``import sincprod`` does not load mpmath.
"""

from importlib import import_module

__version__ = "0.1.0"


class InfeasibleError(Exception):
    """A cost budget refuses the request: the exact path is infeasible or
    an oracle call is past its work cap.  The CLI exits 3 on every
    subclass and prints it as a JSON error."""


# borwein_engine's, defined here so that the CLI's flag help reads them without loading the engine
NODE_BUDGET_DEFAULT = 4 * 10**6  # pruned knot entries per request (2-3 us each), or spline words (about 1 us)
MAX_FAMILY_SIZE = 100_000  # n of a family spec, refused before its n scales are built

_EXPORTS = {
    "borwein_engine": "CosineWeightSpec EvalReport ExactPathUnavailableError SincProductSpec deficit_report "
                      "edge_polynomial fourier_spline integral_exact point_eval_pruned weighted_integral_exact",
    "exact_core": "BreakingPointResult HarmonicFamily Interval NonTerminatingSearchError breaking_point "
                  "breaking_point_report interval_odd_harmonic_sum odd_harmonic_sum",
    "numeric_oracle": "RealScales SumResult ToleranceUnreachableError bandlimited_kernel example5_integral "
                      "lower_bound_check numeric_integral numeric_sum verify_ft_example5 verify_theorem1",
    "rational": "Rat rat rat_str to_decimal",
    "spline_engine": "PiecewisePolynomial SplineSizeError box",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_OWNER, "InfeasibleError"])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module("." + name, __name__)  # the import binds the submodule here
    if name not in _OWNER:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(import_module("." + _OWNER[name], __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_OWNER})
