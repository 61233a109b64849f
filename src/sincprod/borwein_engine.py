"""Exact integrals, weighted integrals and deficits of sinc products.

For f(t) = prod_k sinc(beta_k pi t) the normalized transform
F(x) = fhat(pi x) is the box spline

    F(x) = C * sum_{S > x} w_S (S - x)^n,   C = 1 / (n! 2^n prod_k beta_k),

with n + 1 factors, S running over the signed sums sum_k eps_k beta_k
and w_S the signed count of sign choices giving S (the truncated-power
form of a B-spline).  This signed knot measure {S: w_S} is the one
representation of F here.  Scaled by L, the lcm of the scale
denominators, knots and weights are integers; merging the +-beta_k L
shifts of each factor into a dict coalesces equal sums, so sinc^n has
n + 1 knots, not 2^n.  A spec stores its scales as integer pairs and
works out L, its integer scales beta_k L and D = n! 2^n prod_k beta_k L
= L^(n+1) / C once each, from the pairs alone.  Here integral(F) = 2 and

    integral of f dt             = F(0)
    integral of W_m(t) f(t) dt   = 2 * (F(1) + F(3) + ... + F(2m+1))

with W_m(t) = 2 sum_{k<=m} cos((2k+1) pi t).  When some beta_k equals 1
all nonzero integer samples of f vanish, so the integer/odd-integer
sample sums collapse to 1 and either quantity equals

    1 - 2 * sum of F over the sample points beyond the covered set,

turning "is the integral exactly 1" into a support comparison plus a
few evaluations of F near the edge of its support.

The sample points of a request are evaluated by one layered dict DP
over the measure, scales sorted descending, dropping each entry s whose
largest completion s + (remaining scales) stays at or below x L for the
lowest point x.  Each surviving knot adds to every point it passes.
Near the support edge only O(n) entries survive, which makes the
57-factor deficit instant.  The exported spline takes its pieces right of 0
from suffix moments of the full measure, and mirrors them: F is even.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property

from . import InfeasibleError
from .rational import Rat, rat, rat_str, ratio_str, to_decimal
from .spline_engine import PiecewisePolynomial, SplineSizeError

NODE_BUDGET_DEFAULT = 4 * 10**6  # pruned knot entries per request (2-3 us each), or spline words (about 1 us)
MAX_SAMPLE_POINTS = 10**4  # sample points of F per request, all read off one pruned DP
MAX_FAMILY_SIZE = 100_000  # n of a family spec, refused before its n scales are built
_LAYER_CAP = 1 << 16  # DP entries held at once per chunk, which bounds memory


class ExactPathUnavailableError(InfeasibleError):
    """The exact value needs more sample points than MAX_SAMPLE_POINTS,
    or more pruned knot entries, or integer-form words, than its node
    budget; a breach of the entry budget carries visited, surviving and
    budget.

    The numeric oracle (sincprod.numeric_oracle) is the fallback for
    these inputs.
    """


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class SincProductSpec:
    """Scale factors beta_k > 0 of f(t) = prod_k sinc(beta_k pi t), read by rat, or given as their
    integer pairs (p, q) in lowest terms, q > 0: the pairs alone are stored and decide equality and
    hash.  The rest derives from them when first read: L, the integer scales, R, D and betas as Rat."""

    pairs: tuple

    def __init__(self, betas=(), pairs=()):
        pairs = tuple(pairs) or tuple((b.numerator, b.denominator) for b in map(rat, betas))
        if not pairs:
            raise ValueError("at least one scale factor is required")
        if any(p <= 0 for p, _ in pairs):
            raise ValueError("scale factors must be positive")
        for p, q in pairs:
            if q < 1 or math.gcd(p, q) != 1:
                raise ValueError("scale pair %r is not in lowest terms with q > 0" % ((p, q),))
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def odd_harmonic(cls, n: int) -> "SincProductSpec":
        if not 0 <= n <= MAX_FAMILY_SIZE:
            raise ValueError("n must be >= 0" if n < 0 else "n must be at most %d" % MAX_FAMILY_SIZE)
        return cls(pairs=tuple((1, 2 * k + 1) for k in range(n + 1)))

    @classmethod
    def sinc_power(cls, n: int) -> "SincProductSpec":
        if not 1 <= n <= MAX_FAMILY_SIZE:
            raise ValueError("n must be >= 1" if n < 1 else "n must be at most %d" % MAX_FAMILY_SIZE)
        return cls(pairs=((1, 1),) * n)

    @cached_property
    def betas(self):
        return tuple(Rat(p, q) for p, q in self.pairs)

    @cached_property
    def scaled_radius(self):
        """(R L, L): the support radius R over the lcm L of the scale denominators, merged by
        halves (1.0 s at 10^5 odd-harmonic scales; a running lcm and sum take 22 s)."""
        def merge(pairs):
            if len(pairs) <= 16:  # a short run is cheaper summed straight
                L = math.lcm(*(q for _, q in pairs))
                return sum(p * (L // q) for p, q in pairs), L
            (S1, L1), (S2, L2) = merge(pairs[: len(pairs) // 2]), merge(pairs[len(pairs) // 2 :])
            L = math.lcm(L1, L2)
            return S1 * (L // L1) + S2 * (L // L2), L
        return merge(self.pairs)

    @cached_property
    def integer_form(self):
        """(L, scales): the lcm L of the scale denominators, the integers beta_k L."""
        L = self.scaled_radius[1]
        return L, tuple(p * (L // q) for p, q in self.pairs)

    @cached_property
    def knot_denominator(self):
        """D = n! 2^n prod_k beta_k L (apart from integer_form: no support check needs it).
        C = L^(n+1) / D, and F(x) = L sum_{s > xL} w_s (q s - p)^n / (q^n D) for xL = p/q."""
        n = len(self.pairs) - 1
        return math.factorial(n) * 2**n * math.prod(self.integer_form[1])

    def support_radius(self):
        return Rat(*self.scaled_radius)

    def has_unit_scale(self) -> bool:
        return (1, 1) in self.pairs


@dataclass(frozen=True)
class CosineWeightSpec:
    """Weight W(t) = 2 sum_{k=0..m} cos((2k+1) pi t)."""

    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be >= 0")


@dataclass(frozen=True)
class EvalReport:
    """Outcome of one exact integral / sum / deficit computation.

    ``deficit`` is 1 - integral when a unit identity applies (some
    beta_k = 1) and None otherwise.  ``deficit_terms`` lists the
    (sample point, F value) pairs whose doubled sum makes up the
    deficit, so exact_value + 2 * sum(F values) = 1 in integral-flavored
    reports.
    """

    exact_value: object
    decimal: str
    support_radius: object
    deficit: object = None
    deficit_terms: tuple = ()
    certified_by_support: bool = False

    def to_dict(self, command: str, spec: SincProductSpec, weights: CosineWeightSpec | None = None) -> dict:
        exact, deficit = rat_str(self.exact_value), self.deficit  # a deficit report renders its value once
        try:  # the pairs are in lowest terms
            spec_strs = ["%d/%d" % pair for pair in spec.pairs]
        except ValueError:  # past the int/str digit limit
            spec_strs = [ratio_str(p, q, 1) for p, q in spec.pairs]
        return {
            "command": command,
            "spec": spec_strs,
            "weights": weights.m if weights is not None else None,
            "exact": exact,
            "decimal": self.decimal,
            "support_radius": rat_str(self.support_radius),
            "deficit": exact if deficit == self.exact_value else None if deficit is None else rat_str(deficit),
            "deficit_terms": [[int(x), rat_str(v)] for x, v in self.deficit_terms],
            "certified_by_support": self.certified_by_support,
        }


# ---------------------------------------------------------------------------
# the signed knot measure
# ---------------------------------------------------------------------------


def _spline_rows(spec: SincProductSpec, cell, neg):
    """(breakpoints, pieces) of the normalized transform F, ascending: breakpoints cell(s, L), and
    F(x) = sum_k c_k x^k on a piece, c_k = cell(numerator, D) with trailing zeros trimmed, formed
    right of 0 alone: F is even, so the mirror of a piece has the coefficients (-1)^k c_k (neg).

    Breakpoints are all signed sums of the scales, weight-0 knots included.  Walking the knots right to
    left, the piece left of knot s_j has c_k = binom(n, k) (-1)^k L^(k+1) m_(n-k) / D, with the integer
    suffix moments m_i = sum_{s >= s_j} w_s s^i.  The build is priced before any knot is merged, in 64-bit
    words as _sample_report prices the integer form: prod (m_i + 1) - 1 pieces (m_i the multiplicities of
    the distinct scales) x (n + 1) coefficients x the words of D, past NODE_BUDGET_DEFAULT a SplineSizeError."""
    n, count = len(spec.pairs) - 1, 1
    for mult in Counter(spec.pairs).values():
        count *= mult + 1
        words = (count - 1) * (n + 1)
        if words > NODE_BUDGET_DEFAULT:  # past the cap at one word of D, which is then never formed
            break
    else:
        words *= spec.knot_denominator.bit_length() // 64 + 1
    if words > NODE_BUDGET_DEFAULT:
        raise SplineSizeError("the spline takes at least %d words (pieces x coefficients x words of D), past the "
                              "node budget %d; use point_eval_pruned for single points" % (words, NODE_BUDGET_DEFAULT))
    (L, scales), D = spec.integer_form, spec.knot_denominator
    knots = {0: 1}
    for b in scales:
        merged = defaultdict(int)
        for s, w in knots.items():
            merged[s + b] += w
            merged[s - b] -= w
        knots = merged
    order = sorted(knots)
    factors = [(-1) ** k * math.comb(n, k) * L ** (k + 1) for k in range(n + 1)]
    moments = [0] * (n + 1)
    half = []  # the pieces from the support edge in to the middle one
    for s in reversed(order[(len(order) + 1) // 2 :]):
        term = knots[s]
        for i in range(n + 1):
            moments[i] += term
            term *= s
        cs = [f * moments[n - k] for k, f in enumerate(factors)]
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        half.append([cell(c, D) for c in cs])
    left = [[neg(c) if k & 1 else c for k, c in enumerate(p)] for p in half[: (len(order) - 1) // 2]]
    return [cell(s, L) for s in order], left + half[::-1]


def fourier_spline(spec: SincProductSpec) -> PiecewisePolynomial:
    """Normalized transform F of the sinc product, as an exact spline."""
    return PiecewisePolynomial(*_spline_rows(spec, Rat, Rat.__neg__))


def spline_csv(spec: SincProductSpec) -> list:
    """The lines of fourier_spline(spec).to_csv(), each cell rendered from its integers after one gcd."""
    knots, pieces = _spline_rows(spec, ratio_str, lambda c: c[1:] if c[0] == "-" else c if c == "0/1" else "-" + c)
    return ["%s,%s,%s\n" % (a, b, ",".join(p)) for a, b, p in zip(knots, knots[1:], pieces)]


def edge_polynomial(spec: SincProductSpec):
    """(C, n, valid_from) with F(x) = C (R - x)^n on (valid_from, R).

    R is the support radius; the edge region ends at R - 2 min(beta),
    the largest signed subset sum below R.
    """
    L, scales = spec.integer_form
    n = len(scales) - 1
    return Rat(L ** (n + 1), spec.knot_denominator), n, Rat(sum(scales) - 2 * min(scales), L)


@dataclass
class _PruneStats:
    visited: int = 0  # knot entries expanded
    surviving: int = 0  # nonzero knots past x after the last layer


def point_eval_pruned(spec: SincProductSpec, x):
    """Exact F(x) by the pruned knot-measure DP; F is even.

    A single-factor spec evaluated exactly at its edge, the one
    discontinuity of any F, takes the half-sum 1/(2 beta).
    """
    (value,), _ = _point_eval_pruned_stats(spec, [x])
    return value


def _point_eval_pruned_stats(spec, xs, node_budget=NODE_BUDGET_DEFAULT):
    """([F(x) for x in xs], stats) of one DP pruned at the first point; xs ascend in |x|."""
    xs = [abs(rat(x)) for x in xs]
    L, scales = spec.integer_form
    n = len(scales) - 1
    pqs = [(x.numerator * L, x.denominator) for x in xs]
    floor = pqs[0][0] // pqs[0][1]
    scales = sorted(scales, reverse=True)
    stats, acc = _PruneStats(), [0] * len(xs)
    chunks = [({0: 1}, 0, sum(scales))]  # (entries, layers merged, sum of the scales left)
    while chunks:
        layer, i, rest = chunks.pop()
        for b in scales[i:]:
            rest -= b
            i += 1
            merged = defaultdict(int)
            for s, w in layer.items():
                if not w:
                    continue
                stats.visited += 1
                if stats.visited > node_budget:
                    err = ExactPathUnavailableError(
                        "exact path unavailable: F(%s) needs more than %d pruned knot entries; use the "
                        "numeric oracle (sincprod.numeric_oracle) instead" % (xs[0], node_budget)
                    )
                    err.visited, err.surviving, err.budget = stats.visited, stats.surviving, node_budget
                    raise err
                # a child that cannot pass x L with every remaining scale added contributes 0
                if s + b + rest > floor:
                    merged[s + b] += w
                    if s - b + rest > floor:
                        merged[s - b] -= w
            layer = merged
            if len(layer) > _LAYER_CAP:  # F is linear in the weights: finish the halves one by one
                items = list(layer.items())
                chunks.append((dict(items[len(items) // 2 :]), i, rest))
                layer = dict(items[: len(items) // 2])
        for s, w in layer.items():
            if w:
                stats.surviving += 1
                for j, (p, q) in enumerate(pqs):  # a survivor passes the first point, and so a prefix
                    if q * s <= p:
                        break
                    acc[j] += w * (q * s - p) ** n
    # D multiplies n + 1 integer scales, seconds at n in the thousands: formed once the budget admits the request
    return [1 / (2 * x) if spec.pairs == ((x.numerator, q),) else Rat(L * a, q**n * spec.knot_denominator)
            for x, (_, q), a in zip(xs, pqs, acc)], stats


# ---------------------------------------------------------------------------
# integrals, weighted integrals, deficits
# ---------------------------------------------------------------------------


def _sample_report(spec, top, digits, node_budget, as_deficit=False) -> EvalReport:
    """Integral of W f for the weight W = 1 (top = 0) or W_m (top = 2m+1),
    or with as_deficit its deficit 1 - integral.

    With a unit scale the value is 1 - 2 sum F(q) over q = top+2,
    top+4, ... inside the support, so radius < top+2 leaves no point
    and certifies 1 outright.  Otherwise it is F(0), or
    2 (F(1) + F(3) + ... + F(top)), where the points past the radius, at
    which F vanishes, are skipped.  All points come from one pruned DP
    within node_budget entries, refused up front if its integer form, at an
    entry per 64-bit word, is past the budget or its default, whichever
    is larger (a smaller budget tightens the DP alone).
    """
    radius = spec.support_radius()
    edge = math.floor(radius)  # a point exactly at the radius may carry a jump
    unit = spec.has_unit_scale()
    points = _sample_points(top + 2, edge) if unit else _sample_points(top % 2, min(top, edge))
    words, cap = len(spec.pairs) * spec.scaled_radius[1].bit_length() // 64, max(node_budget, NODE_BUDGET_DEFAULT)
    if points and words > cap:
        raise ExactPathUnavailableError("exact path unavailable: the integer form takes %d words, past the node budget "
                                        "%d; use the numeric oracle (sincprod.numeric_oracle) instead" % (words, cap))
    values = _point_eval_pruned_stats(spec, points, node_budget)[0] if points else []
    if not unit:
        value = values[0] if top == 0 else 2 * sum(values, rat(0))
        return EvalReport(value, to_decimal(value, digits), radius)
    deficit = 2 * sum(values, rat(0))
    value = deficit if as_deficit else 1 - deficit
    return EvalReport(value, to_decimal(value, digits), radius, deficit, tuple(zip(points, values)), not points)


def _sample_points(start, stop):
    """start, start + 2, ... up to stop, refused past MAX_SAMPLE_POINTS."""
    if (stop - start) // 2 + 1 > MAX_SAMPLE_POINTS:
        raise ExactPathUnavailableError(
            "exact path unavailable: the value needs F at more than MAX_SAMPLE_POINTS = %d sample "
            "points; use the numeric oracle (sincprod.numeric_oracle) instead" % MAX_SAMPLE_POINTS
        )
    return range(start, stop + 1, 2)


def integral_exact(
    spec: SincProductSpec,
    digits: int = 12,
    node_budget: int = NODE_BUDGET_DEFAULT,
) -> EvalReport:
    """Exact integral of prod_k sinc(beta_k pi t) over the real line.

    With a unit scale present the value is 1 when the support radius is
    below 2 (certified with no evaluation at all), and otherwise
    1 - 2 sum F(2k) over even points inside the support.  Without a unit
    scale the value is F(0), which needs the whole knot measure above 0
    and may be infeasible for large specs.
    """
    return _sample_report(spec, 0, digits, node_budget)


def weighted_integral_exact(
    spec: SincProductSpec,
    weights: CosineWeightSpec,
    digits: int = 12,
    node_budget: int = NODE_BUDGET_DEFAULT,
) -> EvalReport:
    """Exact integral of W_m(t) * prod_k sinc(beta_k pi t), which equals
    2 (F(1) + F(3) + ... + F(2m+1)).

    With a unit scale the odd-sample sum is 1, so the value is
    1 - 2 sum F(q) over odd q > 2m+1 inside the support; radius < 2m+3
    certifies the value 1 outright.
    """
    return _sample_report(spec, 2 * weights.m + 1, digits, node_budget)


def deficit_report(
    spec: SincProductSpec,
    weights: CosineWeightSpec | None = None,
    digits: int = 10,
    node_budget: int = NODE_BUDGET_DEFAULT,
) -> EvalReport:
    """Report whose exact_value IS the deficit 1 - integral.

    Without weights this is the deficit of the plain integral (even
    sample points beyond 0); with weights, of the weighted integral
    (odd sample points beyond 2m+1).  Requires a unit scale, since the
    unit identity is what defines the deficit.
    """
    if not spec.has_unit_scale():
        raise ValueError("deficit is defined only for specs containing a unit scale")
    top = 0 if weights is None else 2 * weights.m + 1
    return _sample_report(spec, top, digits, node_budget, as_deficit=True)

