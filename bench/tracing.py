"""In-process spans and counters for the traced benchmark run.

``install`` replaces public functions of sincprod (and the three mpmath
entry points the oracle uses) with timing wrappers, in every namespace
their callers look them up in.  It is only ever called in the traced
worker process; untraced runs import sincprod untouched.

A span is (id, parent id, name, start, end).  Spans and counters stay in
memory; the worker writes the spans out when it ends.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []  # [span id, seconds covered by children]
        self._next_id = 0
        self.reset()

    def reset(self):
        """Start a new accumulation window (one pass); spans are kept."""
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    def wrap(self, name, fn, on_result=None, on_error=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((span_id, parent, name, start, end))
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(self) -> dict:
        t, c, n = self.total, self.calls, self.counts

        def self_of(prefix, exclude=()):
            return sum(v for k, v in self.self_time.items() if k.startswith(prefix) and k not in exclude)

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        visited = n["pruned_nodes_visited"]
        mp_calls = ("numeric_oracle.quad", "numeric_oracle.expint")
        return {
            "cli.self_s": self.self_time["cli.main"],
            "cli.requests": c["cli.main"],
            "rational.to_decimal_s": t["rational.to_decimal"],
            "rational.to_decimal_calls": c["rational.to_decimal"],
            "rational.rat_str_s": t["rational.rat_str"],
            "rational.rat_str_calls": c["rational.rat_str"],
            "spline_engine.convolve_s": t["spline_engine.convolve_with_box"],
            "spline_engine.convolve_calls": c["spline_engine.convolve_with_box"],
            "spline_engine.breakpoints_built": n["breakpoints_built"],
            "spline_engine.evaluate_s": t["spline_engine.evaluate"],
            "spline_engine.evaluate_calls": c["spline_engine.evaluate"],
            "spline_engine.to_csv_s": t["spline_engine.to_csv"],
            "borwein_engine.fourier_spline_s": t["borwein_engine.fourier_spline"],
            "borwein_engine.pieces_built": n["pieces_built"],
            "borwein_engine.pruned_s": t["borwein_engine.pruned"],
            "borwein_engine.pruned_calls": c["borwein_engine.pruned"],
            "borwein_engine.pruned_nodes_visited": visited,
            "borwein_engine.pruned_nodes_surviving": n["pruned_nodes_surviving"],
            "borwein_engine.pruned_useful_ratio": rate(n["pruned_nodes_surviving"], visited),
            "borwein_engine.pruned_nodes_per_s": rate(visited, t["borwein_engine.pruned"]),
            "borwein_engine.budget_fallbacks": n["budget_fallbacks"],
            "borwein_engine.certified_by_support": n["certified_by_support"],
            "borwein_engine.self_s": self_of("borwein_engine."),
            "exact_core.breaking_point_s": t["exact_core.breaking_point_report"],
            "exact_core.terms_scanned": n["terms_scanned"],
            "exact_core.terms_per_s": rate(n["terms_scanned"], t["exact_core.breaking_point_report"]),
            "exact_core.max_precision_bits": n["max_precision_bits"],
            "exact_core.odd_harmonic_sum_s": t["exact_core.odd_harmonic_sum"],
            "numeric_oracle.quad_s": t["numeric_oracle.quad"],
            "numeric_oracle.quad_calls": c["numeric_oracle.quad"],
            "numeric_oracle.expint_s": t["numeric_oracle.expint"],
            "numeric_oracle.expint_calls": c["numeric_oracle.expint"],
            "numeric_oracle.sum_s": t["numeric_oracle.numeric_sum"],
            "numeric_oracle.sum_terms": n["sum_terms"],
            "numeric_oracle.self_s": self_of("numeric_oracle.", exclude=mp_calls),
        }


# ---------------------------------------------------------------------------
# counters read from what results already expose
# ---------------------------------------------------------------------------


def _count_certified(tr, report):
    tr.counts["certified_by_support"] += bool(report.certified_by_support)


def _count_pieces(tr, spline):
    tr.counts["pieces_built"] += len(spline.pieces)


def _count_breakpoints(tr, spline):
    tr.counts["breakpoints_built"] += len(spline.breakpoints)


def _count_nodes(tr, result):
    _, stats = result
    tr.counts["pruned_nodes_visited"] += stats.visited
    tr.counts["pruned_nodes_surviving"] += stats.surviving


def _count_budget(tr, exc):
    if hasattr(exc, "visited"):  # NodeBudgetError carries the counts reached
        tr.counts["pruned_nodes_visited"] += exc.visited
        tr.counts["pruned_nodes_surviving"] += exc.surviving
        tr.counts["budget_fallbacks"] += 1


def _count_scan(tr, result):
    tr.counts["terms_scanned"] += result.terms_scanned
    tr.counts["max_precision_bits"] = max(tr.counts["max_precision_bits"], result.precision_bits or 0)


def _count_sum(tr, result):
    tr.counts["sum_terms"] += result.truncation_m


def install(tracer: Tracer):
    """Wrap sincprod's layer entry points for this process."""
    import mpmath

    import sincprod
    from sincprod import borwein_engine, cli, numeric_oracle, spline_engine
    from sincprod.spline_engine import PiecewisePolynomial

    def patch(owners, attr, name, on_result=None, on_error=None):
        for owner in owners:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result, on_error))

    patch([cli], "main", "cli.main")
    for attr in ("integral_exact", "weighted_integral_exact", "deficit_report"):
        patch([cli], attr, "borwein_engine." + attr, _count_certified)
    for attr in ("integral_exact", "weighted_integral_exact"):  # reached from deficit_report
        patch([borwein_engine], attr, "borwein_engine." + attr)
    patch([cli, borwein_engine], "fourier_spline", "borwein_engine.fourier_spline", _count_pieces)
    patch([borwein_engine], "_point_eval_pruned_stats", "borwein_engine.pruned", _count_nodes, _count_budget)
    patch([borwein_engine], "to_decimal", "rational.to_decimal")
    patch([cli, borwein_engine, spline_engine], "rat_str", "rational.rat_str")
    patch([PiecewisePolynomial], "convolve_with_box", "spline_engine.convolve_with_box", _count_breakpoints)
    patch([PiecewisePolynomial], "evaluate", "spline_engine.evaluate")
    patch([PiecewisePolynomial], "to_csv", "spline_engine.to_csv")
    patch([cli, sincprod], "breaking_point_report", "exact_core.breaking_point_report", _count_scan)
    patch([sincprod], "odd_harmonic_sum", "exact_core.odd_harmonic_sum")
    patch([cli, numeric_oracle], "numeric_sum", "numeric_oracle.numeric_sum", _count_sum)
    patch([cli], "lower_bound_check", "numeric_oracle.lower_bound_check")
    patch([numeric_oracle, sincprod], "numeric_integral", "numeric_oracle.numeric_integral")
    patch([sincprod], "verify_theorem1", "numeric_oracle.verify_theorem1")
    for attr in ("quad", "expint"):
        patch([mpmath], attr, "numeric_oracle." + attr)
