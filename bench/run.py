"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload exact-deficits --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; sincprod is imported from its
src/ directory.  The workload runs in a fresh worker process (one
client, requests back to back); this process builds the seeded inputs,
times set-up, and checks every output against the independent
references in refs.py.

--trace 0 reports the end-to-end metrics:
  pass_ref_s     one full pass over the request list: the sum of the
                 requests' mean latencies, scaled to the reference speed
  req_p50_ref_s  median over the requests of their scaled mean latency
  setup_s        median time of a fresh interpreter running `import sincprod`
  peak_rss_mib   peak resident set of the worker process

The worker makes as many whole passes as fit in --seconds at the
workload's nominal pass length (at least three), so the pass count, like
the request count, is the same in every run.  The first pass warms
caches and is not timed.  Before each request the worker times fixed
probes, which gauge how fast the host runs the process just then; a
latency "at the reference speed" is scaled by PROBE_REF_S over the
run's mean probe time (see README.md).  The worker is stopped after
three times its nominal time plus a minute.

--trace 1 spends half the time in an untraced worker and half in a
traced one, and reports the per-layer metrics of the traced passes plus
trace.overhead_s, the traced minus the untraced pass_ref_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Every failed request counts in
failed; correct is false when an output is wrong or when a request
other than the workload's known failure fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 6  # before the worker, and as many after it
TIMEOUT_FACTOR = 3
TIMEOUT_MARGIN_S = 60
PRECISION_ENV = "SINCPROD_PRECISION_BITS"
MAX_PER_LAYER = ("exact_core.max_precision_bits",)
OVERHEAD = "trace.overhead_s"
PROBE_REF_S = 1e-3
MEDIAN_PROBES = ["fraction"]  # the median request is a short, interpreter-bound call on every workload


def worker_env() -> dict:
    """The workload process's environment: sincprod from this checkout,
    and no precision override, since that changes the program's results."""
    env = {k: v for k, v in os.environ.items() if k != PRECISION_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env, count) -> list:
    """Fresh interpreter until `import sincprod` returns; one untimed
    warm-up first, so the bytecode cache is as users find it."""
    samples = []
    for i in range(count + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import sincprod"], env=env, cwd=ROOT, check=True,
                       timeout=60)
        if i:
            samples.append(perf_counter() - t0)
    return samples


def run_worker(workload, reqs, passes, trace, env, trace_file=None) -> dict:
    timeout = passes * workloads.NOMINAL_PASS_S[workload] * TIMEOUT_FACTOR + TIMEOUT_MARGIN_S
    job = {"src": str(SRC), "requests": [r.payload for r in reqs], "passes": passes,
           "trace": trace, "trace_file": str(trace_file) if trace_file else None}
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d: %s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout)


def timed(report) -> list:
    """The passes that count for timing: all but the first, which warms
    caches; workloads.MIN_PASSES - 1 remain at least."""
    return report["passes"][1:]


def probe_mean(report, names) -> float:
    """The named probes' mean times over the timed passes, summed."""
    return sum(statistics.fmean(t for p in timed(report) for t in p["probe"][name]) for name in names)


def request_means(report) -> list:
    """Each request's mean latency over the timed passes, as measured."""
    return [statistics.fmean(times) for times in zip(*(p["latency"] for p in timed(report)))]


def at_reference_speed(report, probes) -> list:
    """request_means scaled to a host on which the named probes take
    PROBE_REF_S: multiplied by PROBE_REF_S over their mean time in the run.
    Means, not medians: a request of many milliseconds averages the host's
    fast and slow stretches, and so does the mean of many short probes."""
    scale = PROBE_REF_S / probe_mean(report, probes)
    return [t * scale for t in request_means(report)]


def check_reports(reqs, reports):
    """Check every output of every pass; returns (attempted, failed,
    problems).  Only first-pass outputs travel in full; a later output
    must have the digest of a checked one.  A failed request that is not
    the workload's known failure is a problem, as is a wrong output."""
    attempted = failed = 0
    problems = []
    verdicts = {}  # (request index, digest) -> problem or None
    reported_failures = set()
    for report in reports:
        for p, record in enumerate(report["passes"]):
            for i, (req, ok, digest) in enumerate(zip(reqs, record["ok"], record["digest"])):
                attempted += 1
                if not ok:
                    failed += 1
                    if not req.known_failure and i not in reported_failures:
                        reported_failures.add(i)
                        detail = report["outputs"][i] if p == 0 else "in pass %d" % (p + 1)
                        problems.append("FAILED %s: %s" % (req.label, json.dumps(detail)[:300]))
                    continue
                key = (i, digest)
                if key not in verdicts:
                    if p > 0:
                        verdicts[key] = "output differs from the first pass"
                    else:
                        verdicts[key] = workloads.verdict(req, report["outputs"][i])
                    if verdicts[key]:
                        problems.append("WRONG %s: %s" % (req.label, verdicts[key]))
    return attempted, failed, problems


def provenance(args, reports) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": socket.gethostname(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": reports[0]["mpmath_version"],
        "rational_backend": reports[0]["rational_backend"],
        PRECISION_ENV: {"inherited": os.environ.get(PRECISION_ENV), "worker": "unset"},
        "passes": [len(r["passes"]) for r in reports],
        "measured_pass_s": [sum(request_means(r)) for r in reports],
        "probe_mean_s": [{name: probe_mean(r, [name]) for name in r["passes"][0]["probe"]} for r in reports],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sincprod" / "__init__.py").is_file():
        print("no sincprod sources at %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # reference rationals have tens of thousands of digits

    with open(ROOT / "BENCHMARK.json") as fh:
        per_layer = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    reqs = workloads.build(args.workload, args.seed)
    env = worker_env()
    if args.trace:
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / ("%s-seed%d.json" % (args.workload, args.seed))
        passes = workloads.passes(args.workload, args.seconds / 2)
        plain = run_worker(args.workload, reqs, passes, False, env)
        traced = run_worker(args.workload, reqs, passes, True, env, trace_file)
        reports = [plain, traced]
    else:
        setup = measure_setup(env, SETUP_SAMPLES)
        plain = run_worker(args.workload, reqs, workloads.passes(args.workload, args.seconds), False, env)
        setup += measure_setup(env, SETUP_SAMPLES)
        reports = [plain]
    attempted, failed, problems = check_reports(reqs, reports)

    if args.trace:
        values = {name: (max if name in MAX_PER_LAYER else statistics.fmean)(p["layers"][name] for p in traced["passes"])
                  for name in per_layer if name != OVERHEAD}
        probes = workloads.PASS_PROBES[args.workload]
        values[OVERHEAD] = sum(at_reference_speed(traced, probes)) - sum(at_reference_speed(plain, probes))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer.items()}
    else:
        metrics = {
            "pass_ref_s": {"value": sum(at_reference_speed(plain, workloads.PASS_PROBES[args.workload])),
                           "unit": "s"},
            "req_p50_ref_s": {"value": statistics.median(at_reference_speed(plain, MEDIAN_PROBES)), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {"value": plain["peak_rss_kib"] / 1024, "unit": "MiB"},
        }

    print("provenance " + json.dumps(provenance(args, reports)))
    for line in problems:
        print(line)
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
