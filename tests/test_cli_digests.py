"""Byte identity of the CLI and the oracle on a seeded corpus, one digest
per request.

The corpus is built in code from fixed seeds: the CLI argv of the three
benchmark workloads at seeds 1 to 3 (``bench/workloads.build``), then
1,500 random exact requests, then the library requests of
``oracle-crosscheck`` at seeds 1 to 3 (``numeric_integral`` rendered to
40 digits and ``verify_theorem1`` reports), each run as the benchmark
worker runs it (``bench/worker._prepare``).  Each argv runs through
``cli.main`` in this process; its exit code, stdout and stderr are
hashed to 16 hex digits, as is each library request's success flag and
JSON output, and compared, in corpus order, with ``cli_digests.txt``.

A change that moves an output on purpose rewrites that file with

    PYTHONPATH=src python tests/test_cli_digests.py

and lists each moved request, with its old and new output, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import mpmath as mp

import sincprod
from sincprod import cli

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("cli_digests.txt")
WORKLOADS = ("exact-deficits", "breakpoint-scan", "oracle-crosscheck")


def _bench(module: str):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        return __import__(module)
    finally:
        sys.path.remove(str(ROOT / "bench"))


def _workload_argv() -> list:
    return [req.payload["cli"] for name in WORKLOADS for seed in (1, 2, 3)
            for req in _bench("workloads").build(name, seed) if "cli" in req.payload]


def _oracle_library_requests() -> list:
    return [req.payload for seed in (1, 2, 3)
            for req in _bench("workloads").build("oracle-crosscheck", seed) if "lib" in req.payload]


def _random_exact_argv(count: int = 1500, seed: int = 24) -> list:
    """1 to 12 scales a/d (a <= 5, d <= 6), a unit scale added with
    probability 0.85, shuffled; one of the three exact commands, with a
    node budget drawn from 1 to 3000."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        scales = ["%d/%d" % (rng.randint(1, 5), rng.randint(1, 6)) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.85:
            scales.append("1")
        rng.shuffle(scales)
        command = rng.choice(["integral", "weighted-integral", "deficit"])
        argv = ["--format", "json", command, "--betas", ",".join(scales)]
        if command == "weighted-integral":
            argv += ["--weights", str(rng.randint(1, 4))]
        elif command == "deficit":
            argv += ["--weights", str(rng.randint(0, 4))]
        out.append(argv + ["--node-budget", str(rng.randint(1, 3000))])
    return out


def corpus() -> list:
    """CLI argv (lists) and library requests (dicts, as bench/workloads writes them)."""
    return _workload_argv() + _random_exact_argv() + _oracle_library_requests()


def run(request) -> tuple:
    """(exit code, stdout, stderr) of one cli.main call, or the success flag
    and JSON output of one library request."""
    if isinstance(request, dict):
        ok, output = _bench("worker")._prepare(request, sincprod, mp)()
        return ok, json.dumps(output, sort_keys=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(request))
    return code, out.getvalue(), err.getvalue()


def digest(result) -> str:
    return hashlib.sha256(b"\0".join(b"%d" % r if isinstance(r, int) else r.encode() for r in result)).hexdigest()[:16]


def test_corpus_outputs_are_byte_identical():
    requests = corpus()
    want = DIGESTS.read_text().split()
    assert len(want) == len(requests), "corpus has %d requests, %s holds %d digests" % (
        len(requests), DIGESTS.name, len(want))
    moved = []
    for request, old in zip(requests, want):
        result = run(request)
        if digest(result) != old:
            name = json.dumps(request, sort_keys=True) if isinstance(request, dict) else " ".join(request)
            moved.append("%s\n  -> %r" % (name, tuple(r if isinstance(r, int) else r[:1000] for r in result)))
    assert not moved, "%d of %d requests moved:\n%s" % (len(moved), len(requests), "\n".join(moved))


if __name__ == "__main__":
    DIGESTS.write_text("".join(digest(run(request)) + "\n" for request in corpus()))
