"""Byte identity of the CLI on a seeded corpus, one digest per argv.

The corpus is built in code from fixed seeds: the CLI argv of the three
benchmark workloads at seeds 1 to 3 (``bench/workloads.build``), then
1,500 random exact requests.  Each argv runs through ``cli.main`` in
this process; its exit code, stdout and stderr are hashed to 16 hex
digits and compared, in corpus order, with ``cli_digests.txt``.

A change that moves an output on purpose rewrites that file with

    PYTHONPATH=src python tests/test_cli_digests.py

and lists each moved argv, with its old and new output, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

from sincprod import cli

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("cli_digests.txt")
WORKLOADS = ("exact-deficits", "breakpoint-scan", "oracle-crosscheck")


def _workload_argv() -> list:
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return [req.payload["cli"] for name in WORKLOADS for seed in (1, 2, 3)
            for req in workloads.build(name, seed) if "cli" in req.payload]


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
    return _workload_argv() + _random_exact_argv()


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(result) -> str:
    code, out, err = result
    return hashlib.sha256(b"%d\0%s\0%s" % (code, out.encode(), err.encode())).hexdigest()[:16]


def test_corpus_outputs_are_byte_identical():
    argvs = corpus()
    want = DIGESTS.read_text().split()
    assert len(want) == len(argvs), "corpus has %d argv, %s holds %d digests" % (len(argvs), DIGESTS.name, len(want))
    moved = []
    for argv, old in zip(argvs, want):
        result = run(argv)
        if digest(result) != old:
            code, out, err = result
            moved.append("%s\n  -> exit %d, stdout %r, stderr %r" % (" ".join(argv), code, out[:1000], err[:1000]))
    assert not moved, "%d of %d argv moved:\n%s" % (len(moved), len(argvs), "\n".join(moved))


if __name__ == "__main__":
    DIGESTS.write_text("".join(digest(run(argv)) + "\n" for argv in corpus()))
