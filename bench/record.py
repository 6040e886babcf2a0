"""Record the expected answer documents that session.py compares against.

    python3 bench/record.py [--workload W]

Writes bench/expected/<workload>.jsonl: a first line with the commit the
answers came from and the seed, then one line {"key", "answer"} per query.
Any session of any seed compares a query whose key is recorded against the
recorded document, on top of the invariant checks of workloads.py.
Recorded queries:
  * leopoldt-scan and big-conductor: the batch of the default seed, which
    every run of that seed answers;
  * kummer-alpha: every (fixture, N) pair a batch can draw, so every
    alpha query of every seed is compared.
Rerun it only when the answers are meant to change, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import iwasawalab as lib  # noqa: E402
import workloads as W  # noqa: E402


def commit():
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "src"],
                               cwd=ROOT, capture_output=True, text=True,
                               check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head.stdout.strip() + (" (src modified)" if dirty.stdout else "")


def queries_for(workload):
    if workload == "kummer-alpha":
        out = []
        for d, p, q1, q2, n_max in W.ALPHA_FIXTURES:
            out.extend(("alpha", d, p, q1, q2, N) for N in range(2, n_max + 1))
        out.append(("alpha",) + W.ALPHA_SNF_CASE)
        return out
    return W.batch(workload, W.DEFAULT_SEED)


def record(workload):
    answers = {}
    for q in queries_for(workload):
        key = W.query_key(q)
        if key in answers:
            continue
        doc = W.answer(lib, q)
        reason = W.invariant_error(q, doc)
        if reason is not None:
            raise SystemExit("%s: %s" % (key, reason))
        answers[key] = doc
    path = os.path.join(BENCH_DIR, "expected", workload + ".jsonl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(json.dumps({"commit": commit(), "seed": W.DEFAULT_SEED})
                + "\n")
        for k, v in answers.items():
            f.write(json.dumps({"key": k, "answer": v}, sort_keys=True)
                    + "\n")
    print("%s: %d answers -> %s" % (workload, len(answers), path))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="all",
                    choices=W.WORKLOADS + ("all",))
    args = ap.parse_args(argv)
    for w in W.WORKLOADS if args.workload == "all" else (args.workload,):
        record(w)
    return 0


if __name__ == "__main__":
    sys.exit(main())
