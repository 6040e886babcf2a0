"""One benchmark session: a fresh process that imports iwasawalab, answers
the seeded batch of queries in a closed loop (one thread, one query at a
time) and writes one JSON object to stdout.

    python3 bench/session.py --workload W --seed S [--deadline D]
        [--limit N] [--trace]

``--deadline`` is a ``time.monotonic()`` reading after which no new query
is started; ``--limit`` answers only the first N queries of the batch.
Before the queries at PROBE_SLOTS fixed positions of the batch the session
times the reference probe, which run.py uses to give times at a fixed
speed of the host; the probes are not part of any latency or of busy_s.
run.py is the entry point; this file is its worker.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")

# A reference probe runs at PROBE_SLOTS fixed positions of the batch: the
# fastest of PROBE_REPEATS back-to-back runs of reference_work().
PROBE_SLOTS = 32
PROBE_REPEATS = 3
REFERENCE_STEPS = 1000
_MODULUS = (1 << 255) - 19


def _step(x, i):
    return (x * x + i) % _MODULUS


def reference_work():
    """A fixed piece of pure-Python work of the kind the engine does:
    modular arithmetic on integers of a few hundred bits, calls, tuples and
    a dict.  It never changes, so its time follows only the host's speed."""
    x, table = 3, {}
    for i in range(REFERENCE_STEPS):
        x = _step(x, i)
        table[x & 255] = (i, x >> 200)
    return len(table)


def probe(clock):
    best = None
    for _ in range(PROBE_REPEATS):
        start = clock()
        reference_work()
        t = clock() - start
        best = t if best is None else min(best, t)
    return best


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def load_expected(workload, keys):
    """Query key -> canonical expected answer, for the given keys that
    record.py recorded.  The file is read a line at a time, so that answers
    this session does not ask for never add to its memory."""
    out = {}
    with open(os.path.join(EXPECTED_DIR, workload + ".jsonl")) as f:
        next(f)  # the header: commit and seed
        for line in f:
            rec = json.loads(line)
            if rec["key"] in keys:
                out[rec["key"]] = canonical(rec["answer"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--deadline", type=float, default=None)
    ap.add_argument("--limit", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import iwasawalab as lib
    if not os.path.abspath(lib.__file__).startswith(SRC_DIR + os.sep):
        sys.stderr.write("session: imported %s, not the package under %s\n"
                         % (lib.__file__, SRC_DIR))
        return 2

    import workloads
    queries = workloads.batch(args.workload, args.seed)
    batch_size = len(queries)
    if args.limit is not None:
        queries = queries[:args.limit]
    expected = load_expected(args.workload,
                             {workloads.query_key(q) for q in queries})
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()

    # probe positions depend on the whole batch, so that a session cut by
    # --limit or --deadline probes at the same positions as a full one
    slots = {batch_size * j // PROBE_SLOTS for j in range(PROBE_SLOTS)}
    latencies, errors, probes = [], [], []
    probe_s = 0.0  # time spent in probes, left out of busy_s
    attempted = failed = 0
    first = last = None
    clock = time.perf_counter
    for i, q in enumerate(queries):
        if args.deadline is not None and time.monotonic() >= args.deadline:
            break
        if i in slots:
            start = clock()
            probes.append(probe(clock))
            if first is not None:
                probe_s += clock() - start
        attempted += 1
        start = clock()
        if first is None:
            first = start
        try:
            doc = workloads.answer(lib, q)
        except Exception as e:  # noqa: BLE001 - a failed query is counted
            last = clock()
            latencies.append(last - start)
            failed += 1
            errors.append("%s: %s: %s" % (workloads.query_key(q),
                                          type(e).__name__, e))
            continue
        last = clock()
        latencies.append(last - start)
        key = workloads.query_key(q)
        reason = workloads.invariant_error(q, doc)
        if reason is None and key in expected \
                and canonical(doc) != expected[key]:
            reason = "answer differs from the recorded one"
        if reason is not None:
            failed += 1
            errors.append("%s: %s" % (key, reason))

    out = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "complete": attempted == batch_size,
        "busy_s": (last - first - probe_s) if attempted else 0.0,
        "latencies": latencies,
        "probes": probes,
    }
    if tracer is not None:
        out["layers"], out["spans"] = tracer.summary()
        out["missing_targets"] = tracer.missing
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
