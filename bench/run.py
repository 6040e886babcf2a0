"""Benchmark of the iwasawalab engine.

Run from the root of a checkout:

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
                         [--out results.jsonl]

W is one of leopoldt-scan, kummer-alpha, big-conductor, or ``all`` (the
default), which runs the three one after another.  T defaults to
run_seconds of BENCHMARK.json, the value a harness running the benchmark
passes.  A run of one workload prints every metric by name with its unit,
then one JSON object {"correct", "attempted", "failed", "metrics"} as the
last line of stdout.  With ``all``, each workload prints its lines in turn
and a last line adds one object of the same four keys: "correct" holds
only when every workload passed, "attempted" and "failed" are summed, and
each metric is named "<workload>.<metric>".  ``--out`` appends each
workload's result, with the workload, seed and trace flag, to a JSON-lines
file that compare.py reads.  The exit code is 0 when every answer passed
its checks.

Untraced run (``--trace 0``): the seed's batch of queries (workloads.batch)
is answered ROUNDS times, each time by a fresh process (a session, see
session.py), one after another.
  * The first session starts no query after SLOW_FACTOR * T/ROUNDS
    seconds, so that a much slower program still ends in time; the others
    answer the same queries as the first.  A seed fixes the queries,
    whatever the speed of the code; a batch takes about T/ROUNDS seconds on
    the reference machine.
  * Each query counts with the fastest of its ROUNDS latencies: short slow
    spells of a shared machine only ever add time.
  * The host's speed also drifts over minutes, longer than a run.  Each
    session therefore times a fixed piece of pure-Python work, the
    reference probe (session.probe), at fixed positions of the batch; it is
    taken like a query (the fastest of its rounds at each position), and
    the mean over the positions is the run's reference time.  The time
    metrics are given at the host speed where the probe takes REFERENCE_S:
    each latency is multiplied by REFERENCE_S over the run's reference
    time.  The run also prints the times as measured and the reference.
  * queries_per_s is the number of queries over the sum of those latencies,
    the busy time of a session at its fastest; peak_rss_mb is the median
    over the sessions of the peak RSS os.wait4 reports;
  * setup_s is the median, over one fresh process started before each
    session (at least MIN_SETUP_PROBES in all), of the time from just before
    the process is started until ``import iwasawalab`` has finished, each
    scaled like a latency by the reference probe that process times next.

Traced run (``--trace 1``): the batch is answered in full four times, each
in a fresh process: untraced, with the spans of tracer.py installed,
untraced, traced.  The per-layer metrics come from the faster traced
process; for a given seed they count a fixed amount of work, so their call
counts repeat exactly.  trace.overhead_frac is the faster traced busy time
over the faster untraced one, minus 1.  The run also prints the TOP_SPANS
span names with the most self time.

Runs never overlap: one process at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402

ROUNDS = 6
# time of the reference probe (session.probe) on the reference machine in
# a fast spell; the time metrics are given at this speed of the host
REFERENCE_S = 0.6e-3
SLOW_FACTOR = 3
MIN_SETUP_PROBES = 12
TOP_SPANS = 12
# fixed per workload so that at least ten samples lie beyond it in a run
TAIL_PERCENTILE = {"leopoldt-scan": 99, "kummer-alpha": 90,
                   "big-conductor": 90}
# a query in flight at the deadline may still finish; a session process
# still running this long after its deadline (or after its start, when it
# has none) is killed and the run fails
GRACE_S = 90.0

PROBE = ("import sys, time\n"
         "import iwasawalab\n"
         "t = time.monotonic()\n"
         "sys.path.insert(0, sys.argv[1])\n"
         "import session\n"
         "sys.stdout.write('%r %r %s' % (t, session.probe(time.perf_counter),"
         " iwasawalab.__file__))")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd, timeout):
    """Run cmd to completion; returns (stdout, exit code, peak RSS in KiB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    except BaseException:  # SIGTERM or ^C: take the child down too
        proc.kill()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return out.decode(), proc.returncode, usage.ru_maxrss


def setup_probe():
    """(seconds from just before the process starts until ``import
    iwasawalab`` has finished, the reference probe timed right after)."""
    t0 = time.monotonic()
    out, code, _ = spawn([sys.executable, "-c", PROBE, BENCH_DIR], 60)
    if code != 0:
        raise BenchError("import iwasawalab failed (exit %d)" % code)
    t1, reference_s, path = out.split(" ", 2)
    if not os.path.abspath(path).startswith(SRC_DIR + os.sep):
        raise BenchError("imported %s, not the package under %s"
                         % (path, SRC_DIR))
    return float(t1) - t0, float(reference_s)


def run_session(workload, seed, deadline=None, limit=None, trace=False):
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH_DIR, "session.py"),
           "--workload", workload, "--seed", str(seed)]
    if deadline is not None:
        cmd += ["--deadline", repr(deadline)]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    if trace:
        cmd.append("--trace")
    budget = (deadline - t0 if deadline is not None else 0.0) + GRACE_S
    out, code, maxrss_kib = spawn(cmd, budget)
    if code != 0 or not out.strip():
        raise BenchError("a session of %s exited with %d" % (workload, code))
    res = json.loads(out.strip().splitlines()[-1])
    res["peak_rss_mb"] = maxrss_kib / 1024.0
    for err in res["errors"]:
        sys.stderr.write("check failed: %s\n" % err)
    return res


def percentile(sorted_xs, q):
    """Linear interpolation between closest ranks (q in percent)."""
    pos = (len(sorted_xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def untraced(workload, seed, seconds):
    setup_probe()  # compiles byte code on a fresh checkout; not counted
    setups = []
    runs = []
    deadline = time.monotonic() + SLOW_FACTOR * seconds / ROUNDS
    for _ in range(ROUNDS):
        # probes spread over the run, so that one slow spell of the machine
        # does not set the median
        setups.append(setup_probe())
        if not runs:
            runs.append(run_session(workload, seed, deadline=deadline))
        else:
            runs.append(run_session(workload, seed,
                                    limit=runs[0]["attempted"]))
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(setup_probe())

    # slow spells of a shared machine only ever add time, so each query
    # counts with the fastest of its runs
    lat = sorted(min(xs) for xs in zip(*(r["latencies"] for r in runs)))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if not lat:
        raise BenchError("no query was answered")
    q = TAIL_PERCENTILE[workload]
    beyond = len(lat) - math.ceil(len(lat) * q / 100.0)
    # the reference probe, taken like a query: the fastest of its rounds at
    # each position, then the mean over the positions
    reference_s = statistics.mean(
        min(xs) for xs in zip(*(r["probes"] for r in runs)))
    scale = REFERENCE_S / reference_s
    qps = len(lat) / sum(lat)
    p50 = 1e3 * percentile(lat, 50)
    tail = 1e3 * percentile(lat, q)
    metrics = {
        "setup_s": statistics.median(t * REFERENCE_S / r for t, r in setups),
        "queries_per_s": qps / scale,
        "latency_p50_ms": p50 * scale,
        "latency_tail_ms": tail * scale,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    notes = {
        "reference_ms": "%.6g" % (1e3 * reference_s),
        "setup_s as timed": "%.6g" % statistics.median(t for t, _ in setups),
        "queries_per_s as timed": "%.6g" % qps,
        "latency_p50_ms as timed": "%.6g" % p50,
        "latency_tail_ms as timed": "%.6g" % tail,
        "queries": len(lat),
        "tail_percentile": "p%g" % q, "samples_beyond_tail": beyond,
        "setup_probes": len(setups),
        "failed_frac": failed / attempted,
    }
    if beyond < 10:
        sys.stderr.write("warning: only %d samples beyond p%g\n"
                         % (beyond, q))
    return attempted, failed, metrics, notes


def traced(workload, seed):
    # untraced, traced, untraced, traced: each side counts with its faster
    # process, as in an untraced run
    runs = [run_session(workload, seed, trace=t)
            for t in (False, True, False, True)]
    if not all(r["complete"] for r in runs):
        raise BenchError("the batch was not answered in full")
    plain = min(runs[0::2], key=lambda r: r["busy_s"])
    tr = min(runs[1::2], key=lambda r: r["busy_s"])
    metrics = dict(tr["layers"])
    metrics["trace.overhead_frac"] = tr["busy_s"] / plain["busy_s"] - 1.0
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    notes = {"queries": tr["attempted"],
             "untraced_busy_s": plain["busy_s"], "traced_busy_s": tr["busy_s"],
             "failed_frac": failed / attempted}
    if tr["missing_targets"]:
        notes["missing_targets"] = tr["missing_targets"]
    # the spans that hold most self time, for finding where time goes
    top = sorted(tr["spans"].items(), key=lambda kv: -kv[1][1])
    for name, (calls, self_s) in top[:TOP_SPANS]:
        notes["span " + name] = "%d calls %.4f s" % (calls, self_s)
    return attempted, failed, metrics, notes


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, spec):
    if trace:
        attempted, failed, raw, notes = traced(workload, seed)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        attempted, failed, raw, notes = untraced(workload, seed, seconds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": raw[name], "unit": unit}
               for name, unit in units.items()}
    print("workload %s  seed %d  trace %d  python %s"
          % (workload, seed, trace, platform.python_version()))
    for name, m in metrics.items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, value in notes.items():
        print("  %-36s %14s" % (name, value))
    return {"correct": failed == 0 and attempted >= 1,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time of an untraced run (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None,
                    help="append results to this JSON-lines file")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.exists(os.path.join(SRC_DIR, "iwasawalab",
                                       "__init__.py")):
        sys.stderr.write("bench: no iwasawalab package under %s\n" % SRC_DIR)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    results = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, seconds, args.trace, spec)
        except BenchError as e:
            sys.stderr.write("bench: %s: %s\n" % (name, e))
            return 1
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": name, "seed": args.seed,
                                    "trace": args.trace,
                                    "seconds": seconds,
                                    "result": result}) + "\n")
        print(json.dumps(result))
        sys.stdout.flush()
        results[name] = result
    if len(names) > 1:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {"%s.%s" % (w, k): m
                              for w, r in results.items()
                              for k, m in r["metrics"].items()}}
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
