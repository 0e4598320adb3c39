#!/usr/bin/env python3
"""futrace benchmark: time-to-verdict per detection mode on four traffic shapes.

    python3 perfbench/run.py --workload service --seed 1 --seconds 55 --trace 0

Builds perfbench/futbench from the repository sources (into .bench_build/),
then runs it in rounds until --seconds have passed. Every round runs each
detection mode (the short ones several times, see REPEATS), each run in a
fresh process with a wall-clock limit, and checks every verdict. --trace 0 prints
the end-to-end metrics, --trace 1 the per-layer split (see README.md). The
last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "futbench")

WORKLOADS = ("crypt", "wavefront", "strassen", "service")
# Runs per round of the shorter, noisier modes (every other mode runs once),
# so that each of their medians rests on more samples.
REPEATS = {"seq": 3, "dfs_noop": 3, "pipelined": 3, "pardetect": 2}
HANG_SECONDS = 30  # wall-clock limit of one run; a hang is a failed run
TIMED_ROUND = ("seq", "inline", "pipelined", "pardetect")
TRACED_ROUND = ("seq", "dfs_noop", "inline", "traced_inline",
                "traced_pipelined", "parallel", "traced_pardetect")
CONCURRENT = {"pipelined": "pipelined_threads",
              "traced_pipelined": "pipelined_threads",
              "pardetect": "pardetect_threads",
              "traced_pardetect": "pardetect_threads"}
PAPER_COUNTERS = ("tasks", "non_tree_joins", "shared_mem", "races_observed")
EXIT_LIBRARY_ERROR = 3  # futbench: the library threw (e.g. deadlock_error)

END_TO_END = (
    ("setup_s", "s"), ("seq_s", "s"), ("inline_s", "s"),
    ("pipelined_s", "s"), ("pardetect_s", "s"),
    ("inline_peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("runtime.dfs_overhead_ms", "ms"), ("runtime.parallel_ms", "ms"),
    ("runtime.tasks", "count"),
    ("detect.structure_ms", "ms"), ("detect.structure_calls", "count"),
    ("detect.structure_max_us", "us"),
    ("detect.access_ms", "ms"), ("detect.access_calls", "count"),
    ("detect.access_elems", "count"), ("detect.access_ns_per_elem", "ns"),
    ("detect.verdict_ms", "ms"), ("detect.memory_bytes", "bytes"),
    ("detect.precede_queries", "count"), ("detect.memo_hits", "count"),
    ("detect.stamp_hits", "count"), ("detect.direct_hits", "count"),
    ("detect.hashed_hits", "count"), ("detect.range_hits", "count"),
    ("detect.summary_hits", "count"), ("detect.races_observed", "count"),
    ("detect.reports_capped", "count"), ("detect.epoch_resets", "count"),
    ("shadow.slabs_built", "count"), ("shadow.summaries_established", "count"),
    ("shadow.summary_materializations", "count"), ("shadow.mru_hits", "count"),
    ("dsr.frontier_searches", "count"), ("dsr.visit_steps", "count"),
    ("dsr.nt_edges_walked", "count"), ("dsr.memo_invalidations", "count"),
    ("dsr.epoch_compactions", "count"), ("dsr.structure_bytes", "bytes"),
    ("pipeline.producer_ms", "ms"), ("pipeline.drain_ms", "ms"),
    ("pipeline.events", "count"), ("pipeline.split_subevents", "count"),
    ("pipeline.backpressure_waits", "count"),
    ("pipeline.occupancy_pct", "%"), ("pipeline.inline_fallbacks", "count"),
    ("pardetect.emit_ms", "ms"), ("pardetect.emit_calls", "count"),
    ("pardetect.finalize_ms", "ms"), ("pardetect.backpressure_waits", "count"),
    ("pardetect.occupancy_pct", "%"), ("pardetect.structure_bytes", "bytes"),
    ("pardetect.inline_fallbacks", "count"),
    ("traced.inline_ms", "ms"), ("traced.overhead_ms", "ms"),
    ("traced.unattributed_ms", "ms"),
    ("request.p50_us", "us"), ("request.p999_us", "us"),
    ("request.samples", "count"),
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds futbench; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no futrace sources next to perfbench/ (need src/ and "
            "include/); cannot build the benchmark")
        return False
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "futbench",
                  "-j", str(max(1, min(4, nproc())))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            log("run.py: build step failed: " + " ".join(cmd))
            return False
    return True


def nproc():
    return len(os.sched_getaffinity(0))


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("include", "src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Run:
    """One futbench process: its JSON record, or why it produced none."""

    def __init__(self, workload, mode, seed):
        self.mode = mode
        self.record = None
        self.problem = None      # text of the failure, if the run failed
        self.incorrect = False   # the failure is a wrong output, not a hang
        self.elapsed = 0.0
        cmd = [BINARY, "--workload", workload, "--mode", mode,
               "--seed", str(seed)]
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=HANG_SECONDS)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.elapsed = time.monotonic() - start
            self.problem = (f"hang: {workload}/{mode} seed {seed} gave no "
                            f"verdict within {HANG_SECONDS} s")
            return
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        self.elapsed = time.monotonic() - start
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or [""]
            self.problem = (f"{workload}/{mode} seed {seed} exited "
                            f"{proc.returncode}: {tail[0]}")
            self.incorrect = proc.returncode != EXIT_LIBRARY_ERROR
            return
        try:
            self.record = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.problem = f"{workload}/{mode} seed {seed}: no JSON result"
            self.incorrect = True

    def fail(self, why):
        if self.problem is None:
            self.problem = why
            self.incorrect = True


def check(runs, workload):
    """The correctness gate: marks every run whose verdict is wrong."""
    done = [r for r in runs if r.record is not None]
    reference = next((r.record["counters"] for r in done
                      if r.mode == "inline"), None)
    for r in done:
        rec = r.record
        where = f"{workload}/{r.mode} seed {rec['seed']}"
        if not rec["verified"]:
            r.fail(f"{where}: the workload's self-check failed")
        if rec.get("races", 0) != 0 and rec["race_free"]:
            r.fail(f"{where}: reported {rec['races']} races on a race-free "
                   f"workload")
        if "counters" not in rec or reference is None:
            continue
        # Sharded modes check each address on one shard with its own stamps
        # and memo, so precede_queries is layout-dependent there (DESIGN.md
        # section 10); only the traced inline run must reproduce it exactly.
        keys = PAPER_COUNTERS + (("precede_queries",)
                                 if r.mode in ("inline", "traced_inline")
                                 else ())
        for key in keys:
            if rec["counters"][key] != reference[key]:
                r.fail(f"{where}: {key} {rec['counters'][key]} differs from "
                       f"inline {reference[key]}")


def median(values):
    return statistics.median(values) if values else float("nan")


def quantile(values, q):
    """Linear-interpolated quantile (values need not be sorted)."""
    s = sorted(values)
    if not s:
        return float("nan")
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def times(runs, mode):
    """Completed times of `mode`; a hung run counts with its kill time, a
    lower bound on its time-to-verdict, so a hang never hides as fast."""
    out = []
    for r in runs:
        if r.mode != mode:
            continue
        if r.record is not None and r.problem is None:
            out.append(r.record["time_s"])
        elif r.problem is not None and r.problem.startswith("hang"):
            out.append(r.elapsed)
    return out


def layer(runs, mode, key):
    return median([r.record["layers"][key] for r in runs
                   if r.mode == mode and r.record is not None
                   and r.problem is None])


def rec_median(runs, mode, key):
    return median([r.record[key] for r in runs
                   if r.mode == mode and r.record is not None
                   and r.problem is None and key in r.record])


def end_to_end(rounds, runs):
    # Per round: the set-up of every mode, each the median of its runs.
    setups = []
    for rnd in rounds:
        by_mode = {}
        for r in rnd:
            if r.record is not None:
                by_mode.setdefault(r.mode, []).append(r.record["setup_s"])
        if by_mode:
            setups.append(sum(median(v) for v in by_mode.values()))
    return {
        "setup_s": median(setups),
        "seq_s": median(times(runs, "seq")),
        "inline_s": median(times(runs, "inline")),
        "pipelined_s": median(times(runs, "pipelined")),
        "pardetect_s": median(times(runs, "pardetect")),
        "inline_peak_rss_mb": rec_median(runs, "inline", "peak_rss_kib") / 1024,
    }


def per_layer(workload, runs):
    seq_ms = median(times(runs, "seq")) * 1e3
    dfs_ms = median(times(runs, "dfs_noop")) * 1e3
    inline_ms = median(times(runs, "inline")) * 1e3
    traced_ms = median(times(runs, "traced_inline")) * 1e3
    m = {
        "runtime.dfs_overhead_ms": dfs_ms - seq_ms,
        "runtime.parallel_ms": median(times(runs, "parallel")) * 1e3,
        "runtime.tasks": rec_median(runs, "parallel", "runtime_tasks"),
    }
    ti = "traced_inline"
    for key in ("structure_ms", "structure_calls", "structure_max_us",
                "access_ms", "access_calls", "access_elems", "memory_bytes",
                "precede_queries", "memo_hits", "stamp_hits", "direct_hits",
                "hashed_hits", "range_hits", "summary_hits", "races_observed",
                "reports_capped", "epoch_resets"):
        m["detect." + key] = layer(runs, ti, key)
    m["detect.access_ns_per_elem"] = (m["detect.access_ms"] * 1e6 /
                                      max(1, m["detect.access_elems"]))
    m["detect.verdict_ms"] = rec_median(runs, ti, "verdict_ms")
    for key in ("slabs_built", "summaries_established",
                "summary_materializations", "mru_hits"):
        m["shadow." + key] = layer(runs, ti, key)
    for key in ("frontier_searches", "visit_steps", "nt_edges_walked",
                "memo_invalidations", "epoch_compactions", "structure_bytes"):
        m["dsr." + key] = layer(runs, ti, key)

    tp = "traced_pipelined"
    m["pipeline.producer_ms"] = layer(runs, tp, "producer_ms")
    m["pipeline.drain_ms"] = (layer(runs, tp, "program_end_ms") +
                              rec_median(runs, tp, "verdict_ms"))
    for key in ("events", "split_subevents", "backpressure_waits",
                "occupancy_pct", "inline_fallbacks"):
        m["pipeline." + key] = layer(runs, tp, key)

    tq = "traced_pardetect"
    m["pardetect.emit_ms"] = layer(runs, tq, "emit_ms")
    m["pardetect.emit_calls"] = layer(runs, tq, "emit_calls")
    m["pardetect.finalize_ms"] = (layer(runs, tq, "program_done_ms") +
                                  rec_median(runs, tq, "verdict_ms"))
    for key in ("backpressure_waits", "occupancy_pct", "structure_bytes",
                "inline_fallbacks"):
        m["pardetect." + key] = layer(runs, tq, key)

    # The traced inline wall time, split: program execution (seq), runtime
    # bookkeeping (dfs_overhead), the detector's structure, access and
    # verdict layers, and what none of them covers.
    m["traced.inline_ms"] = traced_ms
    m["traced.overhead_ms"] = traced_ms - inline_ms
    m["traced.unattributed_ms"] = traced_ms - (
        seq_ms + m["runtime.dfs_overhead_ms"] + m["detect.structure_ms"] +
        m["detect.access_ms"] + m["detect.verdict_ms"])

    # Latency of one request to the (untraced) inline detector, pooled over
    # the run: each service request, or each whole batch program, whose
    # latency is its time-to-verdict.
    if workload == "service":
        lat = [us for r in runs if r.mode == "inline" and r.record
               for us in r.record["request_latency_us"]]
    else:
        lat = [t * 1e6 for t in times(runs, "inline")]
    m["request.p50_us"] = quantile(lat, 0.5)
    m["request.p999_us"] = quantile(lat, 0.999)
    m["request.samples"] = len(lat)
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    facts = json.loads(subprocess.run(
        [BINARY, "--workload", args.workload, "--provenance"],
        capture_output=True, text=True, check=True).stdout)
    cores = nproc()
    round_modes = TRACED_ROUND if args.trace else TIMED_ROUND
    for mode in round_modes:
        need = facts.get(CONCURRENT.get(mode, ""), 1)
        if need > cores:
            log(f"run.py: refusing mode {mode}: it runs {need} threads but "
                f"nproc is {cores} (no oversubscription)")
            return 2

    # Start another round while at least half an average round is left, so
    # a run lasts about --seconds whatever a round costs.
    rounds = []
    start = time.monotonic()
    while not rounds or (time.monotonic() - start) * (
            1 + 0.5 / len(rounds)) < args.seconds:
        rnd = []
        for mode in round_modes:
            for _ in range(REPEATS.get(mode, 1)):
                rnd.append(Run(args.workload, mode, args.seed))
        rounds.append(rnd)
    runs = [r for rnd in rounds for r in rnd]
    check(runs, args.workload)

    if args.trace:
        spec, values = PER_LAYER, per_layer(args.workload, runs)
    else:
        spec, values = END_TO_END, end_to_end(rounds, runs)
    failures = [r.problem for r in runs if r.problem is not None]
    failed = len(failures)
    provenance = dict(facts, nproc=cores, commit=commit(),
                      source_sha256=source_digest(), seed=args.seed,
                      workload=args.workload, trace=args.trace,
                      rounds=len(rounds), hang_seconds=HANG_SECONDS,
                      fail_frac=failed / len(runs), attempted_runs=len(runs),
                      failures=failures,
                      samples={mode: len(times(runs, mode))
                               for mode in round_modes},
                      precede_queries={
                          mode: sorted({r.record["counters"]["precede_queries"]
                                        for r in runs
                                        if r.mode == mode and r.record
                                        and "counters" in r.record})
                          for mode in round_modes if mode not in
                          ("seq", "dfs_noop", "parallel")})
    for problem in failures:
        log("FAILED " + problem)
    print(json.dumps({"provenance": provenance}))
    for name, unit in spec:
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"fail_frac = {failed / len(runs):.6g} ({failed} of {len(runs)} "
          f"runs failed)")
    result = {
        "correct": not any(r.incorrect for r in runs),
        "attempted": len(runs),
        "failed": failed,
        # A mode with no completed run has no value (null).
        "metrics": {name: {"value": values[name]
                           if math.isfinite(values[name]) else None,
                           "unit": unit}
                    for name, unit in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
