#!/usr/bin/env python3
"""Host-performance benchmark of the cpx simulator (perf/README.md).

Run it through perf/run.sh, which builds build-perf/ first:

  perf/run.sh                  one set: 12 rounds over all four workloads
  perf/run.sh --sets=2         two sets, interleaved round by round, each
                               (metric, workload) pair's difference
                               checked against its bound
  perf/run.sh --quick          one round at scale 0.1 (sanity loop)
  perf/run.sh --trace          the traced run of every workload; writes
                               build-perf/perf_trace.json
  perf/run.sh --workload W --seed N --seconds S --trace 0|1
                               one workload for S seconds; the last line
                               of stdout is the JSON result
  perf/run.sh --write-expected regenerate perf/expected.json

Every repetition runs in a fresh child process: build-perf/cpxperf for
the simulation points, the cpxbench CLI for the sweep. Each is started
through `cpxperf --spawn`, whose wait4() gives the CPU time and peak
RSS of the child's whole process tree.
"""

import argparse
import contextlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BUILD = ROOT / "build-perf"
CPXPERF = BUILD / "cpxperf"
CPXBENCH = BUILD / "cpx" / "tools" / "cpxbench"
BASELINE = ROOT / "BENCH_baseline.json"
EXPECTED = PERF / "expected.json"
TRACE_FILE = BUILD / "perf_trace.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

SWEEP_JOBS = 4          # = nproc of the reference host
ROUNDS_PER_SET = 12
W4_REPS = 3
QUICK_SCALE = 0.1
CHILD_TIMEOUT_S = 150
OBSERVER_SETS = ("none", "attrib", "sampler", "tracer", "checker", "all")
POINT_WORKLOADS = [w for w in WORKLOADS if w != "paper-sweep"]

# The stress tester's work differs by up to a quarter between seeds. Its
# repetitions cycle through these seeds, each pinned in expected.json,
# and a run ends on a whole cycle, so that two commits time the same mix
# of seeds however fast they are. --seed N picks where the cycle starts.
# Ocean's input does not depend on the seed: one pin holds for all.
SEED_CYCLE = {"observed-stress-64": (1, 2, 3, 4)}

# The coherence checker makes System::run fall back to one worker, and
# the sampler alone gives the digest of all four observers. So W=4 runs
# of observed-stress-64 keep only the sampler, and really run at W=4.
W4_OBSERVERS = {"observed-stress-64": "sampler"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- child processes ---------------------------------------------------------

class Child:
    """A finished child process and the resource use of its tree."""

    def __init__(self, rc, out, err, cpu_s, peak_rss_mb):
        self.rc, self.out, self.err = rc, out, err
        self.cpu_s, self.peak_rss_mb = cpu_s, peak_rss_mb


def _kill_group(pgid):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def spawn(argv):
    """Run argv through `cpxperf --spawn`, in its own process group, and
    wait for it. A child that outlives CHILD_TIMEOUT_S is killed with
    its whole group."""
    with tempfile.TemporaryFile(dir=BUILD) as out, \
            tempfile.TemporaryFile(dir=BUILD) as err:
        proc = subprocess.Popen([str(a) for a in [CPXPERF, "--spawn",
                                                  *argv]],
                                stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            proc.wait()
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        out.seek(0)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
        usage = re.search(r"\nrusage (\S+) (\S+) (\d+)\n\Z", stderr)
        user, system, maxrss_kb = usage.groups() if usage else (0, 0, 0)
        return Child(proc.returncode, out.read().decode(), stderr,
                     float(user) + float(system), int(maxrss_kb) / 1024.0)


def point_run(workload, seed, quick=False, threads=1,
              observers="default", spans=False):
    """One cpxperf repetition; its JSON line plus cpu_s and peak_rss_mb,
    or None if the child failed (crash, panic, failed verification)."""
    argv = [CPXPERF, f"--one={workload}", f"--seed={seed}",
            f"--threads={threads}", f"--observers={observers}"]
    if quick:
        argv.append(f"--scale={QUICK_SCALE}")
    if spans:
        argv.append("--spans")
    child = spawn(argv)
    if child.rc != 0:
        log(f"cpxperf {workload} seed {seed} W={threads} observers="
            f"{observers} failed (exit {child.rc}): {child.err[-800:]}")
        return None
    result = json.loads(child.out.splitlines()[-1])
    result["cpu_s"] = child.cpu_s
    result["peak_rss_mb"] = child.peak_rss_mb
    return result


def sweep_run(seed, isolate="process"):
    """The smoke grid through cpxbench, then its --check-json validation
    (and, at seed 1, the committed baseline gate)."""
    results = BUILD / "perf_sweep.json"
    results.unlink(missing_ok=True)
    t0 = time.monotonic()
    run = spawn([CPXBENCH, "--smoke", f"--jobs={SWEEP_JOBS}",
                 f"--isolate={isolate}", f"--seed={seed}",
                 f"--json={results}"])
    t1 = time.monotonic()
    check = [CPXBENCH, f"--check-json={results}"]
    if seed == 1:
        check.append(f"--baseline={BASELINE}")
    checked = spawn(check)
    t2 = time.monotonic()

    try:
        written = json.loads(results.read_text())
        points, pool_s = written["points"], written["hostSeconds"]
    except (OSError, ValueError, KeyError):
        points, pool_s = [], 0.0
    attempted = len(points) or 1
    failed = sum(1 for p in points
                 if p.get("status") != "ok" or not p.get("verified"))
    # Exit 3 means "completed, some points failed": those are counted
    # above. Anything else non-zero lost the whole sweep, and a sweep
    # without results counts as one failed operation.
    if run.rc not in (0, 3) or not points:
        failed = attempted
    if checked.rc != 0:
        drifted = re.search(r"(\d+) point\(s\) drifted", checked.err)
        failed = max(failed, int(drifted.group(1)) if drifted
                     else attempted)
        log(f"cpxbench --check-json failed: {checked.err[-800:]}")
    # The check stays out of peak_rss_mb: at seed 1 its baseline
    # comparison alone outgrows the whole sweep. setup_s is the sweep's
    # time outside its point pool, whose wall time cpxbench itself
    # reports as hostSeconds.
    return {"wall_s": t2 - t0, "cpu_s": run.cpu_s + checked.cpu_s,
            "setup_s": t1 - t0 - pool_s,
            "peak_rss_mb": run.peak_rss_mb,
            "sweep_s": t1 - t0, "check_s": t2 - t1,
            "attempted": attempted, "failed": failed, "points": points}


# --- correctness -------------------------------------------------------------

EXPECTED_DATA = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
PINNED = ("digest", "execTime", "eventsExecuted")


def sim_seed(workload, seed, i):
    """The seed repetition @i of a run at --seed @seed simulates."""
    cycle = SEED_CYCLE.get(workload)
    return cycle[(seed + i) % len(cycle)] if cycle else seed


def expected_for(workload, seed, quick):
    pins = EXPECTED_DATA.get("quick" if quick else "full", {}) \
        .get(workload, {})
    return pins.get(str(seed), pins.get("any"))


def pinned_ok(result, workload, seed, quick):
    exp = expected_for(workload, seed, quick)
    if exp is None:
        log(f"{workload} seed {seed}: perf/expected.json pins nothing")
        return False
    bad = [k for k in PINNED if result[k] != exp[k]]
    if bad:
        log(f"{workload} seed {seed}: {', '.join(bad)} differ from "
            f"perf/expected.json")
    return not bad


class Tally:
    """Samples of every metric of one workload, and its operations."""

    def __init__(self, seed):
        self.seed = seed
        self.ops = 0
        self.values = defaultdict(list)
        self.attempted = 0
        self.failed = 0

    def add(self, metrics):
        for name, value in metrics.items():
            self.values[name].append(value)


def one_op(workload, quick, tally):
    """One timed repetition of @workload, added to @tally."""
    i = tally.ops
    tally.ops += 1
    if workload == "paper-sweep":
        sweep = sweep_run(tally.seed)
        tally.attempted += sweep["attempted"]
        tally.failed += sweep["failed"]
        if sweep["failed"] == 0:
            tally.add({name: sweep[name] for name in END_TO_END})
        return
    seed = sim_seed(workload, tally.seed, i)
    result = point_run(workload, seed, quick)
    tally.attempted += 1
    if result is None or not pinned_ok(result, workload, seed, quick):
        tally.failed += 1
    else:
        tally.add({name: result[name] for name in END_TO_END})


# --- statistics and reporting ------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_table(title, rows):
    print(title)
    print(f"  {'workload':<20} {'metric':<14} {'unit':<6} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>4}")
    for workload, name, unit, values in rows:
        q1, q2, q3 = quartiles(values)
        print(f"  {workload:<20} {name:<14} {unit:<6} {q2:>12.6g} "
              f"{q1:>12.6g} {q3:>12.6g} {len(values):>4}")


def e2e_rows(tallies):
    rows = []
    for workload, tally in tallies.items():
        for name, m in END_TO_END.items():
            if tally.values[name]:
                rows.append((workload, name, m["unit"], tally.values[name]))
        rate = tally.failed / max(tally.attempted, 1)
        rows.append((workload, "error_rate", "ratio", [rate]))
    return rows


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": bool(correct), "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics}})


# --- measured runs -----------------------------------------------------------

def measure(workload, seed, seconds, quick):
    """Repeat @workload for @seconds, then to the end of its seed
    cycle; print the medians as the result line."""
    tally = Tally(seed)
    cycle = len(SEED_CYCLE.get(workload, (seed,)))
    deadline = time.monotonic() + seconds
    while True:
        one_op(workload, quick, tally)
        if time.monotonic() >= deadline and tally.ops % cycle == 0:
            break
    print_table(f"{workload}, seed {seed}, {seconds:g} s",
                e2e_rows({workload: tally}))
    medians = {name: statistics.median(v)
               for name, v in tally.values.items()}
    correct = tally.failed == 0 and set(END_TO_END) <= set(medians)
    print(result_line(correct, tally.attempted, tally.failed, medians,
                      {n: m["unit"] for n, m in END_TO_END.items()}))
    return 0 if correct else 1


def run_sets(seed, quick, rounds, sets):
    """@sets sets of @rounds rounds, run interleaved: each round runs
    every workload once per set, alternating which set goes first, so
    that drift in the host's speed reaches every set alike."""
    results = [{w: Tally(seed) for w in WORKLOADS} for _ in range(sets)]
    for r in range(rounds):
        k = r % len(WORKLOADS)
        order = results if r % 2 == 0 else results[::-1]
        for workload in WORKLOADS[k:] + WORKLOADS[:k]:
            for tallies in order:
                one_op(workload, quick, tallies[workload])
    for i, tallies in enumerate(results):
        print_table(f"set {i + 1} of {sets}: {rounds} round(s), seed "
                    f"{seed}", e2e_rows(tallies))
    status = 0 if all(t.failed == 0 for s in results
                      for t in s.values()) else 1
    if sets < 2:
        return status
    print("set-to-set difference of the medians (|set n - set 1| / set 1)")
    first = results[0]
    for later in results[1:]:
        for workload in WORKLOADS:
            for name, m in END_TO_END.items():
                a = first[workload].values[name]
                b = later[workload].values[name]
                if not a or not b:
                    status = 1
                    print(f"  {workload:<20} {name:<12} no samples")
                    continue
                a, b = statistics.median(a), statistics.median(b)
                diff = abs(b - a) / a
                # A spread wider than the bound cannot tell a change
                # from noise: the pair is unresolved.
                verdict = "ok" if diff <= m["bound"] else "unresolved"
                status = status if diff <= m["bound"] else 1
                print(f"  {workload:<20} {name:<12} {diff:8.2%} bound "
                      f"{m['bound']:.0%}  {verdict}")
    return status


# --- traced run --------------------------------------------------------------

class Trace:
    """In-memory spans [name, start_ns, end_ns, parent] of this process
    and of the cpxperf children it adopts."""

    def __init__(self):
        self.spans = []
        self.open = -1

    @contextlib.contextmanager
    def span(self, name):
        i = len(self.spans)
        self.spans.append([name, time.monotonic_ns(), 0, self.open])
        self.open = i
        try:
            yield
        finally:
            self.spans[i][2] = time.monotonic_ns()
            self.open = self.spans[i][3]

    def adopt(self, child_spans):
        base = len(self.spans)
        for name, start, end, parent in child_spans:
            self.spans.append([name, start, end,
                               base + parent if parent >= 0 else self.open])

    def self_ns(self):
        """Each span's duration minus its children's durations."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def problems(self):
        """Spans with negative self time or escaping their parent."""
        bad = []
        for name, start, end, parent in self.spans:
            if parent >= 0 and not (self.spans[parent][1] <= start and
                                    end <= self.spans[parent][2]):
                bad.append(f"span '{name}' extends past its parent "
                           f"'{self.spans[parent][0]}'")
        for span, own in zip(self.spans, self.self_ns()):
            if own < 0:
                bad.append(f"span '{span[0]}' has negative self time")
        return bad

    def write_chrome(self, path):
        """Async begin/end pairs, one id per top-level span, so each
        tree nests on its own Perfetto track."""
        events = [{"ph": "M", "pid": 1, "name": "process_name",
                   "args": {"name": "cpx perf benchmark"}}]
        own = self.self_ns()
        root, depth, keyed = [], [], []
        for i, (name, start, end, parent) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
            depth.append(0 if parent < 0 else depth[parent] + 1)
            common = {"cat": "cpxperf", "name": name, "pid": 1, "tid": 1,
                      "id": str(root[i])}
            begin = dict(common, ph="b", ts=start / 1e3,
                         args={"parent": parent,
                               "self_ms": own[i] / 1e6})
            # At equal timestamps: ends before begins, inner ends
            # before outer ones, outer begins before inner ones.
            keyed.append(((start, 1, depth[i]), begin))
            keyed.append(((end, 0, -depth[i]), dict(common, ph="e",
                                                    ts=end / 1e3)))
        keyed.sort(key=lambda k: k[0])
        events += [event for _, event in keyed]
        path.write_text(json.dumps({"traceEvents": events}))


def ratio(num, den):
    return num / den if den else 0.0


def point_layers(r):
    """Per-layer metrics of one traced point run (cpxperf output)."""
    d, ph = r["dump"], r["phases"]
    events = r["eventsExecuted"]
    slc_reads = (d["node.slc.readHits"] + d["node.slc.readMissCold"] +
                 d["node.slc.readMissCoherence"] +
                 d["node.slc.readMissReplacement"])
    flc_reads = d["node.flc.readHits"] + d["node.flc.readMisses"]
    return {
        "core.ctor_s": ph["core.ctor"],
        "core.run_s": ph["core.run"],
        "core.ns_per_event": ph["core.run"] * 1e9 / events,
        "core.flush_s": ph["core.flush"],
        "core.collect_s": ph["core.collect"],
        "core.stats_dump_s": ph["core.stats_dump"],
        "core.slabs": r["slabRounds"],
        "core.events_per_slab": ratio(events, r["slabRounds"]),
        "core.cross_msgs": r["crossMessages"],
        "core.lookahead": r["lookahead"],
        "core.events": events,
        "core.sim_pclocks": r["execTime"],
        "sim.schedule_allocs": d["system.scheduleAllocs"],
        "sim.peak_pending": d["system.peakPendingEvents"],
        "net.messages": d["network.messages"],
        "net.bytes": d["network.bytes"],
        "mem.flc_hit_ratio": ratio(d["node.flc.readHits"], flc_reads),
        "mem.slc_hit_ratio": ratio(d["node.slc.readHits"], slc_reads),
        "mem.wc_combine_ratio": ratio(d["node.writeCache.combinedWrites"],
                                      d["proc.sharedWrites"]),
        "mem.bus_wait_ticks": d["node.bus.waitTicks"],
        "proto.read_requests": d["node.dir.readRequests"],
        "proto.ownership_requests": d["node.dir.ownershipRequests"],
        "proto.invalidations": d["node.dir.invalidationsSent"],
        "proto.updates_forwarded": d["node.dir.updatesForwarded"],
        "proto.prefetch_useful_ratio": ratio(d["node.prefetch.useful"],
                                             d["node.prefetch.issued"]),
        "proto.lock_queued_ratio": ratio(d["node.locks.queued"],
                                         d["node.locks.acquires"]),
        "proto.dir_overflow_broadcasts": d["node.dir.overflowBroadcasts"],
        "proto.read_miss_p50": r["readMissP50"],
        "proto.read_miss_p99": r["readMissP99"],
        "node.shared_accesses": (d["proc.sharedReads"] +
                                 d["proc.sharedWrites"]),
        "node.busy_frac": d["proc.busy"] / r["procTicks"],
        "node.read_stall_frac": d["proc.readStall"] / r["procTicks"],
        "node.acquire_stall_frac": d["proc.acquireStall"] / r["procTicks"],
        "workloads.setup_s": ph["workloads.setup"],
        "workloads.verify_s": ph["workloads.verify"],
    }


class TracedRun:
    def __init__(self, seed, quick):
        self.seed, self.quick = seed, quick
        self.trace = Trace()
        self.attempted = 0
        self.failed = 0
        self.shared = None
        self.sweep_points = []

    def point(self, workload, label, **kw):
        with self.trace.span(label):
            r = point_run(workload, sim_seed(workload, self.seed, 0),
                          self.quick, **kw)
            if r is not None and "spans" in r:
                self.trace.adopt(r.pop("spans"))
        self.attempted += 1
        self.failed += r is None
        return r

    def shared_layers(self):
        """Probes, the sweep and the observer suite: the same for every
        workload, so they run once per invocation."""
        if self.shared is not None:
            return self.shared
        m = {}
        with self.trace.span("probes"):
            child = spawn([CPXPERF, "--probes", "--spans"])
            self.attempted += 1
            if child.rc != 0:
                self.failed += 1
                log(f"cpxperf --probes failed: {child.err[-800:]}")
            else:
                probes = json.loads(child.out.splitlines()[-1])
                self.trace.adopt(probes["spans"])
                m.update(probes["probes"])
        m.update(self.bench_layers())
        m.update(self.observer_layers())
        self.shared = m
        return m

    def bench_layers(self):
        sweeps = {}
        for isolate in ("process", "none"):
            with self.trace.span(f"cpxbench --isolate={isolate}"):
                sweeps[isolate] = sweep_run(self.seed, isolate)
            self.attempted += sweeps[isolate]["attempted"]
            self.failed += sweeps[isolate]["failed"]
        sweep = sweeps["process"]
        self.sweep_points = sweep["points"]
        hosts = [p.get("hostSeconds", 0.0) for p in sweep["points"]] or [0]
        return {
            "bench.points": len(sweep["points"]),
            "bench.point_s_p50": statistics.median(hosts),
            "bench.point_s_max": max(hosts),
            "bench.overhead_frac":
                1 - sum(hosts) / (SWEEP_JOBS * sweep["sweep_s"]),
            "bench.check_json_s": sweep["check_s"],
            "bench.isolate_overhead":
                sweep["sweep_s"] / sweeps["none"]["sweep_s"],
        }

    def observer_layers(self):
        """observed-stress-64 with each observer alone, none and all."""
        workload = "observed-stress-64"
        with self.trace.span(f"{workload} observers"):
            obs = {s: self.point(workload, f"observers={s}", observers=s)
                   for s in OBSERVER_SETS}
        if any(r is None for r in obs.values()):
            return {}
        none = obs["none"]
        return {
            "obs.attrib_overhead": obs["attrib"]["wall_s"] / none["wall_s"],
            "obs.sampler_overhead":
                obs["sampler"]["wall_s"] / none["wall_s"],
            "obs.tracer_overhead": obs["tracer"]["wall_s"] / none["wall_s"],
            "check.checker_overhead":
                obs["checker"]["wall_s"] / none["wall_s"],
            "obs.attrib_aggregate_s":
                obs["attrib"]["phases"]["obs.attrib_aggregate"],
            "obs.rss_mb": obs["all"]["peak_rss_mb"] - none["peak_rss_mb"],
            "obs.neutral_fail": sum(
                obs[s]["digest"] != none["digest"]
                for s in ("attrib", "sampler", "tracer", "checker")),
        }

    def matches_sweep(self, r):
        """cpxperf's paper-sweep is the sweep's fig2 grid replayed in
        one process: its totals must equal those fig2 points'."""
        fig2 = [p for p in self.sweep_points if p["tag"].startswith("fig2/")]
        same = bool(fig2) and \
            r["execTime"] == sum(p["execTime"] for p in fig2) and \
            r["eventsExecuted"] == sum(p["kernel"]["eventsExecuted"]
                                       for p in fig2)
        if not same:
            log("paper-sweep: cpxperf's fig2 points differ from the "
                "sweep's")
        return same

    def workload(self, workload):
        """Every per-layer metric of @workload."""
        w4_observers = W4_OBSERVERS.get(workload, "default")
        with self.trace.span(workload):
            base = self.point(workload, "W=1 traced", spans=True)
            untraced = self.point(workload, "W=1")
            w4 = [self.point(workload, "W=4", threads=4,
                             observers=w4_observers)
                  for _ in range(W4_REPS)]
        m = dict(self.shared_layers())
        if any(r is None for r in [base, untraced, *w4]):
            return m
        if workload == "paper-sweep":
            self.failed += not self.matches_sweep(base)
        elif not pinned_ok(base, workload,
                           sim_seed(workload, self.seed, 0), self.quick):
            self.failed += 1
        if any(r["digest"] != base["digest"] for r in [untraced, *w4]):
            log(f"{workload}: W=1 and W=4 digests differ")
            self.failed += 1
        m.update(point_layers(base))
        w4_run = [r["phases"]["core.run"] for r in w4]
        m.update({
            "core.w4_run_s_p50": statistics.median(w4_run),
            "core.w4_run_s_min": min(w4_run),
            "core.w4_run_s_max": max(w4_run),
            "core.w4_speedup": (base["phases"]["core.run"] /
                                statistics.median(w4_run)),
            "trace.overhead": base["wall_s"] / untraced["wall_s"],
        })
        return m

    def finish(self):
        """Write and validate the Chrome trace; False if it is bad."""
        self.trace.write_chrome(TRACE_FILE)
        bad = self.trace.problems()
        check = spawn([CPXBENCH, f"--check-trace={TRACE_FILE}"])
        if check.rc != 0:
            bad.append(check.err.strip())
        for line in bad:
            log(f"trace: {line}")
        return not bad


def traced(workloads, seed, quick):
    run = TracedRun(seed, quick)
    per_workload = {w: run.workload(w) for w in workloads}
    if not run.finish():
        return 1
    units = {n: m["unit"] for n, m in PER_LAYER.items()}
    print(f"per-layer metrics, seed {seed} (trace: {TRACE_FILE})")
    for name, unit in units.items():
        values = "  ".join(f"{w}={per_workload[w].get(name, float('nan')):.6g}"
                           for w in workloads)
        print(f"  {name:<30} {unit:<6} {values}")
    missing = [n for w in workloads for n in units
               if n not in per_workload[w]]
    correct = run.failed == 0 and not missing
    if len(workloads) == 1:
        print(result_line(correct, run.attempted, run.failed,
                          per_workload[workloads[0]], units))
    return 0 if correct else 1


# --- expected digests ------------------------------------------------------

def write_expected():
    """Pin every point workload at both sizes: each seed of its cycle,
    or, for a workload whose input ignores the seed, one entry checked
    at seeds 1 and 2. Every pin is checked against a W=4 run."""
    data = {}
    for size, quick in (("full", False), ("quick", True)):
        data[size] = {}
        for workload in POINT_WORKLOADS:
            pins = {}
            for seed in SEED_CYCLE.get(workload, (1, 2)):
                r = point_run(workload, seed, quick)
                w4 = point_run(workload, seed, quick, threads=4,
                               observers=W4_OBSERVERS.get(workload,
                                                          "default"))
                if r is None or w4 is None or w4["digest"] != r["digest"]:
                    log(f"{workload} seed {seed}: not verified or W=1/W=4 "
                        f"digests differ; expected.json not written")
                    return 1
                pins[str(seed)] = {k: r[k] for k in PINNED}
            if workload not in SEED_CYCLE:
                if pins["1"] != pins["2"]:
                    log(f"{workload}: seeds 1 and 2 differ; "
                        f"expected.json not written")
                    return 1
                pins = {"any": pins["1"]}
            data[size][workload] = pins
    EXPECTED.write_text(json.dumps(data, indent=2) + "\n")
    log(f"wrote {EXPECTED}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.sets < 1 or args.seconds <= 0:
        ap.error("--seed must be >= 0, --sets >= 1, --seconds > 0")

    if args.write_expected:
        return write_expected()
    if args.trace:
        return traced([args.workload] if args.workload else WORKLOADS,
                      args.seed, args.quick)
    if args.workload:
        return measure(args.workload, args.seed, args.seconds, args.quick)
    return run_sets(args.seed, args.quick,
                    1 if args.quick else ROUNDS_PER_SET, args.sets)


if __name__ == "__main__":
    sys.exit(main())
