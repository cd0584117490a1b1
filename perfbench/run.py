"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_check --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; extra
deployments are set up between the window's rounds (see
``SETUP_BUDGET_S``) and the median set-up time reported.  Set-up
times, and every timing of a host-scaled workload (``paper_check``,
``sharded_2pc``), are scaled to the reference speed sampled around
them (see ``loadgen.HostProbe``).  Metric names and units come from
``BENCHMARK.json``.
``--trace 1`` measures the per-layer metrics instead: half the window
runs untraced, then a fresh deployment runs the other half with every
traced entry point wrapped (see ``layers.py``); the ratio of the two
median commit latencies is the tracing overhead.  Either way the run
checks every verdict and the final state, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans of a traced run are written to
``.perfbench_out/``; working state lives in ``.perfbench_work/`` and is
removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: an end-to-end run sets up once before the window and once more
#: after each round until its set-ups have taken this long, so the
#: median set-up time samples the machine across the run, and cheap
#: set-ups are sampled more often than costly ones
SETUP_BUDGET_S = 5.0
#: a window is measured in rounds; each end-to-end metric is the mean of
#: its per-round values (each a median over the round's operations): a
#: stall barely moves its round's median, and the mean averages the
#: machine's slow and fast stretches, which a median over rounds would
#: jump between
ROUNDS = 15
WORKLOAD_NAMES = ("paper_check", "remote_mixed", "sharded_2pc")


def metric_units(section: str) -> dict:
    """Metric name -> unit of one section of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def workload_class(name: str):
    from perfbench.paper_check import PaperCheck
    from perfbench.remote_mixed import RemoteMixed
    from perfbench.sharded_2pc import Sharded2PC

    return {w.name: w for w in (PaperCheck, RemoteMixed, Sharded2PC)}[name]


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (the
    shard workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def add_counters(total: dict, after: dict, before: dict) -> None:
    """Add, per block, what each counter grew by from ``before`` to
    ``after``; high-water marks (``max_*``) keep the largest value."""
    for block, fields in after.items():
        into = total.setdefault(block, {})
        for name, value in fields.items():
            if name.startswith("max_"):
                into[name] = max(into.get(name, 0), value)
            else:
                into[name] = into.get(name, 0) + value - before[block].get(name, 0)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def stop_children() -> None:
    """Stop and reap every process this run started: any worker still
    alive, then multiprocessing's resource tracker, which spawned
    workers start and which would otherwise outlive the run."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


#: reference units timed right before and right after each set-up
SETUP_PROBES = 25


def timed_setup(workload, setups: list, scales: list):
    """Set up one deployment; record its wall time and the factor
    taking it to the reference speed, sampled around it."""
    from perfbench.loadgen import HostProbe

    probe = HostProbe()
    for _ in range(SETUP_PROBES):
        probe()
    start = time.perf_counter()
    dep = workload.setup()
    setups.append(time.perf_counter() - start)
    for _ in range(SETUP_PROBES):
        probe()
    scales.append(probe.scale())
    return dep


class Round:
    """One round of a window: the loop plus the reads verifying it."""

    def __init__(self, loop, reads: list[float], checks: int, wrong: int, probe=None):
        self.loop = loop
        self.reads = reads
        self.checks = checks
        self.wrong = wrong
        self.commits = [r.latency for r in loop.records if r.kind == "commit"]
        #: factor taking this round's timings to the reference speed
        #: (1 on a workload that is not host-scaled)
        self.scale = probe.scale() if probe is not None else 1.0


class Window:
    """A measured window on one deployment, split into rounds: the
    loops, their counter deltas and every check."""

    def __init__(
        self, workload, dep, seconds: float, rounds: int,
        recorder=None, tally=None, between_rounds=lambda: None,
    ):
        from perfbench import layers
        from perfbench.loadgen import HostProbe

        workload.connect(dep)
        gc.collect()
        ops = workload.inputs(dep)
        self.counters: dict = {}
        self.rounds: list[Round] = []
        first = 0
        for done in range(rounds):
            if done:
                between_rounds()
            before = workload.counters(dep)
            probe = HostProbe() if workload.host_scaled else None
            extra = {"probe": probe} if probe is not None else {}
            if recorder is not None:
                layers.install(recorder, tally)
            try:
                loop = workload.run(dep, ops, first, seconds / rounds, recorder, **extra)
            finally:
                if recorder is not None:
                    recorder.restore()
            add_counters(self.counters, workload.counters(dep), before)
            checked = workload.verify(dep, ops, loop, **extra)
            self.rounds.append(Round(loop, *checked, probe=probe))
            if loop.records:
                first = loop.records[-1].index + 1
        loops = [r.loop for r in self.rounds]
        self.outcome = workload.finish(dep, ops, loops)
        records = [rec for loop in loops for rec in loop.records]
        self.commits = [r.latency for r in records if r.kind == "commit"]
        self.records = records
        # an operation that raised is wrong too: its outcome is unknown
        self.wrong = sum(1 for r in records if not r.ok) + sum(r.wrong for r in self.rounds)
        self.errors = sorted({r.error for r in records if r.error is not None})
        self.attempted = len(records) + sum(r.checks for r in self.rounds) + self.outcome["checks"]
        self.failed = self.wrong + self.outcome["failed_checks"]

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.outcome["problems"]


def end_to_end(workload) -> tuple[dict, list[Window], dict]:
    """Measure one deployment in ``ROUNDS`` rounds, set up and discard
    others between rounds, and report each metric as its mean over
    the rounds (set-up time: the median of the set-ups)."""
    from perfbench.stats import summarize

    setups: list[float] = []
    scales: list[float] = []

    def between_rounds() -> None:
        if sum(setups) < SETUP_BUDGET_S:
            workload.discard(timed_setup(workload, setups, scales))
            # free the discarded deployment now, not inside a round
            gc.collect()

    dep = timed_setup(workload, setups, scales)
    window = Window(workload, dep, workload.seconds, ROUNDS, between_rounds=between_rounds)
    per_round = []
    for rnd in window.rounds:
        commit, read = summarize(rnd.commits), summarize(rnd.reads)
        ms = 1e3 * rnd.scale
        if workload.loop == "closed":
            # the client's time in the engine: the probes between
            # operations left out, scaled like the latencies
            busy = sum(r.end - r.start for r in rnd.loop.records)
            rate = len(rnd.commits) / busy / rnd.scale
        else:
            # the achieved rate of a fixed schedule
            rate = len(rnd.commits) / rnd.loop.elapsed
        per_round.append(
            {
                "commit_p50_ms": ms * commit["p50"],
                "commit_p99_ms": ms * commit["p99"],
                "commits_per_s": rate,
                "read_p50_ms": ms * read["p50"],
                "read_p99_ms": ms * read["p99"],
                "host_scale": rnd.scale,
                "commit_count": commit["count"],
                "commit_tail_percentile": commit["tail_q"],
                "read_count": read["count"],
                "read_tail_percentile": read["tail_q"],
            }
        )
    values = {
        name: statistics.fmean(r[name] for r in per_round)
        for name in ("commit_p50_ms", "commits_per_s", "read_p50_ms")
    }
    values["setup_s"] = statistics.median(t * k for t, k in zip(setups, scales))
    values["peak_rss_mb"] = peak_rss_mb()
    details = {
        "rounds": per_round,
        "setup_s_each": setups,
        "setup_host_scale_each": scales,
        "failed_ratio": ratio(window.failed, window.attempted),
        "read_kind": window.outcome["read_kind"],
        "recovery_s": window.outcome.get("recovery_s"),
        "wal_bytes_per_commit": window.outcome.get("wal_bytes_per_commit"),
    }
    return values, [window], details


def per_layer(workload, seed: int) -> tuple[dict, list[Window], dict]:
    from perfbench import layers
    from perfbench.stats import STATS, summarize
    from perfbench.tracing import SpanRecorder

    half = workload.seconds / 2
    plain = Window(workload, workload.setup(), half, ROUNDS)
    recorder, tally = SpanRecorder(), layers.CheckTally()
    traced = Window(workload, workload.setup(), half, ROUNDS, recorder, tally)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    recorder.dump(os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.jsonl"))

    values, path_ms, unattributed_ms = layers.timing_metrics(recorder)
    late = summarize([1e3 * r.late for r in traced.records])
    values.update({f"loadgen.late_ms.{stat}": late[stat] for stat in STATS})
    commit_tail = summarize(plain.commits)
    read_tail = summarize([t for rnd in plain.rounds for t in rnd.reads])
    values["loadgen.commit_p99_ms"] = 1e3 * commit_tail["p99"]
    values["loadgen.read_p99_ms"] = 1e3 * read_tail["p99"]
    traced_p50 = 1e3 * summarize(traced.commits)["p50"]
    plain_p50 = 1e3 * summarize(plain.commits)["p50"]
    values["trace.overhead_ratio"] = traced_p50 / plain_p50
    values["trace.path_coverage"] = path_ms / traced_p50
    values["trace.unattributed_ms"] = unattributed_ms
    values["loadgen.failed_ratio"] = ratio(
        plain.failed + traced.failed, plain.attempted + traced.attempted
    )
    counters = traced.counters
    cache = counters.get("plan_cache", {})
    values["minidb.plan_cache_hit_ratio"] = ratio(
        cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)
    )
    values["minidb.plan_cache_evictions"] = cache.get("evictions", 0)
    values["minidb.dml_ast_hit_ratio"] = ratio(
        cache.get("dml_ast_hits", 0),
        cache.get("dml_ast_hits", 0) + cache.get("dml_ast_misses", 0),
    )
    values["core.views_checked_per_commit"] = ratio(tally.checked, len(traced.commits))
    values["core.view_skip_ratio"] = ratio(tally.skipped, tally.checked + tally.skipped)
    sched = counters.get("scheduler", {})
    values["server.group_fast_path_ratio"] = ratio(
        sched.get("group_fast_path", 0), sched.get("commits", 0)
    )
    values["server.mean_group_size"] = ratio(sched.get("commits", 0), sched.get("batches", 0))
    values["server.fallbacks"] = sched.get("fallbacks", 0)
    values["durability.fsyncs_per_commit"] = ratio(
        sched.get("wal_fsyncs", 0), sched.get("commits", 0)
    )
    values["durability.windows_per_flush"] = ratio(
        sched.get("writer_windows", 0), sched.get("writer_flushes", 0)
    )
    outcome = traced.outcome
    values["durability.wal_bytes_per_commit"] = outcome.get("wal_bytes_per_commit", 0.0)
    values["durability.recovery_s"] = outcome.get("recovery_s", 0.0)
    values["durability.replay_records"] = outcome.get("replay_records", 0)
    admission = counters.get("admission", {})
    values["net.shed"] = admission.get("shed_total", 0)
    values["net.max_depth_seen"] = admission.get("max_depth_seen", 0)
    router = counters.get("router", {})
    values["shard.cross_shard_ratio"] = ratio(
        router.get("cross_shard", 0),
        router.get("cross_shard", 0) + router.get("single_shard", 0),
    )
    values["shard.prepares"] = router.get("prepares", 0)
    values["shard.aborts"] = router.get("aborts", 0)
    details = {
        "traced_commit_p50_ms": traced_p50,
        "untraced_commit_p50_ms": plain_p50,
        "blocking_path_sum_ms": path_ms,
        "unattributed_ms": unattributed_ms,
        "spans": len(recorder.spans),
        "commit_tail_percentile": commit_tail["tail_q"],
        "read_tail_percentile": read_tail["tail_q"],
        "window_s_each": half,
    }
    return values, [plain, traced], details


def main(argv=None) -> int:
    # a run stopped from outside still takes the cleanup path
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no engine sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workload_class(args.workload)(args.seed, args.seconds, workdir)
        if args.trace:
            values, windows, details = per_layer(workload, args.seed)
            units = metric_units("per_layer")
        else:
            values, windows, details = end_to_end(workload)
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass

    if set(values) != set(units):
        raise RuntimeError(f"metrics without a unit or value: {set(values) ^ set(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    outcome = windows[-1].outcome
    env = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "seed": args.seed,
        "loop": workload.loop,
        "offered_rate_per_s": workload.rate,
        "window_s": args.seconds,
        "rounds": ROUNDS,
        "sizes": outcome["sizes"],
        "flush_policy": workload.durability,
    }
    for window in windows:
        for problem in window.outcome["problems"]:
            print(f"CHECK FAILED: {problem}")
        if window.wrong:
            print(f"CHECK FAILED: {window.wrong} operation(s) got the wrong verdict or rows")
        for error in window.errors[:5]:
            print(f"ERROR: {error}")
    for name, metric in metrics.items():
        print(f"{args.workload:>13} {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"workload": args.workload, "env": env, "details": details,
                      "audit": outcome.get("audit")}))
    print(
        json.dumps(
            {
                "correct": all(w.correct for w in windows),
                "attempted": sum(w.attempted for w in windows),
                "failed": sum(w.failed for w in windows),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
