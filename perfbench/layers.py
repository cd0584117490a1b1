"""Which entry points the traced run wraps, and the per-layer metrics
computed from the resulting spans.

Layers are the ``repro`` packages.  Each wrapped public entry point
gives one span name; a span's self time is its duration minus the
wrapped calls beneath it, so the self times of one operation's tree
add up to that operation's duration.  The part no wrapped call covers
is the self time of the operation's root span (the generator's
lateness and glue), reported apart as ``trace.unattributed_ms``.
Spawned shard workers run in other processes, which no wrapper
reaches: on ``sharded_2pc`` the numbers are router-side only.
"""

from __future__ import annotations

import re
from collections import defaultdict

from .stats import STATS, summarize
from .tracing import SpanRecorder, layer_times, op_trees

#: load-generator operation roots
COMMIT_OP = "loadgen.commit"
READ_OP = "loadgen.read"

_FIRST_INT = re.compile(r"\d+")


def _sql_key(position: int):
    """Key of a SQL-text call: the first integer literal of the text
    (every workload puts its operation's id first)."""

    def key(args, kwargs, result):
        match = _FIRST_INT.search(args[position])
        return int(match.group()) if match else None

    return key


def _resolved_key(args, kwargs, result):
    return result[1][0][0]


def _events_key(args, kwargs, result):
    for rows in args[1].values():
        if rows:
            return rows[0][0]
    return None


class CheckTally:
    """Views checked and skipped, summed over ``check_only`` returns."""

    def __init__(self):
        self.checked = self.skipped = 0

    def add(self, result) -> None:
        _, checked, skipped = result
        self.checked += checked
        self.skipped += skipped


def install(recorder: SpanRecorder, tally: CheckTally) -> None:
    """Wrap every traced entry point (undo with ``recorder.restore``)."""
    from repro.core.safe_commit import SafeCommit
    from repro.core.tintin import Tintin
    from repro.durability.manager import DurabilityManager
    from repro.minidb import database
    from repro.minidb.database import Database
    from repro.net.admission import AdmissionQueue
    from repro.net.client import TintinClient
    from repro.server.scheduler import CommitScheduler
    from repro.shard.router import ShardedTintin, ShardHandle

    wrap = recorder.wrap
    # the parser as minidb calls it (minidb imports the function)
    wrap(database, "parse_statement", "sqlparser.parse", key=_sql_key(0))
    wrap(Database, "execute", "minidb.execute", key=_sql_key(1))
    wrap(Database, "resolve_insert_rows", "minidb.resolve", key=_resolved_key)
    wrap(Database, "resolve_delete_rows", "minidb.resolve")
    wrap(Database, "query", "minidb.query", key=_sql_key(1))
    wrap(Database, "apply_batch", "minidb.apply")

    def check_key(args, kwargs, result):
        # the key hook is the one place that sees the return value:
        # tally it, and let the span inherit its parent's key
        tally.add(result)
        return None

    wrap(SafeCommit, "check_only", "core.check", key=check_key)
    wrap(SafeCommit, "note_applied", "core.note_applied")
    wrap(Tintin, "safe_commit", "core.safe_commit")
    wrap(CommitScheduler, "commit_events", "server.commit", key=_events_key)
    wrap(DurabilityManager, "append_batch", "durability.append")
    wrap(DurabilityManager, "sync", "durability.sync")
    wrap(TintinClient, "execute", "net.client_execute")
    wrap(TintinClient, "commit", "net.client_commit")
    wrap(TintinClient, "query", "net.client_query")
    wrap(ShardedTintin, "commit_events", "shard.router_commit")
    wrap(ShardHandle, "call", lambda args: f"shard.call.{args[1]}")

    # admission: a span from submit() to the end of its work item,
    # whose self time is the wait before the work started
    submit = AdmissionQueue.submit

    def traced_submit(self, fn, on_done, *args, **kwargs):
        submitted = recorder.clock()

        def work():
            return recorder.call("net.admission", fn, start=submitted)

        return submit(self, work, on_done, *args, **kwargs)

    recorder.patch(AdmissionQueue, "submit", traced_submit)


#: per-layer timing metrics: name -> (span name, "self" or "total")
TIMED = {
    "sqlparser.parse_ms": ("sqlparser.parse", "self"),
    "minidb.execute_ms": ("minidb.execute", "self"),
    "minidb.resolve_ms": ("minidb.resolve", "self"),
    "minidb.query_ms": ("minidb.query", "self"),
    "minidb.apply_ms": ("minidb.apply", "self"),
    "core.check_ms": ("core.check", "self"),
    "core.note_applied_ms": ("core.note_applied", "self"),
    "core.safe_commit_ms": ("core.safe_commit", "total"),
    "server.commit_ms": ("server.commit", "total"),
    "server.wait_ms": ("server.commit", "self"),
    "durability.append_ms": ("durability.append", "self"),
    "durability.sync_ms": ("durability.sync", "self"),
    "net.client_commit_ms": ("net.client_commit", "total"),
    "net.client_query_ms": ("net.client_query", "total"),
    "net.admission_wait_ms": ("net.admission", "self"),
    "shard.router_commit_ms": ("shard.router_commit", "total"),
    "shard.call_ms.commit": ("shard.call.commit", "self"),
    "shard.call_ms.prepare": ("shard.call.prepare", "self"),
    "shard.call_ms.decide": ("shard.call.decide", "self"),
}

#: client round trip minus the wrapped server-side spans beneath it
NET_SPANS = ("net.client_execute", "net.client_commit", "net.client_query")

#: calls per operation, by span name
CALLS = {
    "sqlparser.parse_calls": "sqlparser.parse",
    "minidb.resolve_calls": "minidb.resolve",
    "minidb.query_calls": "minidb.query",
    "minidb.apply_calls": "minidb.apply",
    "core.check_calls": "core.check",
    "durability.append_calls": "durability.append",
    "durability.sync_calls": "durability.sync",
    "shard.call_calls": "shard.call.",
}

def timing_metrics(recorder: SpanRecorder) -> tuple[dict, float, float]:
    """Per-layer timing metrics (ms) from the recorded spans.

    Each layer is described over the operations (commits and reads)
    in which it ran: mean, p50 and p99 of its time per operation.
    Also returns the breakdown of a median commit, in ms: over the
    commits whose latency lies between the 40th and 60th percentile,
    the sum of every wrapped span name's mean self time (the blocking
    path) and, apart, the mean self time of the operation root, which
    that sum leaves out.  Operation roots start when the operation was
    due, so the root's self time holds the generator's lateness."""
    ops = op_trees(recorder.spans, {COMMIT_OP, READ_OP})
    per_metric: dict = defaultdict(list)
    calls: dict = defaultdict(int)
    commit_selfs: list[tuple[float, dict]] = []
    overhead: dict = {COMMIT_OP: [], READ_OP: []}
    for op in ops:
        selfs, totals, counts = layer_times(op)
        for metric, (name, mode) in TIMED.items():
            if counts.get(name):
                source = selfs if mode == "self" else totals
                per_metric[metric].append(1e3 * source[name])
        if any(counts.get(name) for name in NET_SPANS):
            overhead[op.name].append(
                1e3 * sum(selfs.get(name, 0.0) for name in NET_SPANS)
            )
        for name, count in counts.items():
            calls[name] += count
        if op.name == COMMIT_OP:
            commit_selfs.append((op.end - op.start, selfs))
    metrics: dict = {}
    described = {metric: per_metric[metric] for metric in TIMED}
    for label, op_name in (("commit", COMMIT_OP), ("read", READ_OP)):
        described[f"net.{label}_overhead_ms"] = overhead[op_name]
    for metric, values in described.items():
        summary = summarize(values)
        for stat in STATS:
            metrics[f"{metric}.{stat}"] = summary[stat]
    n_ops = max(1, len(ops))
    for metric, prefix in CALLS.items():
        total = sum(c for name, c in calls.items() if name.startswith(prefix))
        metrics[metric] = total / n_ops
    commit_selfs.sort(key=lambda commit: commit[0])
    low, high = int(0.4 * len(commit_selfs)), int(0.6 * len(commit_selfs))
    band = [selfs for _, selfs in commit_selfs[low : max(high, low + 1)]]
    if not band:
        return metrics, 0.0, 0.0

    def mean_self(name: str) -> float:
        return 1e3 * sum(selfs.get(name, 0.0) for selfs in band) / len(band)

    names = {name for selfs in band for name in selfs} - {COMMIT_OP}
    return metrics, sum(mean_self(name) for name in names), mean_self(COMMIT_OP)
