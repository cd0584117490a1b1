"""``remote_mixed``: the network deployment.

Two ``TintinClient`` connections to a loopback ``TintinServer`` over
``Tintin.open(dir, durability="batch")`` (group commit; every ack
waits for its fsync).  An open loop at a fixed rate: half the
operations are point reads of preloaded rows, half are one-row SQL
inserts plus commit under six light assertions (one FK-shaped, five
bounds); every tenth insert is planted to violate one of them.  The
read texts name thousands of distinct keys, more than the 256-entry
plan cache holds.

The run ends by closing the clients, then ``server.abort()``: no drain,
no final checkpoint.  Copies of the crashed directory are reopened with
``Tintin.open``; the median reopen time is the recovery time, and the
recovered rows are audited against the acknowledged commits.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field

from .loadgen import open_loop, verdict_ok

DURABILITY = "batch"
RATE = 100.0
CLIENTS = 2
PRELOAD = 5000
BUCKETS = 64
#: written ids start here, far above the preloaded ones
WRITE_BASE = 1_000_000
RECOVERY_REPEATS = 5

DDL = (
    "CREATE TABLE buckets (id INTEGER PRIMARY KEY, label TEXT)",
    "CREATE TABLE entries (id INTEGER PRIMARY KEY, bucket INTEGER NOT NULL, "
    "qty INTEGER NOT NULL)",
)
ASSERTIONS = (
    "CREATE ASSERTION entryHasBucket CHECK (NOT EXISTS ("
    "SELECT * FROM entries AS e WHERE NOT EXISTS ("
    "SELECT * FROM buckets AS b WHERE b.id = e.bucket)))",
) + tuple(
    f"CREATE ASSERTION qtyBound{k} CHECK (NOT EXISTS ("
    f"SELECT * FROM entries AS e WHERE e.qty < {-(k + 1)}))"
    for k in range(5)
)


@dataclass
class Op:
    kind: str  # "read" or "commit"
    key: int
    text: str
    expect: object  # the row a read returns, or a commit's verdict
    #: the assertion a planted commit must be rejected for
    violates: str | None = None


@dataclass
class Deployment:
    directory: str
    tintin: object
    server: object
    preload: dict
    wal_before: int = 0
    clients: list = field(default_factory=list)


def wal_bytes(directory: str) -> int:
    """Bytes in every write-ahead log file under ``directory``."""
    total = 0
    for root, _, files in os.walk(directory):
        for name in files:
            if name == "wal.log" or name.endswith(".wal"):
                total += os.path.getsize(os.path.join(root, name))
    return total


class RemoteMixed:
    name = "remote_mixed"
    loop = "open"
    rate = RATE
    durability = DURABILITY
    host_scaled = False

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self._setups = 0

    def setup(self) -> Deployment:
        from repro import Database, Tintin

        self._setups += 1
        directory = os.path.join(self.workdir, f"remote-{self._setups}")
        rng = random.Random(self.seed)
        preload = {
            i: (i, rng.randrange(BUCKETS), rng.randrange(0, 100))
            for i in range(PRELOAD)
        }
        db = Database("remote_mixed")
        for ddl in DDL:
            db.execute(ddl)
        db.insert_rows(
            "buckets", [(b, f"bucket-{b}") for b in range(BUCKETS)], bypass_triggers=True
        )
        db.insert_rows("entries", list(preload.values()), bypass_triggers=True)
        tintin = Tintin.open(directory, durability=DURABILITY, db=db)
        tintin.install()
        for sql in ASSERTIONS:
            tintin.add_assertion(sql)
        server = tintin.listen(port=0, sweep_interval=None)
        return Deployment(directory, tintin, server, preload, wal_bytes(directory))

    def connect(self, dep: Deployment) -> None:
        from repro.net import TintinClient

        dep.clients = [
            TintinClient(*dep.server.address, timeout=30, client_name=f"perfbench-{i}")
            for i in range(CLIENTS)
        ]

    def discard(self, dep: Deployment) -> None:
        for client in dep.clients:
            client.close()
        dep.server.shutdown()
        shutil.rmtree(dep.directory, ignore_errors=True)

    def inputs(self, dep: Deployment) -> list[Op]:
        rng = random.Random(self.seed + 1)
        total = int(RATE * self.seconds)
        kinds = ["read"] * (total // 2) + ["commit"] * (total - total // 2)
        rng.shuffle(kinds)
        ops, writes = [], 0
        for kind in kinds:
            if kind == "read":
                key = rng.randrange(PRELOAD)
                ops.append(
                    Op(
                        "read",
                        key,
                        f"SELECT id, bucket, qty FROM entries WHERE id = {key}",
                        dep.preload[key],
                    )
                )
                continue
            key = WRITE_BASE + writes
            bucket, qty, violates = rng.randrange(BUCKETS), rng.randrange(100), None
            if writes % 10 == 9:
                # planted: a missing bucket or a quantity below every bound
                if writes % 20 == 9:
                    bucket, violates = BUCKETS + rng.randrange(1000), "entryHasBucket"
                else:
                    qty, violates = -100, "qtyBound0"
            writes += 1
            text = f"INSERT INTO entries VALUES ({key}, {bucket}, {qty})"
            ops.append(Op("commit", key, text, violates is None, violates))
        return ops

    def run(self, dep: Deployment, ops: list[Op], first: int, seconds: float, recorder=None):
        def run_one(client, op: Op):
            if op.kind == "read":
                return [tuple(row) for row in client.query(op.text)] == [op.expect], None
            client.execute(op.text)
            verdict = client.commit(retry=False)
            committed = verdict["committed"]
            if not committed:
                client.discard()
            ok = verdict_ok(
                committed,
                op.expect,
                verdict.get("violations", ()),
                verdict.get("constraint_error"),
                op.violates,
            )
            return ok, committed

        def run_op(client_id, index, op, due):
            client = dep.clients[client_id]
            if recorder is None:
                return run_one(client, op)
            with recorder.span(f"loadgen.{op.kind}", op.key, start=due):
                return run_one(client, op)

        return open_loop(
            ops, run_op, RATE, CLIENTS, first, round(RATE * seconds), kind_of=lambda op: op.kind
        )

    def verify(self, dep: Deployment, ops: list[Op], loop) -> tuple[list[float], int, int]:
        """The reads are part of the loop, each checked against the row
        the benchmark preloaded."""
        return [r.latency for r in loop.records if r.kind == "read"], 0, 0

    def finish(self, dep: Deployment, ops: list[Op], loops: list) -> dict:
        """Crash, reopen copies of the crashed directory, audit."""
        from repro import Tintin

        # close the clients first: this run ends, it does not test abort
        for client in dep.clients:
            client.close()
        dep.server.abort()
        grown = wal_bytes(dep.directory) - dep.wal_before
        acked, rejected, ambiguous = set(), set(), 0
        for record in (r for loop in loops for r in loop.records):
            op = ops[record.index]
            if op.kind != "commit":
                continue
            if record.committed is None:
                ambiguous += 1
            elif record.committed:
                acked.add(op.key)
            else:
                rejected.add(op.key)
        recovery, report, live = [], None, set()
        for n in range(RECOVERY_REPEATS):
            copy = os.path.join(self.workdir, f"crashed-{n}")
            shutil.copytree(dep.directory, copy)
            start = time.perf_counter()
            reopened = Tintin.open(copy, durability=DURABILITY)
            recovery.append(time.perf_counter() - start)
            if n == 0:
                report = reopened.recovery_report
                live = {row[0] for row in reopened.db.query("SELECT id FROM entries").rows}
            reopened.close(checkpoint=False)
            shutil.rmtree(copy, ignore_errors=True)
        dep.tintin.close(checkpoint=False)
        shutil.rmtree(dep.directory, ignore_errors=True)
        lost = acked - live
        resurrected = rejected & live
        problems = []
        if ambiguous:
            problems.append(f"{ambiguous} commit(s) raised, so their outcome is unknown")
        if lost:
            problems.append(f"{len(lost)} acknowledged commit(s) missing after recovery")
        if resurrected:
            problems.append(f"{len(resurrected)} rejected commit(s) present after recovery")
        preload_lost = not set(dep.preload) <= live
        if preload_lost:
            problems.append("preloaded rows missing after recovery")
        return {
            "problems": problems,
            "checks": len(acked) + len(rejected) + 1,
            "failed_checks": len(lost) + len(resurrected) + preload_lost,
            "read_kind": "remote point reads in the open loop",
            "recovery_s": statistics.median(recovery),
            "wal_bytes_per_commit": grown / max(1, len(acked)),
            "replay_records": report.records_replayed,
            "sizes": {
                "preloaded_rows": PRELOAD,
                "buckets": BUCKETS,
                "rows_after_recovery": len(live),
                "plan_cache_capacity": dep.tintin.db.plan_cache.capacity,
            },
            "audit": {
                "flush_policy": DURABILITY,
                "acked": len(acked),
                "rejected": len(rejected),
                "ambiguous": ambiguous,
                "lost": len(lost),
                "resurrected": len(resurrected),
            },
        }

    def counters(self, dep: Deployment) -> dict:
        return {
            "scheduler": dep.tintin.sessions.scheduler.stats.snapshot(),
            "admission": dep.server.admission.stats.snapshot(),
            "plan_cache": dep.tintin.db.plan_cache_stats.snapshot(),
        }
