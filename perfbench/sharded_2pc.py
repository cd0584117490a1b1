"""``sharded_2pc``: the sharded deployment.

``ShardedTintin`` with two shard processes (``durability="batch"``,
no gather window) over an ``orders``/``items`` schema sharded on the
order id, with the co-located ``atLeastOneItem`` assertion.  Two
in-process sessions in an open loop at a fixed rate.  Four commits in
five stay on one shard; the fifth spans both and runs two-phase
commit, and every fifth of those stages an order without items on the
other shard, which must abort on both.

After a rejected commit the client calls ``discard()``: a
``ShardSession`` keeps its staged rows after a reject, where a local
``Session`` drops them (see NOTES.md).

Its timings are scaled to the reference speed like ``paper_check``'s,
from a :class:`~perfbench.loadgen.HostProbe` run on the client
threads between commits and after each verifying read (see NOTES.md).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

from .loadgen import open_loop, verdict_ok
from .remote_mixed import wal_bytes

RATE = 150.0
CLIENTS = 2
SHARDS = 2
DURABILITY = "batch"
KEY_BASE = 1_000_000
VERIFY_READS = 40

ORDERS_DDL = "CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)"
ITEMS_DDL = (
    "CREATE TABLE items (order_id INTEGER, n INTEGER, "
    "PRIMARY KEY (order_id, n), "
    "FOREIGN KEY (order_id) REFERENCES orders (id))"
)
ASSERTION_NAME = "atLeastOneItem"
ASSERTION = (
    f"CREATE ASSERTION {ASSERTION_NAME} CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE NOT EXISTS ("
    "SELECT * FROM items AS i WHERE i.order_id = o.id)))"
)
KEYS = {"orders": "id", "items": "order_id"}


@dataclass
class Op:
    key: int
    orders: list
    items: list
    expect: bool


@dataclass
class Deployment:
    directory: str
    engine: object
    wal_before: int = 0
    sessions: list = field(default_factory=list)


class Sharded2PC:
    name = "sharded_2pc"
    loop = "open"
    rate = RATE
    durability = DURABILITY
    host_scaled = True

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self._setups = 0

    def setup(self) -> Deployment:
        from repro.shard import ShardedTintin

        self._setups += 1
        directory = os.path.join(self.workdir, f"sharded-{self._setups}")
        engine = ShardedTintin(
            directory,
            shards=SHARDS,
            shard_keys=KEYS,
            durability=DURABILITY,
            gather_seconds=0.0,
        )
        try:
            engine.execute(ORDERS_DDL)
            engine.execute(ITEMS_DDL)
            engine.install()
            engine.add_assertion(ASSERTION)
        except BaseException:
            engine.close()
            raise
        return Deployment(directory, engine, wal_bytes(directory))

    def connect(self, dep: Deployment) -> None:
        dep.sessions = [dep.engine.create_session() for _ in range(CLIENTS)]

    def discard(self, dep: Deployment) -> None:
        dep.engine.close()

    def inputs(self, dep: Deployment) -> list[Op]:
        from repro.shard.config import ShardConfig

        config = ShardConfig(SHARDS, KEYS)
        rng = random.Random(self.seed)
        cursor = KEY_BASE

        def key_on(shard: int) -> int:
            nonlocal cursor
            while config.shard_of(cursor) != shard:
                cursor += 1
            cursor += 1
            return cursor - 1

        def order(shard: int, with_items: bool):
            key = key_on(shard)
            items = [(key, n) for n in range(1, rng.randint(1, 2) + 1)] if with_items else []
            return (key, float(rng.randint(1, 500))), items

        ops, cross = [], 0
        for i in range(int(RATE * self.seconds)):
            if i % 5 != 4:
                row, items = order(rng.randrange(SHARDS), True)
                ops.append(Op(row[0], [row], items, True))
                continue
            first = rng.randrange(SHARDS)
            planted = cross % 5 == 4
            cross += 1
            row_a, items_a = order(first, True)
            row_b, items_b = order(1 - first, not planted)
            ops.append(
                Op(row_a[0], [row_a, row_b], items_a + items_b, not planted)
            )
        return ops

    def run(
        self, dep: Deployment, ops: list[Op], first: int, seconds: float,
        recorder=None, probe=None,
    ):
        def run_one(session, op: Op):
            session.insert("orders", op.orders)
            if op.items:
                session.insert("items", op.items)
            result = session.commit()
            if not result.committed:
                session.discard()
            ok = verdict_ok(
                result.committed, op.expect, result.violations, result.constraint_error,
                ASSERTION_NAME,
            )
            return ok, result.committed

        def run_op(client_id, index, op, due):
            session = dep.sessions[client_id]
            if recorder is None:
                return run_one(session, op)
            with recorder.span("loadgen.commit", op.key, start=due):
                return run_one(session, op)

        return open_loop(
            ops, run_op, RATE, CLIENTS, first, round(RATE * seconds), after_op=probe
        )

    def verify(
        self, dep: Deployment, ops: list[Op], loop, probe=None,
    ) -> tuple[list[float], int, int]:
        """Scatter point reads through a session of a sample of this
        round's orders: accepted ones read back as written, rejected
        ones read nothing."""
        probes = []
        for record in loop.records:
            op = ops[record.index]
            verdict = record.committed
            if verdict is not None:
                probes.extend((row[0], [row] if verdict else []) for row in op.orders)
        random.Random(self.seed + len(probes)).shuffle(probes)
        session = dep.sessions[0]
        latencies, wrong = [], 0
        for key, expected in probes[:VERIFY_READS]:
            start = time.perf_counter()
            rows = session.query(f"SELECT id, total FROM orders WHERE id = {key}").rows
            latencies.append(time.perf_counter() - start)
            wrong += [tuple(row) for row in rows] != expected
            if probe is not None:
                probe()
        return latencies, len(latencies), wrong

    def counters(self, dep: Deployment) -> dict:
        return {"router": dep.engine.stats.snapshot()}

    def finish(self, dep: Deployment, ops: list[Op], loops: list) -> dict:
        """Per-shard row counts equal the accepted commits' net effect."""
        engine = dep.engine
        grown = wal_bytes(dep.directory) - dep.wal_before
        config = engine.config
        expected = {table: [0] * SHARDS for table in ("orders", "items")}
        accepted = 0
        for record in (r for loop in loops for r in loop.records):
            op = ops[record.index]
            if record.committed:
                accepted += 1
                for row in op.orders:
                    expected["orders"][config.shard_of(row[0])] += 1
                for row in op.items:
                    expected["items"][config.shard_of(row[0])] += 1
        problems = []
        counts = {}
        for table in expected:
            counts[table] = [
                handle.call("query", f"SELECT COUNT(*) FROM {table}")[1][0][0]
                for handle in engine.handles
            ]
            if counts[table] != expected[table]:
                problems.append(
                    f"{table} rows per shard {counts[table]} != expected {expected[table]}"
                )
        capacity = engine.db.plan_cache.capacity
        engine.close()
        return {
            "problems": problems,
            "checks": len(expected),
            "failed_checks": len(problems),
            "read_kind": "scatter point reads through a session verifying each round",
            "wal_bytes_per_commit": grown / max(1, accepted),
            "sizes": {
                "shards": SHARDS,
                "rows_per_shard": counts,
                "plan_cache_capacity": capacity,
            },
        }
