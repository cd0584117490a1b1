"""``paper_check``: the paper's own path.

One in-process client in a closed loop over a fixed number of
updates (``RATE`` per second of the window), no WAL.  Each update is SQL
DML text through ``Database.execute`` followed by ``Tintin.safe_commit``
over TPC-H at scale 0.002 with a 17-assertion rule set: the six
complexity-suite EDC assertions, ``everyOrderHasMaxItem``, the two
aggregate assertions and eight ``e8Bound`` variants.  One warm-up
commit arms the delta plans before the window.

Per update: a new order with one to three line items; every third
update also deletes a preloaded order and its lines by key; every
fifth is an order without items, which must be rejected.  Every DML
text names a fresh key, so the DML AST cache never hits.

Its timings are computation only, so they follow the shared host's
speed; a :class:`~perfbench.loadgen.HostProbe` runs between operations
and the reported timings are scaled to the reference speed (see
NOTES.md).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .loadgen import closed_loop, verdict_ok

SCALE = 0.002
#: keys of the benchmark's own orders (TPC-H keys stay far below)
KEY_BASE = 10_000_000
ARMING_KEY = KEY_BASE - 1
#: updates a run makes per second of ``--seconds``: a round runs a
#: fixed number of updates, not for a fixed time, so the tables grow
#: the same way on a fast or a slow host (point reads scan ``orders``,
#: so a run that got further would read slower); on the 2-CPU machine
#: it was tuned on a round takes about its share of ``--seconds``
RATE = 200
#: point reads that verify each round's updates
VERIFY_READS = 40
#: the assertion a planted order without line items must be rejected for
PLANTED_VIOLATES = "atLeastOneLineItem"


def bound_assertion(k: int) -> str:
    return (
        f"CREATE ASSERTION e8Bound{k} CHECK (NOT EXISTS ("
        f"SELECT * FROM orders AS o, lineitem AS l "
        f"WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > {60 + k} "
        f"AND o.o_totalprice > {500 + k}))"
    )


def assertion_set() -> tuple[str, ...]:
    from repro.tpch import (
        AGGREGATE_ASSERTIONS,
        COMPLEXITY_SUITE,
        EVERY_ORDER_HAS_MAX_ITEM,
    )

    specs = COMPLEXITY_SUITE + (EVERY_ORDER_HAS_MAX_ITEM,) + AGGREGATE_ASSERTIONS
    return tuple(spec.sql for spec in specs) + tuple(
        bound_assertion(k) for k in range(8)
    )


@dataclass
class Update:
    key: int
    texts: list[str]
    expect: bool
    order: tuple
    items: int = 0
    victim: int | None = None
    victim_items: int = 0


@dataclass
class Deployment:
    tintin: object
    data: object


class PaperCheck:
    name = "paper_check"
    loop = "closed"
    rate = None
    durability = "none (no WAL)"
    host_scaled = True

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        self.seconds = seconds

    def setup(self) -> Deployment:
        from repro import Tintin
        from repro.tpch import TPCHGenerator, tpch_database

        db = tpch_database("paper_check")
        data = TPCHGenerator(SCALE, seed=self.seed).populate(db)
        tintin = Tintin(db)
        tintin.install()
        for sql in assertion_set():
            tintin.add_assertion(sql)
        # arming: one validated commit promotes the seeded delta plans
        customer, partsupp = data.rows["customer"][0], data.rows["partsupp"][0]
        db.execute(f"INSERT INTO orders VALUES ({ARMING_KEY}, {customer[0]}, 50.0)")
        db.execute(
            f"INSERT INTO lineitem VALUES ({ARMING_KEY}, 1, "
            f"{partsupp[0]}, {partsupp[1]}, 5)"
        )
        if not tintin.safe_commit().committed:
            raise RuntimeError("paper_check: the arming commit was rejected")
        return Deployment(tintin, data)

    def connect(self, dep: Deployment) -> None:
        """The one client is this process itself."""

    def discard(self, dep: Deployment) -> None:
        dep.tintin = dep.data = None

    def inputs(self, dep: Deployment) -> list[Update]:
        rng = random.Random(self.seed)
        rows = dep.data.rows
        customers = [row[0] for row in rows["customer"]]
        partsupp = [(row[0], row[1]) for row in rows["partsupp"]]
        items_of: dict[int, int] = {}
        for item in rows["lineitem"]:
            items_of[item[0]] = items_of.get(item[0], 0) + 1
        victims = [row[0] for row in rows["orders"]]
        rng.shuffle(victims)
        ops: list[Update] = []
        for i in range(math.ceil(RATE * self.seconds)):
            key = KEY_BASE + i
            customer = rng.choice(customers)
            if i % 5 == 4:
                text = f"INSERT INTO orders VALUES ({key}, {customer}, 40.0)"
                ops.append(Update(key, [text], False, (key, customer, 40.0)))
                continue
            lines = []
            for n in range(1, rng.randint(1, 3) + 1):
                part, supp = rng.choice(partsupp)
                lines.append((key, n, part, supp, rng.randint(1, 50)))
            total = float(10 * sum(line[4] for line in lines))
            texts = [
                f"INSERT INTO orders VALUES ({key}, {customer}, {total})",
                "INSERT INTO lineitem VALUES "
                + ", ".join(f"({k}, {n}, {p}, {s}, {q})" for k, n, p, s, q in lines),
            ]
            update = Update(key, texts, True, (key, customer, total), len(lines))
            if i % 3 == 2 and victims:
                update.victim = victims.pop()
                update.victim_items = items_of.get(update.victim, 0)
                texts.append(f"DELETE FROM lineitem WHERE l_orderkey = {update.victim}")
                texts.append(f"DELETE FROM orders WHERE o_orderkey = {update.victim}")
            ops.append(update)
        return ops

    def run(
        self, dep: Deployment, ops: list[Update], first: int, seconds: float,
        recorder=None, probe=None,
    ):
        tintin = dep.tintin
        db = tintin.db

        def run_update(update: Update):
            try:
                for text in update.texts:
                    db.execute(text)
            except Exception:
                # a failed statement must not leak staged events into
                # the next update
                tintin.events.truncate_events()
                raise
            # a rejected safeCommit discards the staged update itself
            result = tintin.safe_commit()
            ok = verdict_ok(
                result.committed,
                update.expect,
                result.violations,
                result.constraint_error,
                PLANTED_VIOLATES,
            )
            return ok, result.committed

        def run_op(client, index, update, due):
            if recorder is None:
                return run_update(update)
            with recorder.span("loadgen.commit", update.key, start=due):
                return run_update(update)

        count = math.ceil(RATE * seconds)
        return closed_loop(ops, run_op, math.inf, first, after_op=probe, count=count)

    def verify(
        self, dep: Deployment, ops: list[Update], loop, probe=None,
    ) -> tuple[list[float], int, int]:
        """Point reads of a sample of this round's keys: accepted orders
        read back as written, rejected and deleted ones read nothing."""
        probes = []
        for record in loop.records:
            update = ops[record.index]
            verdict = record.committed
            if verdict:
                probes.append((update.key, [update.order]))
                if update.victim is not None:
                    probes.append((update.victim, []))
            elif verdict is False:
                probes.append((update.key, []))
        random.Random(self.seed + len(probes)).shuffle(probes)
        db = dep.tintin.db
        latencies, wrong = [], 0
        for key, expected in probes[:VERIFY_READS]:
            sql = (
                "SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
                f"WHERE o_orderkey = {key}"
            )
            start = time.perf_counter()
            rows = db.query(sql).rows
            latencies.append(time.perf_counter() - start)
            wrong += rows != expected
            if probe is not None:
                probe()
        return latencies, len(latencies), wrong

    def counters(self, dep: Deployment) -> dict:
        return {"plan_cache": dep.tintin.db.plan_cache_stats.snapshot()}

    def finish(self, dep: Deployment, ops: list[Update], loops: list) -> dict:
        """The full assertion queries find nothing, and the final rows
        match the preloaded data plus the accepted updates."""
        tintin = dep.tintin
        db = tintin.db
        rows = dep.data.rows
        orders = {row[0] for row in rows["orders"]} | {ARMING_KEY}
        lineitems = len(rows["lineitem"]) + 1
        for loop in loops:
            for record in loop.records:
                update = ops[record.index]
                if record.committed:
                    orders.add(update.key)
                    lineitems += update.items
                    if update.victim is not None:
                        orders.discard(update.victim)
                        lineitems -= update.victim_items
        problems = []
        violations = tintin.baseline.check_current_state(db)
        if violations:
            problems.append(f"{len(violations)} assertion(s) violated after the run")
        live = {row[0] for row in db.table("orders").rows_snapshot()}
        if live != orders:
            problems.append(
                f"orders differ from the accepted updates: "
                f"{len(live - orders)} extra, {len(orders - live)} missing"
            )
        live_items = len(db.table("lineitem").rows_snapshot())
        if live_items != lineitems:
            problems.append(
                f"{live_items} line items, the accepted updates leave {lineitems}"
            )
        return {
            "problems": problems,
            "checks": 3,
            "failed_checks": len(problems),
            "read_kind": "in-process point reads verifying each round",
            "sizes": {
                "orders": len(live),
                "lineitem": live_items,
                "assertions": len(tintin.assertions),
                "plan_cache_capacity": db.plan_cache.capacity,
            },
        }
