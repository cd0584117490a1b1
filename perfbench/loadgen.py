"""Load generators: a closed loop and an open loop.

A closed loop issues the next operation when the previous one returns,
so a slow system receives less load.  An open loop issues operation
``k`` when it is due, ``t0 + k / rate``, regardless of how earlier ones
fared; its latency is measured from that due time, so a stall also
charges the wait it imposes on every operation queued behind it.  The
open loop here runs a fixed number of client threads; an operation due
while every client is busy starts late, and how late is reported.
"""

from __future__ import annotations

import re
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence


@dataclass
class OpRecord:
    """One issued operation, timed on the generator's clock."""

    index: int
    kind: str
    due: float
    start: float
    end: float
    ok: bool
    #: a commit's verdict (True committed, False rejected); None for a
    #: read or when the operation raised
    committed: Optional[bool] = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Seconds from when the operation was due to its verdict."""
        return self.end - self.due

    @property
    def late(self) -> float:
        """Seconds the generator started it after it was due."""
        return self.start - self.due


@dataclass
class LoopResult:
    records: list[OpRecord] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.finished - self.started


_VIOLATION_TEXT = re.compile(r"assertion '([^']*)'")


def violated_assertions(violations) -> set[str]:
    """Names of the violated assertions in a verdict, whether it holds
    ``Violation`` objects or their display strings (the wire shape)."""
    names = set()
    for violation in violations:
        if isinstance(violation, str):
            match = _VIOLATION_TEXT.match(violation)
            if match:
                names.add(match.group(1))
        else:
            names.add(violation.assertion)
    return names


def verdict_ok(committed: bool, expect: bool, violations, constraint_error, assertion) -> bool:
    """Whether a commit's verdict is the planted expectation: committed
    when it should be, and otherwise rejected *because* it violates
    ``assertion`` (not shed, expired or failed for another reason)."""
    if committed or expect:
        return committed == expect
    return constraint_error is None and assertion in violated_assertions(violations)


#: what an operation returns: whether its outcome was the expected one
#: (the verdict, its reason, the rows read) and a commit's verdict
Outcome = tuple[bool, Optional[bool]]


def closed_loop(
    ops: Sequence,
    run_op: Callable[[int, int, object, float], Outcome],
    seconds: float,
    first: int = 0,
    kind_of: Callable[[object], str] = lambda op: "commit",
    clock: Callable[[], float] = time.perf_counter,
    after_op: Optional[Callable[[], None]] = None,
    count: Optional[int] = None,
) -> LoopResult:
    """Run ``ops[first:]`` back to back from one client until
    ``seconds`` pass, ``count`` operations ran or the ops run out.
    ``run_op(0, index, op, start)`` returns the operation's
    :data:`Outcome`; ``after_op()``, when given, runs after each
    operation, outside its timing."""
    result = LoopResult(started=clock())
    deadline = result.started + seconds
    last = len(ops) if count is None else min(len(ops), first + count)
    for index in range(first, last):
        op = ops[index]
        start = clock()
        if start >= deadline:
            break
        outcome = _invoke(run_op, 0, index, op, start)
        result.records.append(OpRecord(index, kind_of(op), start, start, clock(), *outcome))
        if after_op is not None:
            after_op()
    result.finished = clock()
    return result


def open_loop(
    ops: Sequence,
    run_op: Callable[[int, int, object, float], Outcome],
    rate: float,
    clients: int,
    first: int = 0,
    count: Optional[int] = None,
    kind_of: Callable[[object], str] = lambda op: "commit",
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    after_op: Optional[Callable[[], None]] = None,
) -> LoopResult:
    """Issue ``ops[first + k]`` at ``t0 + k / rate`` from ``clients``
    threads, for ``count`` operations (default: all that remain).

    ``run_op(client, index, op, due)`` runs on client thread
    ``client`` and returns the operation's :data:`Outcome`.
    Whichever client is free takes the next operation.  ``after_op()``,
    when given, runs on the client thread after each operation,
    outside its timing."""
    last = len(ops) if count is None else min(len(ops), first + count)
    lock = threading.Lock()
    cursor = iter(range(first, last))
    records: list[Optional[OpRecord]] = [None] * (last - first)
    t0 = clock() + 0.01

    def client(client_id: int) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = t0 + (index - first) / rate
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            start = clock()
            outcome = _invoke(run_op, client_id, index, ops[index], due)
            records[index - first] = OpRecord(
                index, kind_of(ops[index]), due, start, clock(), *outcome
            )
            if after_op is not None:
                after_op()

    threads = [
        threading.Thread(target=client, args=(i,), name=f"loadgen-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    done = [r for r in records if r is not None]
    return LoopResult(done, t0, max((r.end for r in done), default=t0))


#: CPU milliseconds the reference unit takes at the reference speed:
#: scaled timings read as if the host ran the unit this fast
REFERENCE_MS = 0.25
_REFERENCE_KEYS = [(i * 7919) % 1009 for i in range(1009)]
_REFERENCE_ROWS = {key: (key, str(key)) for key in _REFERENCE_KEYS}


def reference_unit() -> int:
    """A fixed piece of pure-Python work (dict lookups, tuple indexing,
    string comparison) that allocates no container, so it neither
    triggers nor feels the garbage collector."""
    hits = 0
    for _ in range(4):
        for key in _REFERENCE_KEYS:
            row = _REFERENCE_ROWS[key]
            if row[0] & 1 and row[1] < "5":
                hits += 1
    return hits


class HostProbe:
    """Samples how fast the host runs this thread right now.

    Each call times :func:`reference_unit` in thread CPU time, so
    waiting for the GIL or the scheduler does not count, but a core
    that runs slower (a busy neighbour on the shared host) does.
    Called between operations, on the thread that ran them, it follows
    the host's speed as closely as the operations themselves."""

    def __init__(self, clock: Callable[[], float] = time.thread_time):
        self.clock = clock
        self.samples: list[float] = []

    def __call__(self) -> None:
        start = self.clock()
        reference_unit()
        self.samples.append(self.clock() - start)

    def scale(self) -> float:
        """Factor taking times measured alongside these samples to the
        reference speed: ``REFERENCE_MS`` over the median sample."""
        return REFERENCE_MS / (1e3 * statistics.median(self.samples))


def _invoke(run_op, *args) -> tuple[bool, Optional[bool], Optional[str]]:
    """Run one operation; an exception is a failed operation with no
    verdict, recorded with its type and message, and the loop goes on."""
    try:
        ok, committed = run_op(*args)
        return bool(ok), committed, None
    except Exception as exc:  # the generator must outlive one bad op
        return False, None, f"{type(exc).__name__}: {exc}"
