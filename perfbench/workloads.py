"""The benchmark's four workloads.

Every workload is built from one integer seed: relation generator seeds,
selection windows, exact-match keys and the multiuser request stream all
derive from it, and the simulator receives only the generated inputs.

A workload's :meth:`Workload.setup` constructs its machines, loads its
relations and runs one untimed warm-up operation.  :meth:`Workload.ops`
lists one batch: each :class:`Op` is a single ``run`` call (or a single
``run_workload`` batch) with the check of its answer against the
plain-Python oracle.  Answers are read and compared after the operation's
timer stops.
"""

from __future__ import annotations

import itertools
import random
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

import oracle
from repro import GammaMachine, Hashed, JoinMode, Query, RangePredicate
from repro.engine.locks import DeadlockError, LockTimeoutError
from repro.engine.plan import (
    AppendTuple,
    DeleteTuple,
    ExactMatch,
    ModifyTuple,
    ScanNode,
)
from repro.hardware import GammaConfig, TeradataConfig
from repro.metrics import TraceBuffer
from repro.metrics.telemetry import TelemetrySampler
from repro.teradata import TeradataMachine
from repro.workloads import selection_range, wisconsin_schema
from repro.workloads.multiuser import MixEntry, QueryMix, WorkloadSpec
from repro.workloads.queries import join_abprime, join_cselaselb

#: Name of the stored result of the operation in flight; each operation's
#: result is dropped before the next one runs.
RESULT = "bench_result"


@dataclass
class Op:
    """One timed operation.

    ``run`` is the only call inside the timer.  ``check`` receives its
    result and returns ``None`` or a description of the wrong answer;
    ``cleanup`` always runs afterwards (it drops stored results).
    """

    label: str
    machine: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    cleanup: Callable[[], None]


def _nothing() -> None:
    pass


class Workload:
    """Common shape: ``setup``, then repeated ``ops`` batches."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def relation_seed(self, name: str, n: int) -> int:
        return zlib.crc32(f"{self.seed}:{name}:{n}".encode("utf-8")) % (2**31)

    def setup(self) -> None:
        """Build the machines and load relations (timed as ``setup_s``)."""
        raise NotImplementedError

    def prepare_oracle(self) -> None:
        """Compute expected answers (untimed; after :meth:`setup`)."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the loaded state after a batch (untimed)."""

    def warm_up(self) -> None:
        op = self.ops()[0]
        try:
            op.run()
        finally:
            op.cleanup()
        self.reset()

    @staticmethod
    def sim_seconds(result: Any) -> float:
        """The simulated response time of one operation's result."""
        return result.response_time

    def counters(self, result: Any) -> dict[str, float]:
        """Exact counters carried by one operation's result."""
        return {
            "engine.operators.overflow_reactions":
                sum(result.overflows_per_node),
        }


# ---------------------------------------------------------------------------
# stored-result retrievals: paper-queries, close-storm, observed-joins
# ---------------------------------------------------------------------------


class StoredQueries(Workload):
    """Retrievals whose results are stored, then checked and dropped.

    ``specs`` lists ``(label, make(into) -> Query, expect() -> tuples,
    machine labels)``; ``machines`` maps labels to machines.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sizes: dict[str, int] = {}
        self.specs: list[tuple[str, Callable, Callable, tuple[str, ...]]] = []
        self.machines: dict[str, Any] = {}
        self.expected: dict[str, tuple[int, int]] = {}
        self._tuples: dict[str, list[tuple]] = {}

    def load(self, machine: Any, name: str, indexed: bool = False) -> None:
        n = self.sizes[name]
        seed = self.relation_seed(name, n)
        if isinstance(machine, TeradataMachine):
            machine.load_wisconsin(
                name, n, seed=seed, secondary_on=["unique2"] if indexed else []
            )
        elif indexed:
            machine.load_wisconsin(
                name, n, seed=seed,
                clustered_on="unique1", secondary_on=["unique2"],
            )
        else:
            machine.load_wisconsin(name, n, seed=seed)

    def relation(self, name: str) -> list[tuple]:
        """The oracle's copy of a loaded relation."""
        if name not in self._tuples:
            n = self.sizes[name]
            self._tuples[name] = oracle.wisconsin(n, self.relation_seed(name, n))
        return self._tuples[name]

    # query builders: each returns (make(into) -> Query, expect() -> tuples)
    def _window(self, rel: str, selectivity: float, attr: str) -> tuple[int, int]:
        r = selection_range(self.sizes[rel], selectivity, attr=attr,
                            offset_fraction=self.rng.random())
        return r.low, r.high

    def selection(self, rel: str, selectivity: float, attr: str) -> tuple:
        low, high = self._window(rel, selectivity, attr)

        def make(into: str) -> Query:
            return Query.select(rel, RangePredicate(attr, low, high), into=into)

        return make, lambda: oracle.select(self.relation(rel), attr, low, high)

    def join_abprime(self, a: str, bprime: str, key: bool) -> tuple:
        attr = "unique1" if key else "unique2"

        def make(into: str) -> Query:
            return join_abprime(a, bprime, key=key, into=into)

        return make, lambda: oracle.join(
            self.relation(bprime), self.relation(a), attr
        )

    def join_aselb(self, a: str, b: str, key: bool) -> tuple:
        attr = "unique1" if key else "unique2"
        low, high = self._window(b, 0.10, attr)

        def make(into: str) -> Query:
            return Query.join(
                ScanNode(b, RangePredicate(attr, low, high)), ScanNode(a),
                on=(attr, attr), mode=JoinMode.REMOTE, into=into,
            )

        def expect() -> list[tuple]:
            selected = oracle.select(self.relation(b), attr, low, high)
            return oracle.join(selected, self.relation(a), attr)

        return make, expect

    def join_cselaselb(self, a: str, b: str, c: str, key: bool) -> tuple:
        # The paper's construction fixes the windows: A and B restricted to
        # the n/10 values C's attribute spans, so the answer has |C| tuples.
        attr = "unique1" if key else "unique2"
        n = self.sizes[a]
        r = selection_range(n, 0.10, attr=attr, offset_fraction=0.0)

        def make(into: str) -> Query:
            return join_cselaselb(a, b, c, n, key=key, into=into)

        def expect() -> list[tuple]:
            sel_a = oracle.select(self.relation(a), attr, r.low, r.high)
            sel_b = oracle.select(self.relation(b), attr, r.low, r.high)
            inner = oracle.join(sel_b, sel_a, attr)
            return oracle.join(self.relation(c), inner, attr)

        return make, expect

    # ops -------------------------------------------------------------------
    def prepare_oracle(self) -> None:
        for label, _, expect, _ in self.specs:
            self.expected[label] = oracle.digest(expect())
        self._tuples.clear()

    def run_kwargs(self) -> dict[str, Any]:
        return {}

    def ops(self) -> list[Op]:
        return [
            self.stored_op(label, machine_label, make)
            for label, make, _, machine_labels in self.specs
            for machine_label in machine_labels
        ]

    def stored_op(self, label: str, machine_label: str, make: Callable) -> Op:
        machine = self.machines[machine_label]

        def run() -> Any:
            return machine.run(make(RESULT), **self.run_kwargs())

        def check(result: Any) -> Optional[str]:
            if isinstance(machine, TeradataMachine):
                records = machine.relations[RESULT].records()
            else:
                records = machine.catalog.lookup(RESULT).records()
            got = oracle.digest(records)
            want = self.expected[label]
            if result.result_count != want[0] or got != want:
                return (f"count {result.result_count}, digest {got};"
                        f" expected {want}")
            return None

        return Op(label, machine_label, run, check,
                  lambda: machine.drop_if_exists(RESULT))


class PaperQueries(StoredQueries):
    name = "paper-queries"
    N = 100_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        n, tenth = self.N, self.N // 10
        self.sizes = {"A": n, "B": n, "Bp": tenth, "C": tenth, "idx": n}
        both = ("gamma", "teradata")
        self.specs = [
            ("1% nonindexed selection",
             *self.selection("A", 0.01, "unique2"), both),
            ("10% nonindexed selection",
             *self.selection("A", 0.10, "unique2"), both),
            ("1% selection using non-clustered index",
             *self.selection("idx", 0.01, "unique2"), both),
            ("10% selection using non-clustered index",
             *self.selection("idx", 0.10, "unique2"), both),
            ("1% selection using clustered index",
             *self.selection("idx", 0.01, "unique1"), ("gamma",)),
            ("10% selection using clustered index",
             *self.selection("idx", 0.10, "unique1"), ("gamma",)),
        ]
        for key in (False, True):
            suffix = " (key attributes)" if key else " (non-key attributes)"
            self.specs += [
                ("joinABprime" + suffix,
                 *self.join_abprime("A", "Bp", key), both),
                ("joinAselB" + suffix, *self.join_aselb("A", "B", key), both),
                ("joinCselAselB" + suffix,
                 *self.join_cselaselb("A", "B", "C", key), both),
            ]
        self.specs.append((
            "Figure 13 overflow joinABprime (key, memory 0.5x Bprime)",
            *self.join_abprime("A", "Bp", True), ("gamma-overflow",),
        ))
        self.single_key = self.rng.randrange(n)

    def setup(self) -> None:
        gamma = GammaMachine(GammaConfig.paper_default())
        teradata = TeradataMachine(TeradataConfig.paper_default())
        for machine in (gamma, teradata):
            for name in ("A", "B", "Bp", "C"):
                self.load(machine, name)
            self.load(machine, "idx", indexed=True)
        # Figure 13's memory-starved point: join memory about half the
        # build side, on a second machine sharing the first one's catalog.
        base = GammaConfig.paper_default()
        build_bytes = self.sizes["Bp"] * 208 * base.hash_table_overhead
        overflow = GammaMachine(base.with_join_memory(int(0.5 * build_bytes)))
        overflow.catalog = gamma.catalog
        self.machines = {"gamma": gamma, "teradata": teradata,
                         "gamma-overflow": overflow}
        self.warm_up()

    def prepare_oracle(self) -> None:
        pos = oracle.position("unique1")
        self.single_expected = [
            r for r in self.relation("idx") if r[pos] == self.single_key
        ]
        super().prepare_oracle()

    def ops(self) -> list[Op]:
        ops = super().ops()
        return ops + [self.single_select(m) for m in ("gamma", "teradata")]

    def single_select(self, machine_label: str) -> Op:
        machine = self.machines[machine_label]
        query = Query.select("idx", ExactMatch("unique1", self.single_key))

        def check(result: Any) -> Optional[str]:
            if result.tuples != self.single_expected:
                return f"returned {result.tuples!r}"
            return None

        return Op("single tuple select", machine_label,
                  lambda: machine.run(query), check, _nothing)


class CloseStorm(StoredQueries):
    name = "close-storm"
    N = 2_000
    SITES = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sizes = {"A": self.N, "B": self.N, "Bp": self.N // 10}
        self.specs = [
            ("1% nonindexed selection",
             *self.selection("A", 0.01, "unique2"), ("gamma",)),
            ("10% nonindexed selection",
             *self.selection("A", 0.10, "unique2"), ("gamma",)),
            ("joinABprime (non-key attributes)",
             *self.join_abprime("A", "Bp", False), ("gamma",)),
            ("joinABprime (key attributes)",
             *self.join_abprime("A", "Bp", True), ("gamma",)),
            ("joinAselB (non-key attributes)",
             *self.join_aselb("A", "B", False), ("gamma",)),
        ]

    def setup(self) -> None:
        gamma = GammaMachine(GammaConfig.paper_default().with_sites(self.SITES))
        for name in self.sizes:
            self.load(gamma, name)
        self.machines = {"gamma": gamma}
        self.warm_up()


class ObservedJoins(StoredQueries):
    name = "observed-joins"
    N = 10_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sizes = {"A": self.N, "B": self.N, "Bp": self.N // 10}
        self.specs = [
            ("joinABprime (non-key attributes)",
             *self.join_abprime("A", "Bp", False), ("gamma",)),
            ("joinAselB (non-key attributes)",
             *self.join_aselb("A", "B", False), ("gamma",)),
            ("10% nonindexed selection",
             *self.selection("A", 0.10, "unique2"), ("gamma",)),
        ]
        self.trace: Optional[TraceBuffer] = None

    def setup(self) -> None:
        gamma = GammaMachine(GammaConfig.paper_default())
        for name in self.sizes:
            self.load(gamma, name)
        self.machines = {"gamma": gamma}
        self.warm_up()

    def run_kwargs(self) -> dict[str, Any]:
        self.trace = TraceBuffer()
        return {"trace": self.trace, "profile": True,
                "telemetry": TelemetrySampler()}

    def counters(self, result: Any) -> dict[str, float]:
        out = super().counters(result)
        out["metrics.trace_events"] = len(self.trace) if self.trace else 0
        return out


# ---------------------------------------------------------------------------
# oltp-writes: closed-loop single-tuple requests behind locks and admission
# ---------------------------------------------------------------------------

#: Appended and modified key values start here, clear of the loaded
#: relation's 0..n-1 keys.
_FRESH_KEY_BASE = 10_000_000

#: Outcomes the model produces on purpose under contention; they count as
#: aborts of the concurrency layer, not as failed operations.
MODELLED_ABORTS = (DeadlockError.__name__, LockTimeoutError.__name__,
                   "AdmissionTimeout")


class OltpWrites(Workload):
    name = "oltp-writes"
    N = 10_000
    REL = "oltp"
    REQUESTS = 64
    TERMINALS = 8
    THINK_S = 0.1
    #: run_workload batches between reloads of the relations, alternating
    #: between the machines (Gamma first).  Each round draws a fresh
    #: request stream against the state its machine's previous rounds
    #: left.  An odd count keeps the median operation inside one
    #: machine's group of times instead of in the gap between the two.
    ROUNDS = 7

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.specs = [
            WorkloadSpec(
                queries=self.REQUESTS, clients=self.TERMINALS,
                arrival="closed", think_time=self.THINK_S,
                mpl=self.TERMINALS, seed=self.rng.randrange(2**31),
            )
            for _ in range(self.ROUNDS)
        ]
        self.records: list[tuple] = []
        # Completed updates per machine since the last reload, in the
        # serial order the oracle replays.
        self.applied: dict[str, list[tuple[str, int, Any]]] = {}
        # Appended tuples: fresh keys over one generated tuple's attributes.
        self.template = oracle.wisconsin(1, seed)[0][2:]

    def setup(self) -> None:
        self.gamma = GammaMachine(GammaConfig.paper_default())
        self.teradata = TeradataMachine(TeradataConfig.paper_default())
        self.records = oracle.wisconsin(
            self.N, self.relation_seed(self.REL, self.N)
        )
        self.load()
        self.warm_up()

    def load(self) -> None:
        """Load the generated tuples as ``load_wisconsin`` would."""
        schema = wisconsin_schema()
        self.gamma.load_relation(
            self.REL, schema, list(self.records),
            partitioning=Hashed("unique1"),
            clustered_on="unique1", secondary_on=["unique2"],
        )
        self.teradata.load_relation(
            self.REL, schema, list(self.records),
            primary_key="unique1", secondary_on=["unique2"],
        )

    def reset(self) -> None:
        self.applied = {"gamma": [], "teradata": []}
        self.gamma.drop_relation(self.REL)
        self.teradata.drop_relation(self.REL)
        self.load()

    def mix(self, log: list[tuple[str, int, Any]]) -> QueryMix:
        """The request mix; every request drawn is appended to ``log`` as
        ``(kind, unique1, payload)`` in submission-index order."""
        rel, n = self.REL, self.N
        unique2 = oracle.position("unique2")

        def exact(rng: random.Random) -> tuple:
            key = rng.randrange(n)
            return key, None, Query.select(rel, ExactMatch("unique1", key))

        def scan100(rng: random.Random) -> tuple:
            low = rng.randrange(n - 100)
            return low, None, Query.select(
                rel, RangePredicate("unique2", low, low + 99))

        def modify(rng: random.Random) -> tuple:
            key = rng.randrange(n)
            value = _FRESH_KEY_BASE + rng.randrange(10**9)
            return key, (unique2, value), ModifyTuple(
                rel, ExactMatch("unique1", key), "unique2", value)

        def append(rng: random.Random) -> tuple:
            key = _FRESH_KEY_BASE + rng.randrange(10**9)
            record = (key, key) + self.template
            return key, record, AppendTuple(rel, record)

        def delete(rng: random.Random) -> tuple:
            key = rng.randrange(n)
            return key, None, DeleteTuple(rel, ExactMatch("unique1", key))

        # Kinds cycle in submission order so every batch has the same mix;
        # keys, values and think times come from the terminals' streams.
        kinds = itertools.cycle([
            ("select", exact), ("select", scan100), ("modify", modify),
            ("append", append), ("delete", delete),
        ])

        def make(rng: random.Random) -> Any:
            kind, build = next(kinds)
            key, payload, request = build(rng)
            log.append((kind, key, payload))
            return request

        return QueryMix("oltp-writes", [MixEntry(1.0, "oltp request", make)])

    def ops(self) -> list[Op]:
        machines = (("gamma", self.gamma), ("teradata", self.teradata))
        return [
            self.workload_op(*machines[round_ % 2], spec)
            for round_, spec in enumerate(self.specs)
        ]

    def workload_op(self, label: str, machine: Any, spec: WorkloadSpec) -> Op:
        log: list[tuple[str, int, Any]] = []

        def run() -> Any:
            return machine.run_workload(self.mix(log), spec)

        def check(result: Any) -> Optional[str]:
            unexpected = [r.error for r in result.records if r.error
                          and not r.error.startswith(MODELLED_ABORTS)]
            if unexpected:
                return f"request errors: {unexpected[:3]}"
            done = sorted((r for r in result.records if r.ok),
                          key=lambda r: (r.finished, r.index))
            applied = self.applied[label]
            applied += [log[r.index] for r in done
                        if log[r.index][0] != "select"]
            want = oracle.replay(self.records, applied)
            if isinstance(machine, TeradataMachine):
                rows = machine.relations[self.REL].records()
            else:
                rows = machine.catalog.lookup(self.REL).records()
            got = Counter(rows)
            if got != want:
                return (f"final relation differs from the replay:"
                        f" {sum((got - want).values())} unexpected,"
                        f" {sum((want - got).values())} missing tuples")
            return None

        return Op(f"run_workload({self.REQUESTS} requests)", label, run,
                  check, _nothing)

    @staticmethod
    def sim_seconds(result: Any) -> float:
        return result.elapsed

    def counters(self, result: Any) -> dict[str, float]:
        return {
            "engine.concurrency.queue_wait_s": sum(
                r.admitted - r.submitted for r in result.records
                if r.admitted is not None
            ),
            "engine.concurrency.aborts": sum(
                1 for r in result.records
                if r.error and r.error.startswith(MODELLED_ABORTS)
            ),
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PaperQueries, CloseStorm, OltpWrites, ObservedJoins)
}
