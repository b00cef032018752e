"""Layer map and boundary profiler for the traced benchmark run.

The simulator's modules are grouped into fifteen layers (:data:`LAYERS`).
The traced run attributes host time to them by watching every entry into
a layer's code from another layer: a call into a public function, or the
kernel resuming a process generator that lives in another layer.  Each
such entry opens a span; the span closes when that frame returns or
yields.  A layer's self time is its spans' time minus the time of the
spans opened beneath them.

Python frames of modules outside the map (the standard library, the
package's ``__init__`` re-exports, ``errors.py``, this benchmark) never
open a span, and C functions are not traced at all, so their time counts
toward the layer that called them.

Everything here works from outside the package: ``sys.settrace`` for the
spans, and wrappers around public calls for the counters that results do
not carry.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Optional

#: Layer name -> paths under ``src/repro`` (a directory covers every
#: module in it).  Order is the reporting order.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.kernel": ("sim/kernel.py", "sim/events.py"),
    "sim.resources": ("sim/resources.py",),
    "hardware.network": ("hardware/network.py",),
    "hardware": ("hardware/cpu.py", "hardware/disk.py",
                 "hardware/costs.py", "hardware/configs.py"),
    "engine.ports": ("engine/ports.py", "engine/split_table.py",
                     "engine/bitfilter.py", "engine/skew.py"),
    "engine.operators": ("engine/operators/",),
    "engine.columnar": ("engine/columnar.py",),
    "engine.planner": ("engine/planner.py", "engine/ir.py", "engine/plan.py"),
    "engine.driver": ("engine/driver.py", "engine/machine.py",
                      "engine/node.py", "engine/results.py",
                      "engine/loader.py", "engine/scheduler.py"),
    "engine.concurrency": ("engine/admission.py", "engine/locks.py",
                           "engine/recovery.py"),
    "storage": ("storage/",),
    "catalog": ("catalog/",),
    "workloads": ("workloads/",),
    "teradata": ("teradata/",),
    "metrics": ("metrics/",),
}

LAYER_NAMES: tuple[str, ...] = tuple(LAYERS)


def layer_of_path(path: str, package_root: str) -> int:
    """Index into :data:`LAYER_NAMES` of the module at ``path``, or -1
    when the module belongs to no layer."""
    rel = os.path.relpath(path, package_root).replace(os.sep, "/")
    if rel.startswith("..") or rel.endswith("__init__.py"):
        return -1
    for index, prefixes in enumerate(LAYERS.values()):
        for prefix in prefixes:
            if rel == prefix or (prefix.endswith("/") and rel.startswith(prefix)):
                return index
    return -1


class BoundaryProfiler:
    """Records one span per entry into a layer from another layer.

    Spans are kept in memory as parallel arrays (layer, parent span,
    start ns, end ns, operation index) and can be written out with
    :meth:`write` once the run ends.  Self time and entry counts per
    layer are accumulated as each span closes: self time is the span's
    duration minus the duration of its direct child spans.
    """

    def __init__(self, package_root: str, span_cap: int = 1 << 17) -> None:
        self.package_root = os.path.realpath(package_root)
        n = len(LAYER_NAMES)
        self.self_ns = [0] * n
        self.calls = [0] * n
        #: Operation index stamped on every span opened from now on.
        self.op = -1
        self.span_layer = array("b")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_op = array("l")
        #: Spans beyond this many are counted in self time and calls but
        #: not kept: one 100k-tuple join opens about a million.
        self.span_cap = span_cap
        self.spans_dropped = 0
        self._code_layer: dict[Any, int] = {}
        # Open spans: [frame, layer, span id, start ns, child ns].
        self._stack: list[list[Any]] = []

    # -- tracing callbacks -------------------------------------------------
    def _make_tracer(self) -> Callable:
        """The global trace function, a closure so that the per-call path
        (run for every Python call while tracing) touches only locals."""
        code_layer = self._code_layer
        stack = self._stack
        root = self.package_root
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end, span_op = (
            self.span_start, self.span_end, self.span_op
        )
        self_ns, calls = self.self_ns, self.calls
        clock = time.perf_counter_ns
        realpath = os.path.realpath
        cap = self.span_cap
        top = -1
        profiler = self

        def on_local(frame: Any, event: str, arg: Any) -> Callable:
            # A generator frame keeps its local tracer across yields, so a
            # later resume that opened no span still reports its 'return':
            # only the frame at the top of the span stack closes a span.
            nonlocal top
            if event == "return" and stack and stack[-1][0] is frame:
                now = clock()
                _, layer, span, start, child = stack.pop()
                duration = now - start
                if span >= 0:
                    span_end[span] = now
                self_ns[layer] += duration - child
                calls[layer] += 1
                if stack:
                    stack[-1][4] += duration
                    top = stack[-1][1]
                else:
                    top = -1
            return on_local

        def on_call(frame: Any, event: str, arg: Any) -> Optional[Callable]:
            nonlocal top
            code = frame.f_code
            layer = code_layer.get(code)
            if layer is None:
                layer = code_layer[code] = layer_of_path(
                    realpath(code.co_filename), root
                )
            if layer < 0 or layer == top:
                return None
            now = clock()
            span = len(span_layer)
            if span < cap:
                span_layer.append(layer)
                span_parent.append(stack[-1][2] if stack else -1)
                span_op.append(profiler.op)
                span_start.append(now)
                span_end.append(0)
            else:
                span = -1
                profiler.spans_dropped += 1
            stack.append([frame, layer, span, now, 0])
            top = layer
            frame.f_trace_lines = False
            return on_local

        return on_call

    # -- control -----------------------------------------------------------
    def start(self) -> None:
        sys.settrace(self._make_tracer())

    def stop(self) -> None:
        sys.settrace(None)
        if self._stack:
            raise RuntimeError(
                f"{len(self._stack)} layer spans still open at stop()"
            )

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines:
        ``span parent op layer start_ns end_ns``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tlayer\tstart_ns\tend_ns\n")
            for span, layer in enumerate(self.span_layer):
                fh.write(
                    f"{span}\t{self.span_parent[span]}\t{self.span_op[span]}"
                    f"\t{LAYER_NAMES[layer]}\t{self.span_start[span]}"
                    f"\t{self.span_end[span]}\n"
                )


class CounterTaps:
    """Exact counters the results do not carry, read through wrappers
    around public calls while the traced run is active.

    ``Simulation.run`` is wrapped to count kernel events on both machines
    (Teradata results carry no event count), and the Gamma execution
    context and Teradata run constructors are wrapped so that each
    operation's statistics can be summed once it completes.
    """

    def __init__(self) -> None:
        #: Label of the machine the current operation runs on.
        self.machine = ""
        self.totals: Counter = Counter()
        self._runs: list[Any] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def __enter__(self) -> "CounterTaps":
        from repro.engine.node import ExecutionContext
        from repro.sim.kernel import Simulation
        from repro.teradata.executor import TeradataRun, TeradataUpdateRun

        taps = self
        sim_run = Simulation.run

        def counted_run(sim: Any, until: Optional[float] = None) -> float:
            before = sim.events_processed
            try:
                return sim_run(sim, until)
            finally:
                events = sim.events_processed - before
                taps.totals["sim.kernel.events"] += events
                if taps.machine == "teradata":
                    taps.totals["teradata.events"] += events

        self._patch(Simulation, "run", counted_run)
        for cls in (ExecutionContext, TeradataRun, TeradataUpdateRun):
            def tapped(obj: Any, *args: Any, _init: Any = cls.__init__,
                       **kwargs: Any) -> None:
                _init(obj, *args, **kwargs)
                taps._runs.append(obj)

            self._patch(cls, "__init__", tapped)
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def collect(self) -> None:
        """Fold the statistics of the operation that just ended."""
        stats: Counter = Counter()
        for run in self._runs:
            stats.update(run.stats)
        self._runs.clear()
        totals = self.totals
        totals["hardware.network.packets"] += stats["packets_sent"]
        totals["hardware.network.control_messages"] += stats["control_messages"]
        totals["engine.ports.tuples_shipped"] += stats["tuples_shipped"]
        totals["engine.ports.short_circuited"] += stats["packets_short_circuited"]
        totals["storage.spool_pages"] += (
            stats["spool_pages_written"] + stats["spool_pages"]
        )
        if self.machine == "teradata":
            totals["teradata.page_ios"] += (
                stats["pages_read"] + stats["spool_pages"]
                + stats["sort_page_ios"] + stats["insert_ios"]
            )

    def per_batch(self, batches: int) -> dict[str, float]:
        return {k: v / batches for k, v in self.totals.items()}
