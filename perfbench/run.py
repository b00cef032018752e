"""The repository benchmark: host cost of simulating four workloads.

One run executes one workload in this process and prints, as its last
line, a JSON object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 perfbench/run.py --workload close-storm --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (host CPU per batch, wall ms
per operation at p50/p90, set-up time, peak RSS; times are scaled to a
reference host speed, see :class:`HostSpeed`).  ``--trace 1`` runs the
same workload and seed under the boundary profiler and reports per-layer
self time and entries, exact counters and run-level values instead.

``--all`` runs every workload, each in a fresh process, and prints one
table of the end-to-end metrics (with ``failed_frac``) or, with
``--trace 1``, the per-layer split::

    python3 perfbench/run.py --all --seed 1 --seconds 20

Every operation's answer is checked against a plain-Python oracle, and
its simulated response time against ``reference/<workload>.json`` when
that file holds the seed.  ``--record`` rewrites the seed's entry there;
otherwise a run writes nothing into the repository except, in traced
runs, the span log under ``.perfbench/`` (ignored by git).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "repro")
REFERENCE_DIR = os.path.join(HERE, "reference")
SPAN_DIR = os.path.join(ROOT, ".perfbench")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Batches per run at least, whatever ``--seconds`` says: one batch of
#: ``paper-queries`` is 25 operations, too few for steady percentiles.
MIN_BATCHES = 3

#: The reference host runs one :class:`HostSpeed` sample in this many
#: CPU seconds; reported times are what they would be on that host.
CALIB_REF_S = 0.030

END_TO_END_UNITS = {
    "cpu_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def _import_package() -> None:
    """Put this checkout's ``src`` first on the path; refuse to fall back
    on any other installed copy of the package."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise SystemExit(f"benchmark: no package source at {PACKAGE}")
    sys.path.insert(0, os.path.dirname(PACKAGE))
    import repro

    if os.path.realpath(os.path.dirname(repro.__file__)) != os.path.realpath(
        PACKAGE
    ):
        raise SystemExit(f"benchmark: imported repro from {repro.__file__}")


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, seed: int) -> Optional[list[float]]:
    """The recorded simulated response time of each operation of one
    batch of ``workload`` at ``seed``, or ``None`` if not recorded."""
    try:
        with open(reference_path(workload), encoding="utf-8") as fh:
            return json.load(fh).get(str(seed))
    except FileNotFoundError:
        return None


def save_reference(workload: str, seed: int, sims: list[float]) -> None:
    path = reference_path(workload)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data[str(seed)] = sims
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(data.items(), key=lambda kv: int(kv[0]))), fh,
                  indent=1)
        fh.write("\n")


class HostSpeed:
    """Samples the host's current speed with a fixed pure-Python workload.

    On a virtual machine that shares its cores with other tenants the
    host's speed can drift by 1.7x within seconds (measured on a 2-vCPU
    VM), so every timing is scaled by ``CALIB_REF_S`` over the sample
    time measured around it.  The sample mixes the simulator's
    kinds of interpreter work: dict lookups that miss the cache, integer
    arithmetic and short-lived tuple allocation.  It runs no code of the
    package, so a faster simulator never speeds it up.
    """

    def __init__(self) -> None:
        self.table = {i * 7919: i for i in range(100_000)}
        keys = list(self.table)
        random.Random(0).shuffle(keys)
        self.keys = keys[:40_000]

    def sample(self) -> float:
        """CPU seconds of one pass of the fixed workload."""
        began = time.process_time()
        table = self.table
        total = 0
        for key in self.keys:
            total += table[key]
        for i in range(200_000):
            total += i & 7
        garbage: list[tuple] = []
        for i in range(40_000):
            garbage.append((i, total, str(i)))
            if len(garbage) > 1000:
                garbage = []
        return time.process_time() - began


class Batch:
    """Outcome of one pass over a workload's operations.  Times are
    scaled to the reference host speed; ``raw_cpu_s`` is not."""

    def __init__(self) -> None:
        self.cpu_s = 0.0
        self.raw_cpu_s = 0.0
        self.op_ms: list[float] = []
        self.calib_s: list[float] = []
        self.sims: list[Optional[float]] = []
        self.counters: Counter = Counter()
        self.attempted = 0
        self.failures: list[str] = []


def run_batch(workload: Any, speed: HostSpeed,
              reference: Optional[list[float]], observe: Any = None) -> Batch:
    """Run every operation once; time only each ``run`` call.

    The host speed is calibrated between operations.  ``observe``
    (traced runs) gets ``before(index, op)`` and ``after(op)`` calls just
    outside each operation's timer.
    """
    batch = Batch()
    calib_before = speed.sample()
    batch.calib_s.append(calib_before)
    for index, op in enumerate(workload.ops()):
        batch.attempted += 1
        error: Optional[str] = None
        try:
            if observe is not None:
                observe.before(index, op)
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                result = op.run()
            finally:
                wall1, cpu1 = time.perf_counter(), time.process_time()
                if observe is not None:
                    observe.after(op)
                calib_after = speed.sample()
                batch.calib_s.append(calib_after)
                scale = 2 * CALIB_REF_S / (calib_before + calib_after)
                calib_before = calib_after
            batch.raw_cpu_s += cpu1 - cpu0
            batch.cpu_s += (cpu1 - cpu0) * scale
            batch.op_ms.append((wall1 - wall0) * scale * 1000)
            sim = workload.sim_seconds(result)
            batch.sims.append(sim)
            batch.counters.update(workload.counters(result))
            error = op.check(result)
            if error is None and reference is not None:
                if index >= len(reference) or reference[index] != sim:
                    want = reference[index] if index < len(reference) else None
                    error = (f"simulated response {sim!r} s differs from"
                             f" the reference {want!r} s")
        except Exception as exc:  # noqa: BLE001 - one failed op, keep going
            error = "raised " + "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            batch.sims.append(None)
        finally:
            op.cleanup()
        if error is not None:
            batch.failures.append(f"op {index} {op.machine} {op.label}: {error}")
    workload.reset()
    return batch


def timed_batches(workload: Any, speed: HostSpeed,
                  reference: Optional[list[float]], seconds: float,
                  observe: Any = None,
                  min_batches: int = MIN_BATCHES) -> list[Batch]:
    """Repeat batches for about ``seconds``: at least ``min_batches``, and
    no further batch once the last one's duration would overrun the
    budget."""
    batches: list[Batch] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        batches.append(run_batch(workload, speed, reference, observe))
        now = time.perf_counter()
        if (len(batches) >= min_batches
                and now - start + (now - began) > seconds):
            return batches


def summarise(batches: list[Batch]) -> tuple[int, int, list[str]]:
    attempted = sum(b.attempted for b in batches)
    failures = [f for b in batches for f in b.failures]
    return attempted, len(failures), failures


def measure(name: str, seed: int, seconds: float, record: bool) -> dict:
    from workloads import WORKLOADS

    speed = HostSpeed()
    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        workload = None  # release the previous machines before rebuilding
        workload = WORKLOADS[name](seed)
        calib_before = speed.sample()
        began = time.perf_counter()
        workload.setup()
        wall = time.perf_counter() - began
        setups.append(wall * 2 * CALIB_REF_S / (calib_before + speed.sample()))
    workload.prepare_oracle()
    reference = None if record else load_reference(name, seed)
    batches = timed_batches(workload, speed, reference, seconds)
    attempted, failed, failures = summarise(batches)
    walls = [w for b in batches for w in b.op_ms]
    cpu = [b.cpu_s for b in batches]
    calib = [c for b in batches for c in b.calib_s]
    metrics = {
        "cpu_s": statistics.median(cpu),
        "op_ms_p50": percentile(walls, 50),
        "op_ms_p90": percentile(walls, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    sims = batches[0].sims
    print(f"{name} seed={seed}: {len(batches)} batches of"
          f" {batches[0].attempted} operations; identity check"
          f" {'on' if reference else 'off (no reference for this seed)'}")
    print(f"  host speed sample median {statistics.median(calib) * 1000:.1f}"
          f" ms (reference {CALIB_REF_S * 1000:.0f} ms); unscaled cpu_s"
          f" {statistics.median(b.raw_cpu_s for b in batches):.4f} s")
    notes = {
        "cpu_s": f"median of {len(cpu)} batches",
        "op_ms_p50": f"n={len(walls)}",
        "op_ms_p90": f"n={len(walls)}"
        + ("" if len(walls) >= 100 else ", below the 100 samples p90 needs"),
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "whole process",
    }
    for key, value in metrics.items():
        print(f"  {key:12s} {value:12.4f} {END_TO_END_UNITS[key]:3s}"
              f"  ({notes[key]})")
    print(f"  failed_frac  {failed / attempted:12.4f}      ({failed} of"
          f" {attempted} operations)")
    if all(s is not None for s in sims):
        print(f"  sim.response_s_total {sum(sims)!r} s")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    if record:
        if failed or any(s is None for s in sims):
            raise SystemExit("benchmark: not recording a failing run")
        if any(b.sims != sims for b in batches):
            raise SystemExit("benchmark: batches disagree on simulated times")
        save_reference(name, seed, sims)
        print(f"  recorded {len(sims)} simulated response times for seed {seed}")
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                    for k, v in metrics.items()},
    }


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    from layers import LAYER_NAMES, BoundaryProfiler, CounterTaps
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.setup()
    workload.prepare_oracle()
    reference = load_reference(name, seed)
    speed = HostSpeed()
    plain = run_batch(workload, speed, reference)
    profiler = BoundaryProfiler(PACKAGE)
    with CounterTaps() as taps:
        batches = timed_batches(
            workload, speed, reference, seconds,
            observe=_Observer(profiler, taps), min_batches=1,
        )
    batches.insert(0, plain)
    attempted, failed, failures = summarise(batches)
    traced = batches[1:]
    traced_cpu = statistics.median(b.cpu_s for b in traced)
    per_batch = len(traced)
    first = traced[0]
    counters = Counter(first.counters)
    counters.update(taps.per_batch(per_batch))
    # Self times are scaled to the reference host like the end-to-end
    # times, by the traced batches' median host-speed sample.
    calib = statistics.median(c for b in traced for c in b.calib_s)
    ms_per_ns = CALIB_REF_S / calib / 1e6 / per_batch
    metrics: dict[str, tuple[float, str]] = {}
    for i, layer in enumerate(LAYER_NAMES):
        metrics[f"{layer}.self_ms"] = (profiler.self_ns[i] * ms_per_ns, "ms")
        metrics[f"{layer}.calls"] = (profiler.calls[i] / per_batch, "count")
    for key, unit in COUNTERS.items():
        metrics[key] = (counters.get(key, 0), unit)
    metrics["sim.kernel.events_per_cpu_s"] = (
        counters.get("sim.kernel.events", 0) / plain.cpu_s, "1/s"
    )
    sims = [s for s in first.sims if s is not None]
    metrics["sim.response_s_total"] = (sum(sims), "s")
    all_calib = [c for b in batches for c in b.calib_s]
    metrics["host.calib_ms"] = (statistics.median(all_calib) * 1000, "ms")
    metrics["trace.overhead"] = (traced_cpu / plain.cpu_s, "ratio")
    total_ns = sum(profiler.self_ns) or 1
    print(f"{name} seed={seed} traced: {per_batch} batches of"
          f" {first.attempted} operations, {len(profiler.span_layer)} spans"
          f" kept, {profiler.spans_dropped} beyond the cap")
    for i, layer in enumerate(LAYER_NAMES):
        print(f"  {layer:20s} {metrics[layer + '.self_ms'][0]:10.1f} ms"
              f" {100 * profiler.self_ns[i] / total_ns:5.1f}%"
              f" {metrics[layer + '.calls'][0]:12.0f} calls")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    os.makedirs(SPAN_DIR, exist_ok=True)
    path = os.path.join(SPAN_DIR, f"spans-{name}-seed{seed}.tsv")
    profiler.write(path)
    print(f"  spans written to {os.path.relpath(path, ROOT)}")
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


#: Exact counters reported by the traced run, with their units.
COUNTERS = {
    "sim.kernel.events": "count",
    "hardware.network.packets": "count",
    "hardware.network.control_messages": "count",
    "engine.ports.tuples_shipped": "count",
    "engine.ports.short_circuited": "count",
    "engine.operators.overflow_reactions": "count",
    "engine.concurrency.queue_wait_s": "s",
    "engine.concurrency.aborts": "count",
    "storage.spool_pages": "count",
    "teradata.page_ios": "count",
    "teradata.events": "count",
    "metrics.trace_events": "count",
}


class _Observer:
    """Switches the profiler and counter taps on around each operation."""

    def __init__(self, profiler: Any, taps: Any) -> None:
        self.profiler = profiler
        self.taps = taps

    def before(self, index: int, op: Any) -> None:
        self.profiler.op = index
        self.taps.machine = op.machine
        self.profiler.start()

    def after(self, op: Any) -> None:
        self.profiler.stop()
        self.taps.collect()


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in a fresh process; one summary table."""
    from workloads import WORKLOADS

    rows = []
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
        if not result["correct"]:
            status = 1
    print()
    if trace:
        names = sorted({k for _, r in rows for k in r["metrics"]},
                       key=lambda k: list(rows[0][1]["metrics"]).index(k))
        print(f"{'metric':42s}" + "".join(f"{n:>16s}" for n, _ in rows))
        for key in names:
            print(f"{key:42s}" + "".join(
                f"{r['metrics'][key]['value']:16.6g}" for _, r in rows))
    else:
        header = list(END_TO_END_UNITS) + ["failed_frac"]
        print(f"{'workload':16s}" + "".join(f"{h:>14s}" for h in header))
        units = [END_TO_END_UNITS[h] for h in END_TO_END_UNITS] + ["ratio"]
        print(f"{'':16s}" + "".join(f"{u:>14s}" for u in units))
        for name, result in rows:
            values = [result["metrics"][h]["value"] for h in END_TO_END_UNITS]
            values.append(result["failed"] / result["attempted"])
            print(f"{name:16s}" + "".join(f"{v:14.4f}" for v in values))
    print(json.dumps({name: result for name, result in rows}))
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite this seed's reference timeline")
    args = parser.parse_args(argv)
    _import_package()
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r};"
                     f" choose from {', '.join(WORKLOADS)}")
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
