"""Golden end-time tests: the simulated timeline is a contract.

These response times were recorded from the straightforward (pre-fast-path)
simulation kernel.  Every kernel or engine optimization must keep them
**bit-identical** — an optimization that shifts a timestamp by one ULP has
changed simulated behaviour, not just made the simulator faster.  One query
per operator family: file scan, hash join, grouped aggregate, and an
index-maintaining update.
"""

from repro.bench import build_gamma
from repro.bench.harness import run_stored
from repro.engine import Query
from repro.hardware import GammaConfig
from repro.workloads.queries import join_abprime, selection_query, update_suite

N = 10_000

#: Exact simulated response times (seconds) from the reference kernel.
GOLDEN = {
    "scan": 3.1857478276422686,
    "join": 10.598602429268281,
    "aggregate": 9.055588640650395,
    "update": 0.6692377170731704,
}


def _machine():
    return build_gamma(
        GammaConfig.paper_default().with_sites(4),
        relations=[
            ("golden", N, "heap"),
            ("goldenB", N // 10, "heap"),
            ("goldenIdx", N, "indexed"),
        ],
    )


def _run_suite(profile=False):
    """One query per operator family on a fresh machine."""
    machine = _machine()
    scan = run_stored(
        machine,
        lambda into: selection_query("golden", N, 0.01, into=into),
        profile=profile,
    )
    join = run_stored(
        machine,
        lambda into: join_abprime("golden", "goldenB", key=False, into=into),
        profile=profile,
    )
    agg = machine.run(
        Query.aggregate("golden", op="sum", attr="unique1", group_by="ten"),
        profile=profile,
    )
    upd = machine.update(
        update_suite("goldenIdx", N)["modify 1 tuple (key attribute)"],
        profile=profile,
    )
    return scan, join, agg, upd


def test_golden_end_times_bit_identical():
    scan, join, agg, upd = _run_suite()
    assert scan.result_count == 100
    assert join.result_count == 1000
    assert scan.response_time == GOLDEN["scan"]
    assert join.response_time == GOLDEN["join"]
    assert agg.response_time == GOLDEN["aggregate"]
    assert upd.response_time == GOLDEN["update"]


def test_golden_end_times_with_profiling():
    """The profiler is passive: clocks stay bit-identical with it on, and
    it runs the same code — the same kernel events — as a plain run."""
    scan, join, agg, upd = _run_suite(profile=True)
    assert scan.response_time == GOLDEN["scan"]
    assert join.response_time == GOLDEN["join"]
    assert agg.response_time == GOLDEN["aggregate"]
    assert upd.response_time == GOLDEN["update"]
    for result in (scan, join, agg, upd):
        assert result.profile is not None
        assert result.profile.elapsed == result.response_time
    plain = _run_suite()
    for profiled, result in zip((scan, join, agg, upd), plain):
        assert profiled.stats["sim_events"] == result.stats["sim_events"]
    # The join profile separates the build and probe phases.
    phases = {
        phase
        for span in join.profile.spans.values()
        for phase in span.by_phase
    }
    assert "build" in phases and "probe" in phases


def test_golden_end_times_with_telemetry():
    """The telemetry sampler is passive: the kernel pulls it without
    scheduling events, so clocks stay bit-identical with sampling on."""
    from repro.metrics import TelemetrySampler

    machine = _machine()
    scan = run_stored(
        machine,
        lambda into: selection_query("golden", N, 0.01, into=into),
        telemetry=TelemetrySampler(interval=0.25),
    )
    join = run_stored(
        machine,
        lambda into: join_abprime("golden", "goldenB", key=False, into=into),
        telemetry=TelemetrySampler(interval=0.1),
    )
    agg_sampler = TelemetrySampler(interval=0.25)
    agg = machine.run(
        Query.aggregate("golden", op="sum", attr="unique1", group_by="ten"),
        telemetry=agg_sampler,
    )
    upd = machine.update(
        update_suite("goldenIdx", N)["modify 1 tuple (key attribute)"],
        telemetry=TelemetrySampler(interval=0.25),
    )
    assert scan.response_time == GOLDEN["scan"]
    assert join.response_time == GOLDEN["join"]
    assert agg.response_time == GOLDEN["aggregate"]
    assert upd.response_time == GOLDEN["update"]
    # The sampler did observe the run it rode along with.
    assert agg_sampler.samples == int(GOLDEN["aggregate"] / 0.25)
    assert agg_sampler.series["cluster.cpu.util.mean"].values
