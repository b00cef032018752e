"""Observing a run must not change the code it runs.

Every consumer reads its input port through ``InputPort.consume``, so a
run with the profiler, a trace buffer and a telemetry sampler attached
charges exactly the same receives — and draws exactly the same kernel
events — as the plain run it explains.
"""

from dataclasses import replace

import pytest

from repro import GammaConfig, TraceBuffer
from repro.bench import build_gamma
from repro.bench.harness import run_stored
from repro.engine import Query
from repro.engine.ports import InputPort
from repro.metrics import TelemetrySampler
from repro.workloads.queries import join_abprime

N = 2_000


def _config(algorithm):
    config = GammaConfig.paper_default().with_sites(4)
    if algorithm == "hybrid":
        # Join memory at half the building relation: the hybrid join
        # overflows and spools partitions.
        build_bytes = (N // 10) * 208 * config.hash_table_overhead
        config = config.with_join_memory(int(0.5 * build_bytes))
    return replace(config, join_algorithm=algorithm)


def _join(algorithm, **observers):
    machine = build_gamma(
        _config(algorithm),
        relations=[("A", N, "heap"), ("Bp", N // 10, "heap")],
    )
    return run_stored(
        machine,
        lambda into: join_abprime("A", "Bp", key=False, into=into),
        **observers,
    )


def _aggregate(**observers):
    machine = build_gamma(_config("simple"), relations=[("A", N, "heap")])
    return machine.run(
        Query.aggregate("A", op="sum", attr="unique1", group_by="ten"),
        **observers,
    )


RUNS = {
    "simple-join": lambda **obs: _join("simple", **obs),
    "hybrid-join-overflow": lambda **obs: _join("hybrid", **obs),
    "grouped-aggregate": _aggregate,
}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_observed_run_takes_the_plain_receive_path(monkeypatch, case):
    calls = []
    receive_effect = InputPort.receive_effect

    def counting(self, message):
        calls.append(message)
        return receive_effect(self, message)

    monkeypatch.setattr(InputPort, "receive_effect", counting)
    plain = RUNS[case]()
    plain_calls = len(calls)
    calls.clear()
    trace = TraceBuffer()
    observed = RUNS[case](
        profile=True, trace=trace, telemetry=TelemetrySampler(interval=0.05)
    )
    if case == "hybrid-join-overflow":
        assert plain.max_partitions > 1
    # Every received packet is charged through receive_effect, both ways.
    assert plain_calls == plain.stats["packets_received"] > 0
    assert len(calls) == plain_calls
    assert observed.stats["sim_events"] == plain.stats["sim_events"]
    assert observed.response_time == plain.response_time
    assert observed.result_count == plain.result_count
    assert observed.profile is not None
    assert any(
        event.get("name", "").startswith("recv:") for event in trace.events
    )
