"""Callback couriers: the interconnect's fire-and-forget message path.

A courier must land every message at exactly the time, and in exactly the
order, that a courier *process* running ``Interconnect.transfer`` followed
by ``Put`` would — that generator is the reference — while spending only
the events the model needs: one per server completion plus the delivery.
"""

import pytest

from repro.errors import SimulationError
from repro.hardware.network import GAMMA_NETWORK, Interconnect
from repro.sim import Get, Put, Simulation, Store

NODES = ["n0", "n1", "n2", "n3"]


def generator_courier(sim, net, src, dst, nbytes, store, message):
    """The reference: a courier process around ``transfer`` + ``Put``."""

    def courier():
        yield from net.transfer(src, dst, nbytes)
        yield Put(store, message)

    sim.spawn(courier(), name=f"courier:{src}->{dst}")


def test_remote_courier_costs_three_completions_and_one_delivery():
    sim = Simulation()
    net = Interconnect(GAMMA_NETWORK, NODES)
    store = Store("in")
    got = []

    def consumer():
        got.append((yield Get(store)))

    def sender():
        net.transfer_fast(sim, "n0", "n1", 64, store._deliver, "eos")
        return
        yield  # pragma: no cover - keeps this a generator

    sim.spawn(consumer(), name="consumer")
    sim.spawn(sender(), name="sender")
    sim.run()
    assert got == ["eos"]
    # Two process spawns, the courier's launch, three server completions
    # (sender NIC, ring, receiver NIC) and the consumer's wake-up — no
    # resume for the courier after its Put.
    assert sim.events_processed == 2 + 1 + 3 + 1
    for server in (net.interfaces["n0"].server, net.ring,
                   net.interfaces["n1"].server):
        assert server.requests == 1
    model = GAMMA_NETWORK
    assert sim.now == (
        model.message_overhead_s + model.interface_time(64)
        + model.ring_time(64) + model.interface_time(64)
    )


def test_fanout_costs_one_launch_for_all_destinations():
    sim = Simulation()
    net = Interconnect(GAMMA_NETWORK, NODES)
    stores = [Store(f"in{i}") for i in range(3)]
    targets = [("n1", stores[0]._deliver), ("n2", stores[1]._deliver),
               ("n3", stores[2]._deliver)]

    def sender():
        net.transfer_fanout(sim, "n0", targets, 64, "eos")
        return
        yield  # pragma: no cover - keeps this a generator

    sim.spawn(sender(), name="sender")
    sim.run()
    # One spawn, one launch, three completions per courier; nobody waits
    # on the stores, so delivery schedules nothing.
    assert sim.events_processed == 1 + 1 + 3 * 3
    assert [len(s) for s in stores] == [1, 1, 1]


def test_fanout_without_targets_schedules_nothing():
    sim = Simulation()
    net = Interconnect(GAMMA_NETWORK, NODES)
    net.transfer_fanout(sim, "n0", [], 64, "eos")
    assert sim.run() == 0.0
    assert sim.events_processed == 0


def _fanout_scenario(use_fanout):
    """Mixed local/remote fan-out under competing traffic.

    Returns every arrival as (time, destination index, message), in the
    order the consumers observed them, plus the final clock.
    """
    sim = Simulation()
    net = Interconnect(GAMMA_NETWORK, NODES)
    # Destinations mix short-circuited (n0) and remote targets, with n1
    # twice so two couriers share its receiver interface.
    dests = ["n1", "n0", "n2", "n1", "n3", "n0"]
    stores = [Store(f"in{i}") for i in range(len(dests))]
    log = []

    def consumer(i):
        while True:
            message = yield Get(stores[i])
            log.append((sim.now, i, message))
            if message == "eos":
                return

    def competitor(src, dst, n):
        # Process-borne transfers contending for the same interfaces.
        for _ in range(n):
            yield from net.transfer(src, dst, 2048)

    def producer():
        for i, dst in enumerate(dests):
            generator_courier(sim, net, "n0", dst, 2048, stores[i], "data")
        if use_fanout:
            net.transfer_fanout(
                sim, "n0", [(dst, s._deliver) for dst, s in zip(dests, stores)],
                64, "eos",
            )
        else:
            for dst, store in zip(dests, stores):
                generator_courier(sim, net, "n0", dst, 64, store, "eos")
        return
        yield  # pragma: no cover - keeps this a generator

    for i in range(len(dests)):
        sim.spawn(consumer(i), name=f"consumer{i}")
    sim.spawn(competitor("n0", "n2", 3), name="competitor0")
    sim.spawn(competitor("n3", "n1", 3), name="competitor1")
    sim.spawn(producer(), name="producer")
    return log, sim.run()


def test_fanout_matches_generator_couriers():
    reference, ref_end = _fanout_scenario(use_fanout=False)
    fast, fast_end = _fanout_scenario(use_fanout=True)
    assert fast == reference
    assert fast_end == ref_end
    # Every destination saw its data before its EOS.
    for i in range(6):
        assert [m for _t, d, m in fast if d == i] == ["data", "eos"]


def test_single_couriers_match_generator_couriers():
    def scenario(fast):
        sim = Simulation()
        net = Interconnect(GAMMA_NETWORK, NODES)
        store = Store("in")
        arrivals = []

        def consumer():
            for _ in range(6):
                message = yield Get(store)
                arrivals.append((sim.now, message))

        def producer(src, tag):
            for k in range(3):
                if fast:
                    net.transfer_fast(sim, src, "n1", 2048, store._deliver,
                                      (tag, k))
                else:
                    generator_courier(sim, net, src, "n1", 2048, store,
                                      (tag, k))
                yield from net.transfer(src, "n2", 64)

        sim.spawn(consumer(), name="consumer")
        sim.spawn(producer("n0", "a"), name="a")
        sim.spawn(producer("n1", "b"), name="b")
        return arrivals, sim.run()

    assert scenario(fast=True) == scenario(fast=False)


def test_deliver_into_full_store_raises():
    sim = Simulation()
    store = Store("bounded", capacity=1)
    store._deliver(sim, "first")
    with pytest.raises(SimulationError, match="full store"):
        store._deliver(sim, "second")
