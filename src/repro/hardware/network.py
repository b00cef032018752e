"""Interconnect model: token ring, per-node network interfaces, messages.

Gamma's 80 Mbit/s Proteon token ring is never the bottleneck (the paper says
so explicitly); the 4 Mbit/s Unibus path between a VAX's memory and its ring
interface is.  The model therefore charges every inter-node message to three
FIFO servers — sender interface, shared ring, receiver interface — while
messages between processes on the *same* node are "short-circuited" by the
communications software and only pay a small CPU-side copy cost.

The paper's two anchor numbers are honoured:

* "Assuming seven milliseconds for a small inter-node message" — the fixed
  protocol overhead charged at the sender interface.
* 2 KB network packets moving through a 4 Mbit/s interface ⇒ ~4.1 ms of
  interface occupancy per packet, which is what throttles high-selectivity
  queries (Figures 2, 5, 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..errors import ConfigError
from ..sim import Delay, Server, Use

#: ``deliver(sim, message)``: the courier's hand-off at the destination.
Deliver = Callable[[Any, Any], None]


@dataclass(frozen=True)
class NetworkModel:
    """Timing parameters for the interconnect.

    Attributes:
        ring_bandwidth: Shared ring bandwidth, bytes/second.
        interface_bandwidth: Per-node memory-to-network path, bytes/second.
        message_overhead_s: Fixed protocol cost per message at the sender.
        short_circuit_s: Cost of an intra-node message (software copy).
    """

    ring_bandwidth: float = 80e6 / 8
    interface_bandwidth: float = 4e6 / 8
    message_overhead_s: float = 0.0055
    short_circuit_s: float = 0.0006

    def __post_init__(self) -> None:
        if self.ring_bandwidth <= 0 or self.interface_bandwidth <= 0:
            raise ConfigError("bandwidths must be positive")
        if self.message_overhead_s < 0 or self.short_circuit_s < 0:
            raise ConfigError("overheads must be non-negative")

    def ring_time(self, nbytes: int) -> float:
        return nbytes / self.ring_bandwidth

    def interface_time(self, nbytes: int) -> float:
        return nbytes / self.interface_bandwidth


class NetworkInterface:
    """The per-node memory↔network path (a Unibus on Gamma)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.server = Server(f"{name}.nic")
        self.messages = 0
        self.bytes_sent = 0


class Interconnect:
    """A shared ring plus one :class:`NetworkInterface` per node.

    ``transfer`` is a process generator: the caller is suspended for as long
    as the message occupies the sender interface, the ring and the receiver
    interface in turn — which is exactly the latency a Gamma operator
    experiences before it can reuse its output buffer.
    """

    def __init__(self, model: NetworkModel, node_names: list[str]) -> None:
        self.model = model
        self.ring = Server("ring")
        self.interfaces = {
            name: NetworkInterface(name) for name in node_names
        }
        self.messages_sent = 0
        self.messages_short_circuited = 0
        self.bytes_on_ring = 0

    def add_node(self, name: str) -> None:
        if name in self.interfaces:
            raise ConfigError(f"duplicate node name {name!r}")
        self.interfaces[name] = NetworkInterface(name)

    def transfer(
        self, src: str, dst: str, nbytes: int
    ) -> Generator[Any, Any, None]:
        """Move ``nbytes`` from node ``src`` to node ``dst``.

        Same-node messages are short-circuited: a fixed small delay, no
        interface or ring occupancy (matching Section 2 of the paper).
        """
        if src == dst:
            self.messages_short_circuited += 1
            yield Delay(self.model.short_circuit_s)
            return
        self.messages_sent += 1
        self.bytes_on_ring += nbytes
        src_nic = self.interfaces[src]
        dst_nic = self.interfaces[dst]
        src_nic.messages += 1
        src_nic.bytes_sent += nbytes
        yield Use(
            src_nic.server,
            self.model.message_overhead_s + self.model.interface_time(nbytes),
        )
        yield Use(self.ring, self.model.ring_time(nbytes))
        yield Use(dst_nic.server, self.model.interface_time(nbytes))

    def _stages(
        self, src: str, dst: str, nbytes: int
    ) -> tuple[tuple[Optional[Server], float], ...]:
        """Count one message and return its hops, as :meth:`transfer`
        would take them: ``(server, service time)`` pairs, or a single
        ``(None, delay)`` for a short-circuited same-node message."""
        model = self.model
        if src == dst:
            self.messages_short_circuited += 1
            return ((None, model.short_circuit_s),)
        self.messages_sent += 1
        self.bytes_on_ring += nbytes
        src_nic = self.interfaces[src]
        dst_nic = self.interfaces[dst]
        src_nic.messages += 1
        src_nic.bytes_sent += nbytes
        iface_time = model.interface_time(nbytes)
        return (
            (src_nic.server, model.message_overhead_s + iface_time),
            (self.ring, model.ring_time(nbytes)),
            (dst_nic.server, iface_time),
        )

    def transfer_fast(
        self,
        sim: Any,
        src: str,
        dst: str,
        nbytes: int,
        deliver: Deliver,
        message: Any,
        owner: Any = None,
    ) -> None:
        """Fire-and-forget transfer handing ``message`` to ``deliver``.

        Takes the same hops at the same simulated times as a process
        running :meth:`transfer` and then ``Put``-ting the message — the
        courier starts from one ready event, exactly where that process's
        spawn would have run — but without a generator, a
        :class:`~repro.sim.Process`, or the events that only resumed it:
        ``deliver(sim, message)`` runs inside the last hop's completion
        (``Store._deliver`` schedules no wake-up for the sender).

        ``owner`` (normally the dispatching process) is passed to every
        server's profile hook, so profiled runs execute this same path.
        """
        sim._schedule_now(
            _Courier(sim, self._stages(src, dst, nbytes), deliver, message,
                     owner)
        )

    def transfer_fanout(
        self,
        sim: Any,
        src: str,
        targets: list[tuple[str, Deliver]],
        nbytes: int,
        message: Any,
        owner: Any = None,
    ) -> None:
        """:meth:`transfer_fast` of one ``message`` to every
        ``(dst, deliver)`` target, launched from a single ready event.

        Back-to-back :meth:`transfer_fast` calls draw consecutive
        sequence numbers, so no other event can run between their
        launches; running every courier's first hop, in target order, from
        one event is therefore the same timeline with ``len(targets) - 1``
        fewer events.
        """
        if targets:
            sim._schedule_now(_launch_all, [
                _Courier(sim, self._stages(src, dst, nbytes), deliver,
                         message, owner)
                for dst, deliver in targets
            ])


class _Courier:
    """Callback chain carrying one message through the interconnect.

    Each call advances one stage: a server ``Use`` interval (or the
    short-circuit delay), and after the last one the hand-off to
    ``deliver``.  Servers see ``owner`` as the interval's owner, which is
    how a profiler attributes courier service to an operator.
    """

    __slots__ = ("sim", "stages", "i", "deliver", "message", "owner")

    def __init__(
        self,
        sim: Any,
        stages: tuple[tuple[Optional[Server], float], ...],
        deliver: Deliver,
        message: Any,
        owner: Any,
    ) -> None:
        self.sim = sim
        self.stages = stages
        self.i = 0
        self.deliver = deliver
        self.message = message
        self.owner = owner

    def __call__(self, _value: Any = None) -> None:
        i = self.i
        stages = self.stages
        if i < len(stages):
            self.i = i + 1
            server, duration = stages[i]
            if server is None:
                self.sim.call_after(duration, self)
            else:
                server._use(self.sim, duration, self, self.owner)
        else:
            self.deliver(self.sim, self.message)


def _launch_all(couriers: list[_Courier]) -> None:
    for courier in couriers:
        courier()


#: Gamma's Proteon 80 Mbit/s token ring behind 4 Mbit/s Unibus interfaces.
GAMMA_NETWORK = NetworkModel()

#: The Teradata Y-net: 12 MB/s aggregate, generous per-node injection rate
#: (the Y-net is a combining tree, so the shared stage dominates).
YNET_NETWORK = NetworkModel(
    ring_bandwidth=12e6,
    interface_bandwidth=1.5e6,
    message_overhead_s=0.004,
    short_circuit_s=0.0006,
)
