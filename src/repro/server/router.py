"""The shard router: one front door over N single-pack file servers.

"Folding a Tree into a Map" motivates the front door's shape: instead of
walking one big directory, the router hashes each file name through a
:class:`~repro.server.shardmap.ShardMap` and forwards the frame to the
one :class:`~repro.server.engine.FileServer` shard that owns the name's
slot.  Clients keep speaking the unmodified PR-5 wire protocol to the
unmodified ``"fileserver"`` host name; sharding is invisible except as
throughput.

**Frame relaying.**  The router forwards a client's frame from a
per-client *proxy* host (``fileserver.ws000`` for client ``ws000``), so
every shard sees one session -- with its own at-most-once replay cache --
per real client.  Handles are virtualized: the client holds router-issued
handles, the router maps them to ``(shard, shard handle)`` pairs and
rewrites the handle word in both directions, so a client's handle
sequence is identical whether the cluster has one shard or eight.  The
router relays the packets it received (:func:`~repro.server.protocol.relay`),
re-addressed, and writes -- and so checks -- only the header's handle
word.  It encodes only the merged LIST answer and its own ``ST_BUSY``,
``ST_BAD_HANDLE`` and ``ST_BAD_REQUEST`` answers.

**Parallel simulated time.**  Each shard machine owns its own
:class:`~repro.clock.SimClock` (bound to its host via
``PacketNetwork.attach(clock=...)``, so forwarded frames and shard
responses charge shard link time in parallel).  Every :meth:`ShardRouter.poll`
is one bulk-synchronous cycle: shard clocks are first synced up to the
router's, each shard polls on its own clock, and the router's clock then
advances to the *maximum* shard clock -- elapsed time per cycle is the
slowest shard, not the sum of shards, which is where near-linear
throughput scaling comes from (benchmark E13).

**Backpressure.**  The router aggregates admission control: a bounded
total in-flight window plus a per-shard window, both answered with
``ST_BUSY`` the client's retry/backoff already absorbs; a shard's own
``ST_BUSY`` is relayed and the request forgotten (the shard never
executed it, so the retry may be re-routed freshly).

**LIST** scatter-gathers: the frame fans out to every shard and the
name sets merge case-insensitively sorted and deduplicated -- the same
deterministic order at every shard count.  A shard answering other than
``ST_OK`` ends the scatter with its answer.

**Rebalancing** moves one slot at a time (:meth:`ShardRouter.start_rebalance`):
the router pauses only that slot's names (new OPENs get ``ST_BUSY``),
waits until the slot is drained (no open handles, nothing in flight),
ships the slot's files with the crash-safe protocol of
:mod:`repro.server.rebalance`, then flips the map.  Acknowledged writes
are never lost: a write is only acknowledged after it executed on its
shard, every serving poll flushes, and the slot cannot ship while any
write to it is outstanding.  Retries of *completed* requests keep hitting
the router's own per-client replay cache even after the name moved
shards -- requests are pinned at admission epoch, not re-hashed.

>>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
>>> from repro.net import PacketNetwork
>>> from repro.server import FileClient, FileServer
>>> net = PacketNetwork()
>>> shards = []
>>> for index in range(2):
...     fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
...     net.attach(f"shard{index:02d}", clock=fs.drive.clock)
...     shards.append(FileServer(fs, net, host=f"shard{index:02d}"))
>>> router = ShardRouter(shards, net)
>>> net.attach("ws")
>>> client = FileClient(net, "ws", pump=router.poll)
>>> _ = client.write_file("memo.txt", b"routed!")
>>> client.read_file("memo.txt")
b'routed!'
>>> "memo.txt" in client.listdir()
True
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..clock import SimClock
from ..errors import ProtocolError, ReproError, ServerError
from ..net.network import Packet, PacketNetwork
from .engine import FileServer
from .protocol import (
    OP_CLOSE,
    OP_LIST,
    OP_OPEN,
    OP_READ,
    OP_WRITE,
    FrameAssembler,
    Request,
    Response,
    ST_BAD_HANDLE,
    ST_BAD_REQUEST,
    ST_BUSY,
    ST_ERROR,
    ST_OK,
    decode_name,
    decode_names,
    encode_names,
    encode_response,
    relay,
)
from .rebalance import MANIFEST_NAME, Shipment, recover_shipment, ship_names
from .session import MAX_HANDLE, Session
from .shardmap import RebalancePlan, ShardMap

#: Default bound on requests in flight through the router, all shards.
DEFAULT_ROUTER_PENDING = 128

#: Default bound on requests in flight to any one shard.
DEFAULT_SHARD_WINDOW = 32

#: Router CPU charged per poll cycle and per routed request (the serial
#: switching cost every request pays at the front door).
ROUTER_POLL_CPU_US = 100
ROUTE_CPU_US = 40

#: Per-pack bookkeeping names that exist on every shard and never move.
_SYSTEM_NAMES = frozenset({"diskdescriptor", "sysdir"})


@dataclass
class _VirtualHandle:
    """One client-visible handle: which shard holds the real one."""

    shard: int
    handle: int
    name: str


@dataclass
class _InFlight:
    """One forwarded request awaiting its shard response(s)."""

    request: Request                 #: the client's original frame
    shard: Optional[int]             #: pinned shard; None for a scatter
    name: Optional[str] = None       #: file name, when the op has one
    sent_us: int = 0                 #: router clock when first forwarded
    packets: List[Packet] = field(default_factory=list)
    scatter_packets: Dict[int, List[Packet]] = field(default_factory=dict)
    pending_shards: Set[int] = field(default_factory=set)
    names: Set[str] = field(default_factory=set)


class _ClientState(Session):
    """The router's per-client half: a session whose handles are
    :class:`_VirtualHandle` entries, plus the proxy host it forwards from
    and its requests in flight."""

    def __init__(self, client: str, proxy: str) -> None:
        super().__init__(client)
        self.proxy = proxy
        self.assembler = FrameAssembler()
        self.inflight: "OrderedDict[int, _InFlight]" = OrderedDict()


def merge_names(name_sets) -> List[str]:
    """The scatter-gather merge: union, case-insensitive sort, dedupe.

    Per-pack bookkeeping files appear on every shard; the set union
    collapses them, and the sort gives the same order at any shard count.

    >>> merge_names([{"b.txt", "SysDir"}, {"A.txt", "SysDir"}])
    ['A.txt', 'b.txt', 'SysDir']
    """
    merged: Set[str] = set()
    for names in name_sets:
        merged.update(names)
    return sorted(merged, key=lambda name: (name.lower(), name))


class ShardRouter:
    """Routes the PR-5 wire protocol across N single-pack file servers.

    The router is passive like the engines behind it: it runs only inside
    :meth:`poll`, so every cluster run is deterministic -- the
    interleaving is exactly the caller's schedule, and the same seed
    yields byte-identical shard packs and identical metric snapshots.

    >>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
    >>> from repro.net import PacketNetwork
    >>> from repro.server import FileServer
    >>> net = PacketNetwork()
    >>> fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
    >>> net.attach("shard00", clock=fs.drive.clock)
    >>> router = ShardRouter([FileServer(fs, net, host="shard00")], net)
    >>> router.shard_map.shards
    1
    """

    def __init__(
        self,
        shards: Sequence[FileServer],
        network: PacketNetwork,
        host: str = "fileserver",
        shard_map: Optional[ShardMap] = None,
        seed: int = 1979,
        max_pending: int = DEFAULT_ROUTER_PENDING,
        per_shard_window: int = DEFAULT_SHARD_WINDOW,
    ) -> None:
        if not shards:
            raise ServerError("a cluster needs at least one shard")
        self.shards: List[FileServer] = list(shards)
        self.network = network
        self.host = host
        self.shard_map = (shard_map if shard_map is not None
                          else ShardMap(len(self.shards), seed=seed))
        if self.shard_map.shards != len(self.shards):
            raise ServerError(
                f"map covers {self.shard_map.shards} shards, "
                f"cluster has {len(self.shards)}")
        self.max_pending = max_pending
        self.per_shard_window = per_shard_window
        #: The router machine's clock is the network clock: the cluster's
        #: elapsed time, advanced to the slowest shard every poll.
        self.clock = network.clock
        self.obs = self.clock.obs
        #: Client stations transmit on their own links, concurrently with
        #: service; their uplink wire time is accounting, not elapsed
        #: time, so the front door binds a clock that is never merged
        #: back.  The payload's wire cost lands on the owning shard's
        #: link when the frame is forwarded (cut-through switching), and
        #: the response's client-facing relay lands back on this front
        #: clock -- each side of the switch pays its own wire.
        self.front_clock = SimClock()
        network.attach(self.host, queue_limit=4096, clock=self.front_clock)
        self.assembler = FrameAssembler()
        self._states: "OrderedDict[str, _ClientState]" = OrderedDict()
        self._host_to_shard = {shard.host: index
                               for index, shard in enumerate(self.shards)}
        self._outstanding = [0] * len(self.shards)
        self._pending = 0
        self._rebalance: Optional[RebalancePlan] = None
        registry = self.obs.registry
        self._c_polls = registry.counter("router.polls")
        self._c_requests = registry.counter("router.requests")
        self._c_forwarded = registry.counter("router.forwarded")
        self._c_relayed = registry.counter("router.relayed")
        self._c_replayed = registry.counter("router.replayed")
        self._c_retransmits = registry.counter("router.retransmits")
        self._c_rejected = registry.counter("router.rejected")
        self._c_shard_busy = registry.counter("router.shard_busy")
        self._c_scatters = registry.counter("router.scatters")
        self._c_paused = registry.counter("router.paused")
        self._c_stale = registry.counter("router.stale")
        self._c_errors = registry.counter("router.errors")
        self._c_shards_skipped = registry.counter("router.shards_skipped")
        self._c_rewrites = registry.counter("router.rewrites")
        self._g_pending = registry.gauge("router.pending")
        #: Scatter-gather fan-out sizes and per-request shard round trips
        #: (forward to final shard response, timestamped on the producing
        #: shard's link clock; the client-facing relay itself is charged
        #: to the front clock -- see :meth:`_relay`).
        self._h_scatter_fanout = registry.histogram("router.scatter_fanout")
        self._h_hop_us = registry.histogram("router.hop_us")

    # ------------------------------------------------------------------------
    # The event loop: one bulk-synchronous cluster cycle
    # ------------------------------------------------------------------------

    def poll(self, budget: Optional[int] = None) -> int:
        """Run one cluster cycle; returns requests served across shards.

        Sync shard clocks up to the router's, ingest and route client
        frames, poll every shard on its own clock, collect and relay the
        responses, take a rebalance step if one is pending, and advance
        the router clock to the slowest shard.
        """
        self._c_polls.inc()
        self.clock.advance_us(ROUTER_POLL_CPU_US, "router.cpu")
        for shard in self.shards:
            if shard.clock.now_us < self.clock.now_us:
                shard.clock.advance_us(self.clock.now_us - shard.clock.now_us,
                                       "router.sync")
        self._ingest()
        served = 0
        for shard in self.shards:
            # Event dispatch, not a blind scan: a shard with no packets
            # waiting, no admitted backlog, and no armed timers is asleep
            # and costs the cycle nothing.
            if shard.has_work():
                served += shard.poll(budget)
            else:
                self._c_shards_skipped.inc()
        self._collect()
        self._rebalance_step()
        horizon = max(shard.clock.now_us for shard in self.shards)
        if horizon > self.clock.now_us:
            self.clock.advance_us(horizon - self.clock.now_us, "router.sync")
        return served

    @property
    def pending(self) -> int:
        """Requests currently in flight through the router."""
        return self._pending

    def set_qos(self, client: str, qos: str) -> None:
        """Assign *client* to a QoS class on every shard.

        Shards see the router's per-client proxy host, so the class is
        registered under the proxy name -- the client itself never
        learns the cluster is sharded, QoS included.

        >>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
        >>> from repro.net import PacketNetwork
        >>> from repro.server import FileServer
        >>> net = PacketNetwork()
        >>> fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
        >>> net.attach("shard00", clock=fs.drive.clock)
        >>> router = ShardRouter([FileServer(fs, net, host="shard00")], net)
        >>> router.set_qos("ws000", "bulk")
        >>> router.shards[0].qos_of("fileserver.ws000")
        'bulk'
        """
        proxy = f"{self.host}.{client}"
        for shard in self.shards:
            shard.set_qos(proxy, qos)

    # -- inbound: client frames ------------------------------------------------

    def _ingest(self) -> None:
        while True:
            packet = self.network.receive(self.host)
            if packet is None:
                return
            try:
                completed = self.assembler.feed(packet)
            except ProtocolError:
                self._c_errors.inc()
                continue
            if completed is None:
                continue
            client, frame = completed
            if not isinstance(frame, Request):
                self._c_errors.inc()
                continue
            self._route(client, frame)

    def _state(self, client: str) -> _ClientState:
        state = self._states.get(client)
        if state is None:
            proxy = f"{self.host}.{client}"
            self.network.attach(proxy, queue_limit=4096)
            state = self._states[client] = _ClientState(client, proxy)
        return state

    def _route(self, client: str, request: Request) -> None:
        state = self._state(client)
        request_id = request.request_id
        cached = state.replay(request_id)
        if cached is not None:
            # The at-most-once answer survives rebalancing: the cache is
            # the router's own, keyed by client and id, not by shard.
            self._c_replayed.inc()
            for packet in cached:
                self.network.send(packet)
            return
        ctx = state.inflight.get(request_id)
        if ctx is not None:
            # A retry of an unanswered request: re-forward to the shard
            # pinned at admission epoch -- never re-hash, the name may
            # have moved since and the pinned shard holds the replay.
            self._c_retransmits.inc()
            self._retransmit(ctx)
            return
        self.clock.advance_us(ROUTE_CPU_US, "router.cpu")
        self._c_requests.inc()
        if self._pending >= self.max_pending:
            self._c_rejected.inc()
            self._respond_local(state, Response(ST_BUSY, request_id),
                                remember=False)
            return
        obs = self.obs
        if obs.tracing:
            with obs.span("router.route", "router", op=request.op_name,
                          client=client, rid=request_id,
                          trace_id=f"{client}#{request_id}"):
                self._route_new(state, request)
            return
        self._route_new(state, request)

    def _route_new(self, state: _ClientState, request: Request) -> None:
        """Send an admitted new request on by its op (span-wrapped in
        :meth:`_route` when tracing)."""
        if request.op == OP_LIST:
            self._route_scatter(state, request)
        elif request.op == OP_OPEN:
            self._route_open(state, request)
        else:
            self._route_handle_op(state, request)

    def _route_open(self, state: _ClientState, request: Request) -> None:
        try:
            name = decode_name(request.payload)
        except ProtocolError:
            self._respond_local(state, Response(ST_BAD_REQUEST,
                                                request.request_id))
            return
        opening = sum(1 for ctx in state.inflight.values() if ctx.request.op == OP_OPEN)
        if len(state.handles) + opening >= MAX_HANDLE:
            # Every handle is held or promised to an OPEN in flight: the
            # shard's answer would find none to grant, so forward nothing.
            self._c_errors.inc()
            self._respond_local(state, Response(ST_ERROR, request.request_id))
            return
        if self._paused(name):
            self._c_paused.inc()
            self._respond_local(state, Response(ST_BUSY, request.request_id),
                                remember=False)
            return
        self._admit(state, request, self.shard_map.shard_of(name), name=name)

    def _route_handle_op(self, state: _ClientState, request: Request) -> None:
        vhandle = state.resolve(request.handle)
        if vhandle is None:
            self._respond_local(state, Response(ST_BAD_HANDLE,
                                                request.request_id))
            return
        self._admit(state, request, vhandle.shard, name=vhandle.name,
                    handle=vhandle.handle)

    def _admit(self, state: _ClientState, request: Request, shard: int,
               name: Optional[str] = None,
               handle: Optional[int] = None) -> None:
        """Forward *request* to *shard*, its handle word set to the shard's
        *handle* when it names an open file."""
        if self._outstanding[shard] >= self.per_shard_window:
            self._c_rejected.inc()
            self._respond_local(state, Response(ST_BUSY, request.request_id),
                                remember=False)
            return
        packets = relay(request, state.proxy, self.shards[shard].host, handle)
        ctx = _InFlight(request=request, shard=shard, name=name,
                        sent_us=self.clock.now_us, packets=packets)
        state.inflight[request.request_id] = ctx
        self._pending += 1
        self._outstanding[shard] += 1
        self._g_pending.set(self._pending)
        for packet in packets:
            self.network.send(packet)
        self._c_forwarded.inc()

    def _route_scatter(self, state: _ClientState, request: Request) -> None:
        if any(count >= self.per_shard_window for count in self._outstanding):
            self._c_rejected.inc()
            self._respond_local(state, Response(ST_BUSY, request.request_id),
                                remember=False)
            return
        with self.obs.span("router.scatter", "router", shards=len(self.shards)):
            ctx = _InFlight(request=request, shard=None,
                            sent_us=self.clock.now_us)
            self._h_scatter_fanout.observe(len(self.shards))
            ctx.pending_shards = set(range(len(self.shards)))
            for index, shard in enumerate(self.shards):
                packets = relay(request, state.proxy, shard.host)
                ctx.scatter_packets[index] = packets
                self._outstanding[index] += 1
                for packet in packets:
                    self.network.send(packet)
            state.inflight[request.request_id] = ctx
            self._pending += 1
            self._g_pending.set(self._pending)
            self._c_scatters.inc()

    def _retransmit(self, ctx: _InFlight) -> None:
        if ctx.shard is not None:
            for packet in ctx.packets:
                self.network.send(packet)
            return
        for index in sorted(ctx.pending_shards):
            for packet in ctx.scatter_packets[index]:
                self.network.send(packet)

    # -- outbound: shard responses ---------------------------------------------

    def _collect(self) -> None:
        for state in list(self._states.values()):
            if not self.network.pending(state.proxy):
                continue        # a sleeping client costs the cycle nothing
            while True:
                packet = self.network.receive(state.proxy)
                if packet is None:
                    break
                try:
                    completed = state.assembler.feed(packet)
                except ProtocolError:
                    self._c_errors.inc()
                    continue
                if completed is None:
                    continue
                source, frame = completed
                if not isinstance(frame, Response):
                    self._c_errors.inc()
                    continue
                self._deliver(state, source, frame)

    def _deliver(self, state: _ClientState, source: str,
                 response: Response) -> None:
        ctx = state.inflight.get(response.request_id)
        shard = self._host_to_shard.get(source)
        if ctx is None or shard is None:
            self._c_stale.inc()
            return
        if ctx.shard is not None:
            if shard != ctx.shard:
                self._c_stale.inc()
                return
            self._finish(state, ctx, shard, response)
        else:
            self._gather(state, ctx, shard, response)

    def _drop(self, state: _ClientState, ctx: _InFlight) -> None:
        state.inflight.pop(ctx.request.request_id, None)
        self._pending -= 1
        self._g_pending.set(self._pending)
        if ctx.shard is not None:
            self._outstanding[ctx.shard] -= 1
        else:
            for index in ctx.pending_shards:
                self._outstanding[index] -= 1
            ctx.pending_shards = set()

    def _finish(self, state: _ClientState, ctx: _InFlight, shard: int,
                response: Response) -> None:
        self._drop(state, ctx)
        if response.status == ST_BUSY:
            # The shard never executed it: relay, forget, let the retry
            # be admitted (and routed) fresh.
            self._c_shard_busy.inc()
            self._relay(state, response.request_id,
                        relay(response, self.host, state.client),
                        remember=False)
            return
        # The round trip through the shard, on the producing shard's link
        # clock (the router's own clock has not yet advanced to this
        # cycle's horizon when responses are collected).
        link = self.shards[shard].clock
        self._h_hop_us.observe(max(0, link.now_us - ctx.sent_us))
        handle = self._rewrite(state, ctx, shard, response)
        self._relay(state, response.request_id,
                    relay(response, self.host, state.client, handle))
        self._c_relayed.inc()

    def _rewrite(self, state: _ClientState, ctx: _InFlight, shard: int,
                 response: Response) -> Optional[int]:
        """The handle word of a shard response in the client's handle
        space, or None when the shard's own word stands."""
        if not response.ok:
            return None
        op = ctx.request.op
        if op == OP_OPEN:
            self._c_rewrites.inc()
            return state.grant(
                _VirtualHandle(shard, response.handle, ctx.name))
        if op in (OP_READ, OP_WRITE):
            self._c_rewrites.inc()
            return ctx.request.handle
        if op == OP_CLOSE:
            state.release(ctx.request.handle)
        return None

    def _gather(self, state: _ClientState, ctx: _InFlight, shard: int,
                response: Response) -> None:
        if response.status != ST_BUSY and shard not in ctx.pending_shards:
            self._c_stale.inc()
            return
        if not response.ok:
            # Busy or failed, one shard's answer ends the scatter: a
            # listing without that shard's names would be wrong.
            self._finish(state, ctx, shard, response)
            return
        try:
            listed = decode_names(response.payload)
        except ProtocolError:
            # Not this shard's answer: count it and keep waiting.
            self._c_errors.inc()
            return
        ctx.pending_shards.discard(shard)
        self._outstanding[shard] -= 1
        ctx.names.update(listed)
        if ctx.pending_shards:
            return
        self._drop(state, ctx)
        link = self.shards[shard].clock
        self._h_hop_us.observe(max(0, link.now_us - ctx.sent_us))
        names = merge_names([ctx.names])
        merged = Response(ST_OK, response.request_id, result0=len(names),
                          payload=encode_names(names))
        self._relay(state, response.request_id,
                    encode_response(merged, self.host, state.client))
        self._c_relayed.inc()

    def _relay(self, state: _ClientState, request_id: int,
               packets: List[Packet], remember: bool = True) -> None:
        """Send a response's packets to the client on the switch's
        **downlink** (the front clock), and cache them for retries.

        The shard's link already carried this response once, shard to
        proxy, on the shard's own clock; relaying it proxy-to-client is
        the client-facing half of the switch, which -- like the client
        uplink -- is accounting, not cluster elapsed time.  Charging it
        to the shard again (as the PR-6 relay did) serialized every
        response's wire time twice on the shard clock and was the single
        largest term in the E15 capacity knee; moving it to the front
        clock is what benchmark E17 measures.  The shard's link clock
        still timestamps the hop histogram (the caller observes it): the
        round trip is the shard's story.
        """
        for packet in packets:
            self.network.send(packet, clock=self.front_clock)
        if remember:
            state.remember(request_id, packets)

    def _respond_local(self, state: _ClientState, response: Response,
                       remember: bool = True) -> None:
        """A router-generated response (bad handle, bad request, busy)."""
        packets = encode_response(response, self.host, state.client)
        for packet in packets:
            self.network.send(packet)
        if remember:
            state.remember(response.request_id, packets)

    # ------------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------------

    def start_rebalance(self, slot: int, target: int) -> RebalancePlan:
        """Begin moving *slot* to shard *target*.

        The slot's names pause immediately (new OPENs answer ``ST_BUSY``);
        the actual shipment happens inside a later :meth:`poll`, once
        nothing holds the slot open.  One rebalance at a time.

        >>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
        >>> from repro.net import PacketNetwork
        >>> from repro.server import FileServer
        >>> net = PacketNetwork(); shards = []
        >>> for index in range(2):
        ...     fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
        ...     net.attach(f"shard{index:02d}", clock=fs.drive.clock)
        ...     shards.append(FileServer(fs, net, host=f"shard{index:02d}"))
        >>> router = ShardRouter(shards, net)
        >>> plan = router.start_rebalance(router.shard_map.shard_slots(0)[0], 1)
        >>> router.rebalancing
        True
        >>> _ = router.poll()        # drained immediately: ships and applies
        >>> router.rebalancing
        False
        """
        if self._rebalance is not None:
            raise ServerError("a rebalance is already in progress")
        plan = self.shard_map.plan_move(slot, target)
        self._rebalance = plan
        return plan

    @property
    def rebalancing(self) -> bool:
        """True while a started rebalance has not yet shipped."""
        return self._rebalance is not None

    def _paused(self, name: str) -> bool:
        return (self._rebalance is not None
                and self.shard_map.slot_of(name) == self._rebalance.slot)

    def _slot_drained(self, slot: int) -> bool:
        for state in self._states.values():
            for vhandle in state.handles.values():
                if self.shard_map.slot_of(vhandle.name) == slot:
                    return False
            for ctx in state.inflight.values():
                if (ctx.name is not None
                        and self.shard_map.slot_of(ctx.name) == slot):
                    return False
        return True

    def _rebalance_step(self) -> None:
        plan = self._rebalance
        if plan is None or not self._slot_drained(plan.slot):
            return
        source_fs = self.shards[plan.source].fs
        target_fs = self.shards[plan.target].fs
        names = [name for name in source_fs.list_files()
                 if name.lower() not in _SYSTEM_NAMES
                 and self.shard_map.slot_of(name) == plan.slot]
        if names:
            ship_names(source_fs, target_fs, names, plan.slot,
                       plan.source, plan.target)
        self.shard_map.apply(plan)
        # Created on first use, like ``router.promotions``: a cluster
        # that never rebalances exports neither counter.
        registry = self.obs.registry
        registry.counter("router.rebalances").inc()
        registry.counter("router.shipped_names").inc(len(names))
        self._rebalance = None

    # ------------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------------

    def promote_shard(self, index: int, server: FileServer) -> None:
        """Swap shard *index* for its promoted standby (see
        :func:`repro.server.replica.promote`).

        The replacement serves the same files, possibly at a new host, so
        the shard map is untouched -- names keep hashing to the same
        index.  What did die with the old machine is dropped here: requests
        in flight to it are forgotten (the clients' retries are admitted
        fresh and forwarded to the replacement), and virtual handles into
        it are revoked (the shard's sessions are gone, so the next use
        answers ``ST_BAD_HANDLE`` and the client re-opens).  The router's
        own per-client replay caches survive untouched: a retry of a
        request that completed *before* the crash still gets the cached
        response, never a re-execution -- at-most-once holds across the
        failover.
        """
        self.shards[index] = server
        self._host_to_shard = {shard.host: i
                               for i, shard in enumerate(self.shards)}
        for state in self._states.values():
            doomed = [rid for rid, ctx in state.inflight.items()
                      if (ctx.shard == index
                          or (ctx.shard is None
                              and index in ctx.pending_shards))]
            for rid in doomed:
                self._drop(state, state.inflight[rid])
            revoked = [vh for vh, vhandle in state.handles.items()
                       if vhandle.shard == index]
            for vh in revoked:
                state.release(vh)
        self._outstanding[index] = 0
        self.obs.registry.counter("router.promotions").inc()

    # ------------------------------------------------------------------------
    # Restart and recovery
    # ------------------------------------------------------------------------

    def recover(self) -> List[Shipment]:
        """Converge any crashed shipment, then adopt placement from packs.

        Call once after (re)mounting the shard packs.  Every pack is
        checked for a surviving shipment manifest: a committed one rolls
        the move forward, wreckage without one rolls back.  The map then
        re-learns slot placement from where files actually live
        (:meth:`adopt_placement`) -- the packs are the source of truth,
        so no separate placement store can disagree with them.
        """
        shipments: List[Shipment] = []
        for index, shard in enumerate(self.shards):
            source = index
            try:
                data = shard.fs.open_file(MANIFEST_NAME).read_data()
                source = Shipment.decode(data).source
            except (ReproError, ValueError, IndexError, UnicodeDecodeError):
                pass
            source = min(max(source, 0), len(self.shards) - 1)
            shipment = recover_shipment(self.shards[source].fs, shard.fs)
            if shipment is not None:
                shipments.append(shipment)
        self.adopt_placement()
        return shipments

    def adopt_placement(self) -> None:
        """Point every populated slot at the shard that holds its files.

        Raises :class:`~repro.errors.ServerError` if two packs hold names
        of the same slot -- the invariant :func:`recover_shipment`
        guarantees can only break through outside interference.
        """
        owners: Dict[int, int] = {}
        for index, shard in enumerate(self.shards):
            for name in shard.fs.list_files():
                if name.lower() in _SYSTEM_NAMES:
                    continue
                slot = self.shard_map.slot_of(name)
                previous = owners.setdefault(slot, index)
                if previous != index:
                    raise ServerError(
                        f"slot {slot} has files on shards {previous} and "
                        f"{index}: packs disagree on placement")
        for slot, owner in sorted(owners.items()):
            if self.shard_map.assignment[slot] != owner:
                self.shard_map.assignment[slot] = owner
                self.shard_map.epoch += 1

    # ------------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """The router's own counters out of the unified snapshot."""
        return {name: value for name, value in self.obs.stats().items()
                if name.startswith("router.")}

    def __repr__(self) -> str:
        return (f"ShardRouter({self.host!r}, shards={len(self.shards)}, "
                f"pending={self._pending}, epoch={self.shard_map.epoch})")
