"""``repro.server`` -- the concurrent multi-client file-server subsystem.

Section 5.2's file-server configuration, promoted from an example into a
first-class package: a deterministic, simulated-time, **event-driven**
request engine (:class:`~repro.server.engine.FileServer`) multiplexing
many client sessions over a :class:`~repro.net.network.PacketNetwork`
onto one :class:`~repro.fs.filesystem.FileSystem` -- sessions sleep until
a packet, timer, or flush wakes them, are scheduled under weighted QoS
classes (:mod:`~repro.server.qos`), and are answered ``ST_BUSY`` once
``max_pending`` requests wait.  Around the engine: a framed wire
protocol with error codes (:mod:`~repro.server.protocol`), per-session
state with at-most-once retry semantics (:mod:`~repro.server.session`),
a client with timeout and exponential backoff
(:class:`~repro.server.client.FileClient`), and a seeded load generator (:mod:`~repro.server.loadgen`) that can hold ten
thousand concurrent sessions open (:func:`~repro.server.loadgen.run_session_storm`).

See ``SERVER.md`` for the wire-protocol specification and
``ARCHITECTURE.md`` for where the subsystem sits in the layer map.  The
CLI entry point is ``python -m repro serve``.

>>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
>>> from repro.net import PacketNetwork
>>> from repro.server import FileClient, FileServer
>>> fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
>>> net = PacketNetwork(clock=fs.drive.clock)
>>> net.attach("fileserver"); net.attach("ws")
>>> client = FileClient(net, "ws", pump=FileServer(fs, net).poll)
>>> _ = client.write_file("hello.txt", b"served!")
>>> client.read_file("hello.txt")
b'served!'
"""

from ..exports import lazy_exports

lazy_exports(globals(), {
    "client": ("FileClient", "PendingRequest"),
    "engine": ("DEFAULT_MAX_PENDING", "FileServer"),
    "events": ("Event", "EventQueue"),
    "loadgen": ("ClusterSystem", "LoadGenerator", "LoadResult",
                "ServedSystem", "SessionStormResult", "build_cluster",
                "build_system", "run_session_storm"),
    "qos": ("DEFAULT_QOS_WEIGHTS", "QOS_BULK", "QOS_CLASSES",
            "QOS_INTERACTIVE", "QOS_MAINTENANCE"),
    "protocol": ("FLAG_CREATE", "FrameAssembler", "MAX_BATCH_PAGES",
                 "OP_CLOSE", "OP_LIST", "OP_OPEN", "OP_READ", "OP_WRITE",
                 "Request", "Response", "ST_BAD_HANDLE", "ST_BAD_PAGE",
                 "ST_BAD_REQUEST", "ST_BUSY", "ST_ERROR", "ST_NOT_FOUND",
                 "ST_OK", "ST_TOO_LARGE", "encode_request", "encode_response"),
    "failover": ("FailoverReport", "failover_crash_sweep", "failover_drill"),
    "rebalance": ("Shipment", "recover_shipment", "ship_names"),
    "replica": ("PromotionReport", "ReplicaStandby", "ReplicatedFileServer",
                "ReplicationPrimary", "promote"),
    "router": ("ShardRouter", "merge_names"),
    "session": ("Session",),
    "shardmap": ("RebalancePlan", "ShardMap", "hash_name"),
})
