"""Model-based cluster tests: shard count must be observationally invisible.

A hypothesis-driven op sequencer runs the same mixed workload -- OPEN,
WRITE, READ, CLOSE, LIST, including bogus-handle and reopen-after-close
cases -- against a 1-shard and a 4-shard cluster and asserts every
client-visible outcome (status codes, granted handle values, result
words, payloads) is identical.  A separate determinism test reruns the
seeded load generator on a 4-shard cluster and asserts byte-identical
per-shard packs and an identical merged metrics snapshot.
"""

import pytest

from repro.errors import RequestFailed
from repro.server import build_cluster
from repro.server.loadgen import LoadGenerator

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

#: The model's name universe -- small enough that reopen/collision cases
#: are common, spread across slots so multi-shard clusters split it.
NAMES = [f"model{i}.dat" for i in range(6)]

operations = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.integers(0, 5), st.booleans()),
        st.tuples(st.just("write"), st.integers(0, 7),
                  st.integers(1, 3), st.integers(0, 512)),
        st.tuples(st.just("read"), st.integers(0, 7),
                  st.integers(1, 3), st.integers(1, 2)),
        st.tuples(st.just("close"), st.integers(0, 7)),
        st.tuples(st.just("list")),
    ),
    min_size=1, max_size=18,
)


def run_ops(system, ops):
    """Drive one op sequence; returns every client-visible outcome.

    Handle references index the pool of currently granted handles (or a
    known-bogus handle when none exist), so sequences stay meaningful --
    and identical -- at any shard count.
    """
    client = system.clients[0]
    client.pump = system.router.poll
    handles = []
    visible = []
    for op in ops:
        kind = op[0]
        try:
            if kind == "open":
                _, index, create = op
                response = client.transact(
                    client.build_open(NAMES[index], create=create))
                handles.append(response.handle)
                visible.append(("open", response.handle,
                                response.result0, response.result1))
            elif kind == "write":
                _, pick, page, nbytes = op
                handle = handles[pick % len(handles)] if handles else 99
                data = bytes((page * 31 + j) % 256 for j in range(nbytes))
                response = client.transact(
                    client.build_write(handle, page, data))
                visible.append(("write", response.result0))
            elif kind == "read":
                _, pick, page, count = op
                handle = handles[pick % len(handles)] if handles else 99
                response = client.transact(
                    client.build_read(handle, page, count))
                visible.append(("read", response.result0,
                                tuple(response.payload)))
            elif kind == "close":
                _, pick = op
                handle = handles[pick % len(handles)] if handles else 99
                client.transact(client.build_close(handle))
                if handles:
                    handles.remove(handle)
                visible.append(("close", handle))
            else:
                response = client.transact(client.build_list())
                visible.append(("list", response.result0,
                                tuple(response.payload)))
        except RequestFailed as exc:
            visible.append((kind, "error", exc.status))
    return visible


@settings(deadline=None)
@given(ops=operations)
def test_one_and_four_shard_clusters_agree_on_every_outcome(ops):
    single = build_cluster(clients=1, shards=1, seed=1979, tiny=True)
    quad = build_cluster(clients=1, shards=4, seed=1979, tiny=True)
    assert run_ops(single, ops) == run_ops(quad, ops)


def pack_state(image):
    return [(tuple(s.header.pack()), tuple(s.label.pack()), tuple(s.value))
            for s in image.sectors()]


def run_cluster_load(shards=4, clients=6, seed=7):
    system = build_cluster(clients=clients, shards=shards, seed=seed,
                           tiny=True)
    generator = LoadGenerator(system, seed=seed, file_bytes=700,
                              read_rounds=1)
    result = generator.run()
    for shard in system.shards:
        shard.fs.flush()
    return system, result


def test_same_seed_cluster_reruns_are_byte_identical():
    system_a, result_a = run_cluster_load()
    system_b, result_b = run_cluster_load()
    assert result_a.to_json() == result_b.to_json()
    assert result_a.latencies_ms == result_b.latencies_ms
    assert system_a.clock.now_us == system_b.clock.now_us
    assert system_a.stats() == system_b.stats()
    for shard_a, shard_b in zip(system_a.shards, system_b.shards):
        assert (pack_state(shard_a.fs.drive.image)
                == pack_state(shard_b.fs.drive.image))


def test_different_cluster_seeds_diverge():
    _, result_a = run_cluster_load(seed=7)
    _, result_b = run_cluster_load(seed=8)
    assert result_a.to_json() != result_b.to_json()


def test_load_outcomes_match_across_shard_counts():
    """The generator's request/error totals -- the client-visible half of
    a load run -- are shard-count independent; only timing changes."""
    _, single = run_cluster_load(shards=1)
    _, quad = run_cluster_load(shards=4)
    assert single.requests == quad.requests
    assert single.errors == quad.errors == 0
    assert single.bytes_written == quad.bytes_written


def test_every_served_file_lands_on_exactly_one_shard():
    system, result = run_cluster_load()
    assert result.errors == 0
    for index in range(len(system.clients)):
        name = f"load{index:03d}.dat"
        owners = [shard for shard in system.shards
                  if name in shard.fs.list_files()]
        assert len(owners) == 1
        assert owners[0] is system.shards[system.router.shard_map.shard_of(name)]
