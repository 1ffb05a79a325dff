"""FrameAssembler under arbitrary cross-host interleaving.

The reassembler's contract: packets from different hosts may interleave
freely -- per-host order is all the network guarantees (the engine relies
on this; workstations do not take turns).  Hypothesis chooses the merge
order; the property is that any interleaving of ≥3 hosts' packet streams
completes exactly the frames that sequential delivery completes, with
identical contents, and abandons/strays nothing.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.server.protocol import (
    OP_WRITE,
    FrameAssembler,
    Request,
    encode_request,
)

HOSTS = ("alpha", "bravo", "charlie", "delta")

words = st.integers(min_value=0, max_value=0xFFFF)

#: The header packet carries 249 payload words and a continuation 256, so
#: these lengths are one packet (empty, one short of full, full), and two or
#: three packets either side of a full continuation.
EDGE_LENGTHS = (0, 248, 249, 250, 505, 506)

payloads = st.one_of(
    st.lists(words, min_size=0, max_size=700),
    st.sampled_from(EDGE_LENGTHS).flatmap(
        lambda n: st.lists(words, min_size=n, max_size=n)))


def encode_streams(per_host_payloads):
    """Each host's packet stream: one multi-packet WRITE request frame."""
    streams = []
    for i, payload in enumerate(per_host_payloads):
        request = Request(OP_WRITE, request_id=i + 1, handle=i,
                          payload=tuple(payload))
        streams.append(encode_request(request, HOSTS[i], "srv"))
    return streams


def completed_frames(assembler, packets):
    """Feed *packets*; collect completed frames keyed by source host."""
    out = {}
    for packet in packets:
        done = assembler.feed(packet)
        if done is not None:
            source, frame = done
            assert source not in out, "one frame per host in this property"
            out[source] = frame
    return out


def interleave(streams, draw):
    """Merge the streams in a hypothesis-chosen order, per-host order kept."""
    cursors = [0] * len(streams)
    merged = []
    live = [i for i, s in enumerate(streams) if s]
    while live:
        i = draw(st.sampled_from(live))
        merged.append(streams[i][cursors[i]])
        cursors[i] += 1
        if cursors[i] == len(streams[i]):
            live.remove(i)
    return merged


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(payloads, min_size=3, max_size=4), st.data())
def test_any_interleaving_equals_sequential_delivery(per_host, data):
    streams = encode_streams(per_host)

    sequential = completed_frames(
        FrameAssembler(), [p for stream in streams for p in stream])
    assembler = FrameAssembler()
    interleaved = completed_frames(assembler, interleave(streams, data.draw))

    assert set(interleaved) == set(sequential) == set(HOSTS[:len(per_host)])
    for host, frame in interleaved.items():
        expected = sequential[host]
        assert frame.payload == expected.payload
        assert frame.request_id == expected.request_id
        assert frame.op == expected.op
    assert assembler.abandoned == 0
    assert assembler.stray == 0


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(payloads, min_size=3, max_size=3), st.data())
def test_word_level_interleaving_of_continuations(per_host, data):
    """Even the tightest interleaving (alternating single packets from
    hosts whose frames all need continuations) reassembles cleanly."""
    # Force every frame to span packets: ≥300 payload words each.
    per_host = [list(p) + [7] * 300 for p in per_host]
    streams = encode_streams(per_host)
    assert all(len(s) >= 2 for s in streams)

    interleaved = completed_frames(
        FrameAssembler(), interleave(streams, data.draw))
    for i, payload in enumerate(per_host):
        assert interleaved[HOSTS[i]].payload == tuple(payload)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payloads, payloads, st.lists(payloads, min_size=2, max_size=2), st.data())
def test_a_header_mid_frame_abandons_only_that_hosts_frame(cut_short, restart,
                                                           others, data):
    """A host whose new header arrives before its frame finished: the old
    frame is discarded and counted once in ``abandoned``, the new one
    completes (one packet or several), and other hosts' frames are whole."""
    old = encode_request(Request(OP_WRITE, request_id=1, handle=0,
                                 payload=tuple(cut_short) + (7,) * 250),
                         HOSTS[0], "srv")
    sent = data.draw(st.integers(min_value=1, max_value=len(old) - 1))
    new = Request(OP_WRITE, request_id=2, handle=0, payload=tuple(restart))
    streams = encode_streams([()] + others)
    streams[0] = old[:sent] + encode_request(new, HOSTS[0], "srv")

    assembler = FrameAssembler()
    frames = completed_frames(assembler, interleave(streams, data.draw))
    assert frames[HOSTS[0]] == new
    for i, payload in enumerate(others, start=1):
        assert frames[HOSTS[i]].payload == tuple(payload)
    assert assembler.abandoned == 1
    assert assembler.stray == 0
