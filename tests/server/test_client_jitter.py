"""The busy backoff schedule: exact and geometric.

The retry discipline is pinned by golden runs (E12/E13/E15 and every
serve benchmark), so a resend after ``ST_BUSY`` must fall exactly
``backoff_us * backoff_factor ** n`` after the busy answer.
"""

from repro.net import PacketNetwork
from repro.server import FileClient
from repro.server.client import PendingRequest


def make_client(host="ws", **kwargs):
    net = PacketNetwork()
    net.attach(host)
    net.attach("fileserver")
    return FileClient(net, host, **kwargs)


def schedule(client, rounds=6, now=1_000):
    """The resend schedule _schedule_resend would produce, round by round."""
    pending = PendingRequest(client.build_list(), [], now, client.backoff_us)
    delays = []
    for _ in range(rounds):
        client._schedule_resend(pending, now)
        delays.append(pending.resend_at_us - now)
        pending.resend_at_us = None
    return delays


def test_jitter_is_off_by_default_and_schedule_is_exact():
    client = make_client()
    # The pinned geometric schedule: backoff_us doubling each round.
    assert schedule(client) == [5_000 * 2 ** i for i in range(6)]
