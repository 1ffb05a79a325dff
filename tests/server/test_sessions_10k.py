"""The ten-thousand-client smoke: one server, 10k concurrent sessions.

The event-driven engine's scaling claim is that a poll cycle costs the
*ready* set, not the session count -- sleeping sessions are free.  This
smoke holds ten thousand FileClient sessions open on one server (every
station OPENs a shared file and keeps the handle), then proves each held
session still serves, with zero errors, zero rejections, and a wakeup
count proportional to the request count rather than ``sessions x polls``.

The full storm takes a few seconds of wall time; CI's engine-sweep job
runs it, and the scaled-down variant keeps the plumbing pinned in the
default suite.
"""

import pytest

from repro.server import build_system, run_session_storm


def test_session_storm_small_scale():
    storm = run_session_storm(clients=256, shared_files=8,
                              system=build_system(256, tiny=True))
    assert storm.sessions == 256
    assert storm.errors == 0 and storm.rejected == 0 and storm.evicted == 0
    assert storm.requests == 2 * 256                    # one OPEN + one READ


@pytest.mark.slow
def test_session_storm_ten_thousand_clients():
    storm = run_session_storm()                         # the real thing
    assert storm.clients == 10_000
    assert storm.sessions == 10_000, "a session per client, all concurrent"
    assert storm.errors == 0
    assert storm.rejected == 0, "waves sized under the admission window"
    assert storm.evicted == 0
    # Event-driven scaling: wakeups track served requests (one per
    # request, plus the setup uploads), NOT clients x polls.
    assert storm.requests == 20_000
    assert storm.wakeups < storm.requests * 2
