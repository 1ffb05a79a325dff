"""The session's handle allocator: a handle still open is never granted
again, however far the 16-bit counter wraps."""

import pytest

from repro.errors import ServerError
from repro.server.session import MAX_HANDLE, Session


def test_grant_skips_a_handle_still_open():
    session = Session("ws")
    first = session.grant("first")
    for _ in range(MAX_HANDLE - 1):
        session.release(session.grant("churn"))
    assert session.grant("next") == 2
    assert session.resolve(first) == "first"


def test_grant_with_every_handle_open_raises():
    session = Session("ws")
    for _ in range(MAX_HANDLE):
        session.grant("held")
    with pytest.raises(ServerError):
        session.grant("one too many")
    assert len(session.handles) == MAX_HANDLE
