"""Per-client session state: open handles and the at-most-once replay cache.

The server keeps one :class:`Session` per client host.  A session owns the
client's open-file handles and caches the encoded response of recent
requests keyed by request id -- a retried request id is answered from the
cache without re-executing, which is what makes client retries safe for
non-idempotent operations like page appends.  The shard router keeps one
per client too, its handles naming ``(shard, shard handle)`` pairs.

>>> from repro.server.session import Session
>>> session = Session("workstation")
>>> handle = session.grant("memo.txt")
>>> handle, session.resolve(handle)
(1, 'memo.txt')
>>> _ = session.release(handle)
>>> session.resolve(handle) is None
True
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from ..errors import ServerError

#: Cached replies kept per session; a retry storm deeper than this falls
#: back to re-execution, so the cache is sized above the client's retry cap.
REPLAY_CACHE_SIZE = 16

#: Handles cycle within a 16-bit word (the frame's handle field).
MAX_HANDLE = 0xFFFF


class Session:
    """One client's server-side state machine.

    A session is created on the client's first admitted request and lives
    for the server's lifetime.  Its states per handle are simply
    *open* (present in ``handles``) and *closed* (absent); the protocol
    has no half-open states because every request is a complete frame.
    """

    def __init__(self, client: str) -> None:
        self.client = client
        #: Open handles and what each was granted for (the server's
        #: :class:`~repro.fs.file.AltoFile`, the router's shard handle).
        self.handles: "OrderedDict[int, object]" = OrderedDict()
        self._next_handle = 1
        self._replies: "OrderedDict[int, List]" = OrderedDict()

    # -- handles --------------------------------------------------------------

    def grant(self, target) -> int:
        """Allocate a handle for *target*; handles are session-scoped.

        The counter wraps within the handle word and skips every handle
        still open, so a long-held handle is never granted twice.  With
        all ``MAX_HANDLE`` open it raises :class:`~repro.errors.ServerError`;
        the server and the router answer such an OPEN ``ST_ERROR`` first.
        """
        if len(self.handles) >= MAX_HANDLE:
            raise ServerError(f"{self.client} holds all {MAX_HANDLE} handles")
        handle = self._next_handle
        while handle in self.handles:
            handle = handle % MAX_HANDLE + 1
        self._next_handle = handle % MAX_HANDLE + 1
        self.handles[handle] = target
        return handle

    def resolve(self, handle: int):
        """What *handle* was granted for, or None (the ``ST_BAD_HANDLE``
        path)."""
        return self.handles.get(handle)

    def release(self, handle: int) -> bool:
        """Close a handle; returns False when it was not open."""
        return self.handles.pop(handle, None) is not None

    # -- the replay cache -----------------------------------------------------

    def replay(self, request_id: int) -> Optional[List]:
        """The cached response packets for a request id, or None."""
        return self._replies.get(request_id)

    def remember(self, request_id: int, packets: List) -> None:
        """Cache the encoded response for *request_id* (bounded FIFO)."""
        self._replies[request_id] = packets
        while len(self._replies) > REPLAY_CACHE_SIZE:
            self._replies.popitem(last=False)

    def __repr__(self) -> str:
        return f"Session({self.client!r}, handles={len(self.handles)})"
