"""The stream protocol (section 2), after Stoy and Strachey's OS6.

"A stream is an object that can produce or consume items. ... There is a
standard set of operations defined on every stream: Get ... Put ... Reset
... Test for end of input; and a few others. ... A stream is represented by
a record whose first few components contain procedures that provide that
stream's implementation of the standard operations.  The rest of the record
holds state information ... It is also possible for the record to contain
procedures that implement non-standard operations."

``Stream`` is that record: the standard operations are replaceable slots
(they "can change from time to time, even for a particular stream"), each
slot procedure receives the stream itself as its first argument and keeps
its state *in* the stream, and non-standard operations live in the same
namespace via :meth:`call`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional

from ..errors import EndOfStream, OperationNotSupported, StreamError

#: The standard operation names every stream record reserves slots for.
STANDARD_OPERATIONS = ("get", "put", "reset", "endof", "close")


class Stream:
    """A stream record: operation slots plus arbitrary state.

    Create one either by passing slot procedures directly or by subclassing
    and assigning slots in ``__init__``.  Unset standard operations raise
    :class:`OperationNotSupported` ("normally only one of [Get/Put] is
    defined").  Once closed, a stream refuses every operation with
    :class:`StreamError`; closing it again does nothing.
    """

    def __init__(
        self,
        get: Optional[Callable] = None,
        put: Optional[Callable] = None,
        reset: Optional[Callable] = None,
        endof: Optional[Callable] = None,
        close: Optional[Callable] = None,
        **state: Any,
    ) -> None:
        self.ops: Dict[str, Callable] = {}
        for name, fn in zip(STANDARD_OPERATIONS, (get, put, reset, endof, close)):
            if fn is not None:
                self.ops[name] = fn
        self.state: Dict[str, Any] = dict(state)
        self.closed = False

    # ------------------------------------------------------------------------
    # Standard operations
    # ------------------------------------------------------------------------

    def get(self) -> Any:
        """Get an item from the stream."""
        return self._invoke("get")

    def put(self, item: Any) -> None:
        """Put an item into the stream."""
        self._invoke("put", item)

    def reset(self) -> None:
        """Put the stream into its standard initial state (the exact
        meaning depends on the type of the stream)."""
        self._invoke("reset")

    def endof(self) -> bool:
        """Test for end of input."""
        return bool(self._invoke("endof"))

    def close(self) -> None:
        """Finish with the stream (flush buffers, update dates...)."""
        if self.closed:
            return
        if "close" in self.ops:
            self._invoke("close")
        self.closed = True

    # ------------------------------------------------------------------------
    # The open part: replaceable and non-standard operations
    # ------------------------------------------------------------------------

    def set_operation(self, name: str, fn: Callable) -> None:
        """Install or replace an operation slot (standard or not)."""
        self.ops[name] = fn

    def supports(self, name: str) -> bool:
        return name in self.ops

    def call(self, name: str, *args: Any) -> Any:
        """Invoke a non-standard operation by name.

        "A program that uses a non-standard operation sacrifices
        compatibility, since it will only work with streams for which that
        operation is implemented."
        """
        return self._invoke(name, *args)

    def _invoke(self, name: str, *args: Any) -> Any:
        if self.closed:
            raise StreamError(f"stream is closed; cannot {name!r}")
        fn = self.ops.get(name)
        if fn is None:
            raise OperationNotSupported(f"stream does not implement {name!r}")
        return fn(self, *args)

    # ------------------------------------------------------------------------
    # Python conveniences (not part of the 1979 protocol, but harmless)
    # ------------------------------------------------------------------------

    def __enter__(self) -> "Stream":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __iter__(self) -> Iterator[Any]:
        while not self.endof():
            yield self.get()


def copy_stream(source: Stream, sink: Stream, count: Optional[int] = None) -> int:
    """Copy items from *source* to *sink*; the universal stream idiom.

    Copies until end of input (or *count* items); returns items copied.
    """
    copied = 0
    while count is None or copied < count:
        if source.endof():
            break
        try:
            item = source.get()
        except EndOfStream:
            break
        sink.put(item)
        copied += 1
    return copied
