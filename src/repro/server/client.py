"""The client side: framing, timeout, retry with exponential backoff.

:class:`FileClient` issues protocol requests and waits for matching
responses.  Three things can go wrong on the wire, and the client absorbs
all of them deterministically:

* a request or response **packet is dropped** (a full receive queue --
  datagram semantics): the client times out and resends the *same*
  request id, which the server answers from its replay cache without
  re-executing;
* the server answers **``ST_BUSY``** (admission queue full): the client
  waits out an exponentially growing backoff before resending, on the
  exact geometric schedule ``backoff_us * backoff_factor ** n``;
* a **stale response** arrives for an id the client gave up on: it is
  discarded by id matching.

The waiting loop (:meth:`FileClient.wait`) advances simulated time in
``poll_interval_us`` steps and calls the optional ``pump`` callable
(normally ``server.poll``) so the server runs -- in this single-threaded
simulation the client's wait loop *is* the machine's idle loop.

>>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
>>> from repro.net import PacketNetwork
>>> from repro.server import FileClient, FileServer
>>> fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
>>> net = PacketNetwork(clock=fs.drive.clock)
>>> net.attach("fileserver"); net.attach("ws")
>>> server = FileServer(fs, net)
>>> client = FileClient(net, "ws", pump=server.poll)
>>> _ = client.write_file("greeting.txt", b"hello")
>>> sorted(client.listdir())[:2]
['DiskDescriptor', 'SysDir']
>>> client.read_file("greeting.txt")
b'hello'
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..errors import ProtocolError, RequestFailed, RequestTimeout
from ..fs.file import FULL_PAGE
from ..net.network import PacketNetwork
from ..words import bytes_to_words, words_to_bytes
from .protocol import (
    FLAG_CREATE,
    FrameAssembler,
    MAX_BATCH_PAGES,
    OP_CLOSE,
    OP_LIST,
    OP_OPEN,
    OP_READ,
    OP_WRITE,
    Request,
    Response,
    ST_BUSY,
    ST_NAMES,
    ST_OK,
    _frame,
    decode_names,
    encode_name,
    encode_request,
)

#: Words of file data per page (a page is 256 words / 512 bytes).
PAGE_WORDS = FULL_PAGE // 2

#: Default client timing parameters (simulated microseconds).
DEFAULT_TIMEOUT_US = 40_000
DEFAULT_BACKOFF_US = 5_000
DEFAULT_POLL_INTERVAL_US = 1_000
DEFAULT_MAX_RETRIES = 8


def upload_chunks(data: bytes) -> List[Tuple[int, bytes]]:
    """The upload schedule of *data* as ``(page, bytes)`` WRITEs: full
    pages, then a short tail page, possibly empty, as ``AltoFile.write_data``
    writes them (the server promotes a staged page as the next one arrives).

    >>> [(page, len(chunk)) for page, chunk in upload_chunks(bytes(1024))]
    [(1, 512), (2, 512), (3, 0)]
    """
    return [(page, data[(page - 1) * FULL_PAGE: page * FULL_PAGE])
            for page in range(1, len(data) // FULL_PAGE + 2)]


class PendingRequest:
    """One in-flight request: its packets and retry state."""

    __slots__ = ("request", "packets", "first_sent_us", "last_sent_us",
                 "attempts", "backoff_us", "resend_at_us")

    def __init__(self, request: Request, packets, now_us: int,
                 backoff_us: int) -> None:
        self.request = request
        self.packets = packets
        self.first_sent_us = now_us
        self.last_sent_us = now_us
        self.attempts = 1
        self.backoff_us = backoff_us
        #: When set, a scheduled resend (the ST_BUSY backoff path).
        self.resend_at_us: Optional[int] = None


class FileClient:
    """A session's client half: request framing plus the retry discipline.

    High-level operations (:meth:`read_file`, :meth:`write_file`,
    :meth:`listdir`) are built from the five protocol requests; the
    request *builders* (``build_open`` and friends) are public so load
    generators can drive many clients concurrently at frame granularity.
    """

    def __init__(
        self,
        network: PacketNetwork,
        host: str,
        server: str = "fileserver",
        pump: Optional[Callable] = None,
        timeout_us: int = DEFAULT_TIMEOUT_US,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_us: int = DEFAULT_BACKOFF_US,
        backoff_factor: int = 2,
        poll_interval_us: int = DEFAULT_POLL_INTERVAL_US,
        read_batch_pages: int = MAX_BATCH_PAGES,
    ) -> None:
        self.network = network
        self.host = host
        self.server = server
        self.pump = pump
        self.clock = network.clock
        self.timeout_us = timeout_us
        self.max_retries = max_retries
        self.backoff_us = backoff_us
        self.backoff_factor = backoff_factor
        self.poll_interval_us = poll_interval_us
        self.read_batch_pages = min(read_batch_pages, MAX_BATCH_PAGES)
        self.assembler = FrameAssembler()
        self._next_id = 1
        self.obs = self.clock.obs
        registry = self.obs.registry
        self._c_requests = registry.counter("server.client.requests")
        self._c_retries = registry.counter("server.client.retries")
        self._c_busy = registry.counter("server.client.busy_retries")
        self._c_stale = registry.counter("server.client.stale_replies")

    # ------------------------------------------------------------------------
    # Request builders (used directly by the load generator)
    # ------------------------------------------------------------------------

    def _take_id(self) -> int:
        request_id = self._next_id
        self._next_id = request_id % 0xFFFF + 1
        return request_id

    def build_open(self, name: str, create: bool = False) -> Request:
        return Request(OP_OPEN, self._take_id(),
                       arg0=FLAG_CREATE if create else 0,
                       payload=encode_name(name))

    def build_read(self, handle: int, first_page: int, count: int) -> Request:
        return Request(OP_READ, self._take_id(), handle=handle,
                       arg0=first_page, arg1=count)

    def build_write(self, handle: int, page: int, data: bytes) -> Request:
        if len(data) > FULL_PAGE:
            raise ValueError(f"one WRITE carries at most {FULL_PAGE} bytes")
        # bytes_to_words makes words: only the header words are checked.
        return _frame(Request, OP_WRITE, self._take_id(), handle, page,
                      len(data), tuple(bytes_to_words(data)))

    def build_close(self, handle: int) -> Request:
        return Request(OP_CLOSE, self._take_id(), handle=handle)

    def build_list(self) -> Request:
        return Request(OP_LIST, self._take_id())

    # ------------------------------------------------------------------------
    # The send / wait / retry machinery
    # ------------------------------------------------------------------------

    def submit(self, request: Request) -> PendingRequest:
        """Send *request*; returns the pending-state handle for :meth:`step`."""
        packets = encode_request(request, self.host, self.server)
        for packet in packets:
            self.network.send(packet)
        self._c_requests.inc()
        return PendingRequest(request, packets, self.clock.now_us,
                              self.backoff_us)

    def step(self, pending: PendingRequest) -> Optional[Response]:
        """Advance one pending request: check arrivals, time out, resend.

        Returns the matching response when it has arrived; None while the
        request is still outstanding.  Raises
        :class:`~repro.errors.RequestTimeout` once retries are exhausted.
        """
        now = self.clock.now_us
        response = self._check_arrivals(pending)
        if response is not None:
            if response.status == ST_BUSY:
                self._c_busy.inc()
                self._schedule_resend(pending, now)
                return None
            tracer = self.obs.tracer
            if tracer.enabled:
                # The whole client-visible request, first send to matched
                # response, on this station's own track of the shared
                # network clock's lane.  Every client station records its
                # requests under one trace_id key the router and shard
                # spans share, which is what stitches the lanes together.
                request = pending.request
                tracer.complete(
                    f"client.{request.op_name.lower()}",
                    pending.first_sent_us, now,
                    category="client",
                    track=tracer.track(f"client {self.host}"),
                    args={"trace_id": f"{self.host}#{request.request_id}",
                          "rid": request.request_id,
                          "client": self.host,
                          "attempts": pending.attempts,
                          "status": ST_NAMES.get(response.status,
                                                 str(response.status))})
            return response
        if pending.resend_at_us is not None:
            if now >= pending.resend_at_us:
                self._resend(pending, now)
            return None
        if now - pending.last_sent_us >= self.timeout_us:
            self._c_retries.inc()
            self._schedule_resend(pending, now, immediately=True)
        return None

    def _check_arrivals(self, pending: PendingRequest) -> Optional[Response]:
        while True:
            packet = self.network.receive(self.host)
            if packet is None:
                return None
            try:
                completed = self.assembler.feed(packet)
            except ProtocolError:
                # Not an answer: count it and keep waiting.  Created on
                # first use, so a run that sees none exports no counter.
                self.obs.registry.counter("server.client.errors").inc()
                continue
            if completed is None:
                continue
            _, frame = completed
            if (not isinstance(frame, Response)
                    or frame.request_id != pending.request.request_id):
                self._c_stale.inc()
                continue
            return frame

    def _schedule_resend(self, pending: PendingRequest, now: int,
                         immediately: bool = False) -> None:
        if pending.attempts > self.max_retries:
            raise RequestTimeout(
                f"request {pending.request.request_id} "
                f"({pending.request.op_name}) got no answer after "
                f"{pending.attempts} attempts")
        if immediately:
            self._resend(pending, now)
        else:
            pending.resend_at_us = now + pending.backoff_us
            pending.backoff_us *= self.backoff_factor

    def _resend(self, pending: PendingRequest, now: int) -> None:
        for packet in pending.packets:
            self.network.send(packet)
        pending.attempts += 1
        pending.last_sent_us = now
        pending.resend_at_us = None

    def wait(self, pending: PendingRequest) -> Response:
        """Pump the server, :meth:`step`, and advance ``poll_interval_us``
        until *pending* is answered; returns the answer, whatever its
        status (``ST_BUSY`` aside, which the retry discipline absorbs)."""
        while True:
            if self.pump is not None:
                self.pump()
            response = self.step(pending)
            if response is not None:
                return response
            self.clock.advance_us(self.poll_interval_us, "server.client.wait")

    def transact(self, request: Request) -> Response:
        """Submit and :meth:`wait`.

        Raises :class:`~repro.errors.RequestFailed` on any non-OK status
        (after the busy/retry discipline has run its course).
        """
        response = self.wait(self.submit(request))
        if not response.ok:
            raise RequestFailed(
                f"{request.op_name} failed: {response.status_name}", response)
        return response

    # ------------------------------------------------------------------------
    # High-level file operations
    # ------------------------------------------------------------------------

    def open(self, name: str, create: bool = False) -> Tuple[int, int]:
        """OPEN *name*; returns ``(handle, byte_length)``."""
        response = self.transact(self.build_open(name, create=create))
        return response.handle, (response.result0 << 16) | response.result1

    def close(self, handle: int) -> None:
        self.transact(self.build_close(handle))

    def listdir(self) -> List[str]:
        """The server directory's file names."""
        return decode_names(self.transact(self.build_list()).payload)

    def read_file(self, name: str) -> bytes:
        """Fetch a whole file with batched sequential READs."""
        handle, size = self.open(name)
        try:
            return self.read_range(handle, size)
        finally:
            self.close(handle)

    def read_range(self, handle: int, size: int, first_page: int = 1) -> bytes:
        """Read *size* bytes starting at *first_page* via batched READs."""
        out = bytearray()
        page = first_page
        remaining = size
        while remaining > 0:
            want = min(self.read_batch_pages,
                       (remaining + FULL_PAGE - 1) // FULL_PAGE)
            response = self.transact(self.build_read(handle, page, want))
            pages = response.result0
            if pages == 0:
                break
            if pages > want or len(response.payload) < pages * PAGE_WORDS:
                self.obs.registry.counter("server.client.errors").inc()
                raise ProtocolError(
                    f"READ of {want} pages from page {page} answered "
                    f"{pages} pages in {len(response.payload)} words")
            take = min(remaining, pages * FULL_PAGE)
            out += words_to_bytes(response.payload[:pages * PAGE_WORDS],
                                  nbytes=take)
            remaining -= take
            page += pages
        return bytes(out)

    def write_file(self, name: str, data: bytes) -> int:
        """Create-or-replace *name* with *data*; returns bytes written.

        Pages stream sequentially, as :func:`upload_chunks` schedules them.
        """
        handle, size = self.open(name, create=True)
        try:
            for page, chunk in upload_chunks(data):
                self.transact(self.build_write(handle, page, chunk))
            return len(data)
        finally:
            self.close(handle)
