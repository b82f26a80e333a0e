"""Real-socket framing: the frame codec over TCP.

The in-process transport proves the central↔edge boundary is
message-shaped; this module makes it *physical*.  Frames travel
length-prefixed over a TCP stream — a 4-byte big-endian length header
followed by the exact bytes :func:`~repro.edge.transport.frame_to_bytes`
produces — so the two ends can live in different OS processes (or
hosts), which is the paper's actual deployment model (Section 3.1: edge
servers on untrusted machines reachable only over a network).

Wire protocol per connection (see DESIGN.md section 8):

1. The *edge* connects to the central listener and sends a
   :class:`~repro.edge.transport.HelloFrame` — its name plus the
   replica cursors it already holds (empty for a fresh process).
   Listeners read it with :func:`recv_hello`, which bounds both its
   size and the time a dialer may take to deliver it.
2. The *central* replies with a
   :class:`~repro.edge.transport.ConfigFrame` (the public verification
   bundle) and hands the accepted socket to a
   :class:`~repro.edge.event_loop.ReactorTransport`, seeding the
   fan-out engine's cursors from the hello.
3. From then on the central pushes snapshot / delta / query frames;
   the edge answers every frame with exactly one reply frame (ack or
   query response), in order.

Because replies are strictly ordered, the central side can *pipeline*:
:meth:`ReactorTransport.send <repro.edge.event_loop.ReactorTransport.send>`
only enqueues (it never waits for the ack), and the fan-out engine's
bounded in-flight window provides flow control exactly as it does for
a slow in-process link.  Outstanding acks are collected at the next
loop spin.

Failure mapping — every socket-level fault lands in the machinery that
already exists for in-process faults, so a killed or wedged edge
process needs **no new recovery code**:

=====================================  ================================
socket condition                       mapped onto
=====================================  ================================
``ECONNRESET`` / ``EPIPE`` on flush    link closed; later sends report
                                       ``SendOutcome(status="failed")``
                                       (like a partitioned link)
EOF or reset while awaiting replies    link closed; in-flight frames
                                       forgotten, cursors stay behind
settle / reply deadline (hung peer)    link closed (wedged edge)
mid-frame disconnect or bad header     link closed (traced)
reconnect with cursors                 delta resume from the hello's
                                       cursors
reconnect without cursors (restart)    epoch mismatch → snapshot heal
=====================================  ================================
"""

from __future__ import annotations

import socket
import struct
import time
from typing import Callable, Optional

from repro.edge import telemetry
from repro.edge.transport import (
    ConfigFrame,
    HelloFrame,
    frame_from_bytes,
    frame_to_bytes,
)
from repro.exceptions import TransportError

__all__ = [
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
    "MAX_HELLO_BYTES",
    "FrameDecoder",
    "send_frame",
    "send_frames",
    "recv_frame",
    "send_hello",
    "recv_hello",
    "serve_registrations",
    "connect_with_retry",
]

#: 4-byte big-endian frame length prefix.
FRAME_HEADER = struct.Struct(">I")

#: Upper bound on one frame (a snapshot of a large replica is a few MB;
#: anything near this limit is a corrupted or hostile length header).
MAX_FRAME_BYTES = 1 << 30

#: Upper bound on a registration hello: a name plus one cursor triple
#: per replica is a few hundred bytes, so a larger declared length is a
#: hostile or corrupted dialer, refused before a byte of body is read.
MAX_HELLO_BYTES = 1 << 16

#: Read granularity for :func:`recv_frame`.
_RECV_CHUNK = 1 << 16

#: Most buffers one ``sendmsg`` may carry (POSIX IOV_MAX is 1024 on
#: every platform we run on; staying at half leaves headroom).
_IOV_MAX = 512


class FrameDecoder:
    """Incremental zero-copy decoder for length-prefixed frame streams.

    Used by the event-loop reactor (:mod:`repro.edge.event_loop`)
    on every connection it owns.  Bytes land directly in a growable
    ``bytearray`` via :meth:`writable` + ``recv_into`` (no per-``recv``
    ``bytes`` concatenation), and :meth:`next_frame` pops complete
    frames with exactly one copy per frame — the ``bytes`` handed to
    :func:`~repro.edge.transport.frame_from_bytes`.  Consumed space is
    reclaimed by compaction only when the tail runs out of room, so a
    steady stream of small frames never reallocates.

    Usage (socket read path)::

        view = decoder.writable()
        n = sock.recv_into(view)
        decoder.wrote(n)
        while (frame := decoder.next_frame()) is not None:
            ...

    Raises:
        TransportError: From :meth:`next_frame` on an implausible
            length header (stream corruption — the connection is
            unrecoverable, exactly as for :func:`recv_frame`).
    """

    __slots__ = ("_buf", "_head", "_tail")

    def __init__(self, initial: int = _RECV_CHUNK) -> None:
        self._buf = bytearray(max(initial, FRAME_HEADER.size))
        self._head = 0  # first unconsumed byte
        self._tail = 0  # one past the last byte written

    def __len__(self) -> int:
        """Bytes buffered but not yet popped as frames."""
        return self._tail - self._head

    def writable(self, want: int = _RECV_CHUNK) -> memoryview:
        """A writable view of at least ``want`` bytes at the tail.

        Compacts (slides the unconsumed region to the front) or grows
        the buffer as needed; the caller reports how much it actually
        wrote via :meth:`wrote`.
        """
        want = max(1, want)
        if len(self._buf) - self._tail < want:
            used = self._tail - self._head
            if len(self._buf) - used >= want:
                # Room after compaction: slide in place.  Same-size
                # slice assignment never resizes, so this is safe even
                # while a previously handed-out view is still alive.
                if self._head and used:
                    self._buf[:used] = self._buf[self._head:self._tail]
            else:
                # Grow by swapping in a fresh buffer: resizing in place
                # raises ``BufferError`` while any earlier view is
                # still referenced (the read loops keep their last view
                # bound across iterations).
                grown = bytearray(max(used + want, 2 * len(self._buf)))
                grown[:used] = self._buf[self._head:self._tail]
                self._buf = grown
            self._head, self._tail = 0, used
        return memoryview(self._buf)[self._tail:self._tail + want]

    def wrote(self, n: int) -> None:
        """Commit ``n`` bytes just written into :meth:`writable`."""
        self._tail += n

    def feed(self, data) -> None:
        """Append ``data`` (bytes-like) — the non-``recv_into`` path."""
        view = self.writable(len(data))
        view[:len(data)] = data
        self.wrote(len(data))

    def next_frame(self) -> Optional[bytes]:
        """Pop one complete frame payload, or ``None`` if not yet here.

        Raises:
            TransportError: On a length header exceeding
                :data:`MAX_FRAME_BYTES`.
        """
        avail = self._tail - self._head
        if avail < FRAME_HEADER.size:
            if avail == 0:
                self._head = self._tail = 0  # free rewind, no compaction
            return None
        (length,) = FRAME_HEADER.unpack_from(self._buf, self._head)
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"declared frame length {length} exceeds limit"
            )
        end = self._head + FRAME_HEADER.size + length
        if end > self._tail:
            return None
        data = bytes(memoryview(self._buf)[self._head + FRAME_HEADER.size:end])
        self._head = end
        if self._head == self._tail:
            self._head = self._tail = 0
        return data


def send_frame(sock: socket.socket, data: bytes) -> int:
    """Write one length-prefixed frame; returns bytes put on the wire.

    ``sendall`` either ships every byte or raises ``OSError`` — a short
    write surfaces as a connection error, never as a truncated frame on
    the peer.
    """
    if len(data) > MAX_FRAME_BYTES:
        raise TransportError(f"frame of {len(data)} bytes exceeds limit")
    payload = FRAME_HEADER.pack(len(data)) + data
    sock.sendall(payload)
    return len(payload)


def send_frames(sock: socket.socket, frames) -> int:
    """Write many length-prefixed frames with vectored (gathered) I/O.

    Packs every header+payload pair into as few ``sendmsg`` syscalls as
    the iovec limit allows — an edge answering a pipelined delta batch
    ships all its acks in one syscall instead of one ``sendall`` per
    reply.  Semantics match :func:`send_frame`: all bytes ship or
    ``OSError`` is raised (blocking socket assumed).

    Returns:
        Total bytes put on the wire.
    """
    bufs: list = []
    total = 0
    for data in frames:
        if len(data) > MAX_FRAME_BYTES:
            raise TransportError(f"frame of {len(data)} bytes exceeds limit")
        bufs.append(FRAME_HEADER.pack(len(data)))
        bufs.append(data)
        total += FRAME_HEADER.size + len(data)
    if not hasattr(sock, "sendmsg"):  # pragma: no cover - exotic platform
        for i in range(0, len(bufs), 2):
            sock.sendall(bufs[i] + bufs[i + 1])
        return total
    while bufs:
        sent = sock.sendmsg(bufs[:_IOV_MAX])
        while bufs and sent >= len(bufs[0]):
            sent -= len(bufs[0])
            bufs.pop(0)
        if sent:
            bufs[0] = memoryview(bufs[0])[sent:]
    return total


def _recv_exactly(
    sock: socket.socket,
    n: int,
    *,
    at_boundary: bool,
    deadline: Optional[float] = None,
) -> Optional[bytes]:
    """Read exactly ``n`` bytes, across as many partial reads as needed.

    Returns ``None`` on a clean EOF **before the first byte** when
    ``at_boundary`` (the peer closed between frames — a normal
    shutdown).  EOF anywhere else is a torn frame and raises
    :class:`TransportError`.

    A receive timeout at a frame boundary propagates as
    ``TimeoutError`` — the link is merely *idle* and the caller may
    keep waiting (an edge between writes sees no traffic at all).  A
    timeout after bytes have been consumed would desynchronize the
    stream if retried, so it is a :class:`TransportError` like any
    other torn frame.  A ``deadline`` (``time.monotonic()`` value)
    bounds the whole read rather than each ``recv``.
    """
    chunks: list[bytes] = []
    received = 0
    while received < n:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"timed out mid-frame ({received}/{n} bytes)"
                )
            sock.settimeout(remaining)
        try:
            chunk = sock.recv(min(_RECV_CHUNK, n - received))
        except TimeoutError:
            if at_boundary and received == 0:
                raise  # idle link, stream still aligned: caller's call
            raise TransportError(
                f"timed out mid-frame ({received}/{n} bytes)"
            ) from None
        if not chunk:
            if at_boundary and received == 0:
                return None
            raise TransportError(
                f"connection closed mid-frame ({received}/{n} bytes)"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    """Read one length-prefixed frame; ``None`` on clean EOF.

    Handles arbitrarily fragmented delivery (the header and body may
    arrive in any number of TCP segments).

    Raises:
        TransportError: On a mid-frame disconnect or an implausible
            length header.
    """
    header = _recv_exactly(sock, FRAME_HEADER.size, at_boundary=True)
    if header is None:
        return None
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"declared frame length {length} exceeds limit")
    if length == 0:
        return b""
    body = _recv_exactly(sock, length, at_boundary=False)
    assert body is not None
    return body


def send_hello(sock: socket.socket, hello: HelloFrame) -> ConfigFrame:
    """Dialer side of registration: send ``hello``, return the
    listener's :class:`~repro.edge.transport.ConfigFrame`.

    Raises:
        TransportError: If the listener closes or answers with
            anything but a config.
    """
    send_frame(sock, frame_to_bytes(hello))
    data = recv_frame(sock)
    if data is None:
        raise TransportError("listener closed during handshake")
    reply = frame_from_bytes(data)
    if not isinstance(reply, ConfigFrame):
        raise TransportError(f"expected ConfigFrame, got {type(reply).__name__}")
    return reply


def recv_hello(sock: socket.socket, timeout: float) -> HelloFrame:
    """Listener side of registration: read the dialer's hello.

    Listeners read hellos serially on their accept thread, so one slow
    dialer must not hold it: the whole hello must arrive within
    ``timeout`` seconds — a deadline a byte-dripping dialer cannot
    renew, unlike a per-``recv`` timeout — and a declared length above
    :data:`MAX_HELLO_BYTES` is refused before any body is read.  The
    socket keeps ``timeout`` for the rest of the handshake.

    Raises:
        TransportError: On a late, oversized, torn, or non-hello frame.
    """
    deadline = time.monotonic() + timeout
    header = _recv_exactly(
        sock, FRAME_HEADER.size, at_boundary=False, deadline=deadline
    )
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_HELLO_BYTES:
        raise TransportError(f"declared hello length {length} exceeds limit")
    hello = frame_from_bytes(
        _recv_exactly(sock, length, at_boundary=False, deadline=deadline)
    )
    if not isinstance(hello, HelloFrame):
        raise TransportError(f"expected HelloFrame, got {type(hello).__name__}")
    sock.settimeout(timeout)
    return hello


def serve_registrations(
    listener: socket.socket,
    handshake: Callable[[socket.socket], None],
    site: str,
) -> None:
    """Accept dialers and run ``handshake`` on each until the listener
    is closed — the accept loop of the central's and a relay's
    listener.

    A broken dialer must not take the listener down: its connection is
    closed and the error noted at ``<site>.handshake`` (torn socket or
    protocol error) or ``<site>.unexpected`` (anything else — a bug
    worth counting).
    """
    while True:
        try:
            conn, _addr = listener.accept()
        except OSError:
            return  # listener closed: shutdown
        try:
            handshake(conn)
        except Exception as exc:  # broad by design: counted, never fatal
            expected = isinstance(exc, (TransportError, OSError))
            telemetry.note(
                f"{site}.{'handshake' if expected else 'unexpected'}", exc
            )
            try:
                conn.close()
            except OSError:
                pass


def connect_with_retry(
    host: str,
    port: int,
    attempts: int = 40,
    delay: float = 0.25,
    timeout: float = 10.0,
) -> socket.socket:
    """Dial ``host:port``, retrying while the listener comes up.

    Raises:
        TransportError: When every attempt fails.
    """
    last: Exception | None = None
    for attempt in range(max(1, attempts)):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            if attempt + 1 < attempts:
                time.sleep(delay)
    raise TransportError(
        f"could not connect to {host}:{port} after {attempts} attempts: {last}"
    )
