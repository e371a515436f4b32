"""Man-in-the-middle stream relay between the UE and gNB endpoints.

Port topology (defaults): the relay listens for the UE's uplink on 2003 and
forwards it to the gNB on 2000; it listens for the gNB's downlink on 2002 and
forwards it to the UE on 2001. Each direction is pumped by its own thread,
preserving per-direction FIFO order. Every inbound frame is recorded together
with the interceptor's decision; the relay never originates frames itself.
The per-frame work of a leg is ``relay_frame``, which the twin's in-process
transport calls directly, without sockets or threads.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field

from .wire import Direction, Frame, StreamDecoder, frame_to_stream


class RelayError(Exception):
    pass


class PortBindFailure(RelayError):
    pass


class PeerDisconnected(RelayError):
    pass


class OffsetOutOfRange(RelayError):
    pass


@dataclass(frozen=True)
class ForwardDecision:
    """What to do with one inbound frame.

    kind: "pass" | "replace" | "mutate_bits" | "drop"
    """

    kind: str
    replacement: Frame | None = None
    mutations: tuple = ()  # ((offset, xor_mask), ...)

    @classmethod
    def pass_(cls) -> "ForwardDecision":
        return cls(kind="pass")

    @classmethod
    def drop(cls) -> "ForwardDecision":
        return cls(kind="drop")

    @classmethod
    def replace(cls, frame: Frame) -> "ForwardDecision":
        return cls(kind="replace", replacement=frame)

    @classmethod
    def mutate_bits(cls, *mutations) -> "ForwardDecision":
        return cls(kind="mutate_bits", mutations=tuple(mutations))


@dataclass(frozen=True)
class RelayEvent:
    direction: Direction
    frame: Frame  # original bytes as received
    decision: ForwardDecision
    forwarded: bytes | None  # bytes actually sent on, None for drops


@dataclass
class RelayConfig:
    ue_listen_port: int = 2003
    gnb_forward_port: int = 2000
    gnb_listen_port: int = 2002
    ue_forward_port: int = 2001
    host: str = "127.0.0.1"
    record_sink: object = None  # callable(RelayEvent)

    def __post_init__(self):
        ports = [
            self.ue_listen_port,
            self.gnb_forward_port,
            self.gnb_listen_port,
            self.ue_forward_port,
        ]
        nonzero = [p for p in ports if p != 0]
        if len(set(nonzero)) != len(nonzero):
            raise ValueError("relay ports must be distinct")


@dataclass
class RelayReport:
    uplink_frames: int = 0
    downlink_frames: int = 0
    dropped: int = 0
    mutated: int = 0
    replaced: int = 0
    errors: list = field(default_factory=list)


def apply_mutation(frame: Frame, decision: ForwardDecision) -> Frame | None:
    """Transform a frame per the decision; None means drop.

    mutate_bits XORs masks in place and deliberately leaves the trailing
    checksum stale, which is what distinguishes a MAC-layer write from an
    RRC-layer re-encode.
    """
    if decision.kind == "pass":
        return frame
    if decision.kind == "drop":
        return None
    if decision.kind == "replace":
        return Frame(raw=decision.replacement.raw, direction=frame.direction)
    if decision.kind == "mutate_bits":
        raw = bytearray(frame.raw)
        for offset, mask in decision.mutations:
            if not 0 <= offset < len(raw):
                raise OffsetOutOfRange(f"offset {offset} outside frame of {len(raw)} bytes")
            raw[offset] ^= mask & 0xFF
        return Frame(raw=bytes(raw), direction=frame.direction)
    raise ValueError(f"unknown decision kind {decision.kind!r}")


def bind_listener(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind((host, port))
    except OSError as exc:
        sock.close()
        raise PortBindFailure(f"cannot bind {host}:{port}: {exc}") from exc
    sock.listen(2)
    return sock


def dial(host: str, port: int, timeout: float) -> socket.socket:
    deadline = time.monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=0.5)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if time.monotonic() > deadline:
                raise PeerDisconnected(f"cannot reach {host}:{port}")
            time.sleep(0.005)


def relay_frame(frame: Frame, interceptor, sink, report: RelayReport) -> Frame | None:
    """One frame through a relay leg: the interceptor's decision, the
    mutation, the record sink and the report counts.

    Returns the frame to forward, or None for a drop. Both transports run
    every relayed frame through here.
    """
    decision = interceptor(frame)
    outgoing = apply_mutation(frame, decision)
    if sink is not None:
        forwarded = outgoing.raw if outgoing is not None else None
        sink(RelayEvent(frame.direction, frame, decision, forwarded))
    if frame.direction is Direction.UPLINK:
        report.uplink_frames += 1
    else:
        report.downlink_frames += 1
    if decision.kind == "drop":
        report.dropped += 1
    elif decision.kind == "replace":
        report.replaced += 1
    elif decision.kind == "mutate_bits":
        report.mutated += 1
    return outgoing


def _pump(
    direction: Direction,
    src: socket.socket,
    dst: socket.socket,
    interceptor,
    sink,
    lock: threading.Lock,
    report: RelayReport,
    stop_event: threading.Event,
) -> None:
    decoder = StreamDecoder(direction)
    src.settimeout(0.005)
    while not stop_event.is_set():
        try:
            data = src.recv(65536)
        except socket.timeout:
            continue
        except OSError:
            break
        if not data:
            break  # peer closed: graceful shutdown of this leg
        for frame in decoder.feed(data):
            with lock:  # one leg at a time: single-writer record stream and report
                outgoing = relay_frame(frame, interceptor, sink, report)
            if outgoing is None:
                continue
            try:
                dst.sendall(frame_to_stream(outgoing))
            except OSError:
                stop_event.set()
                return
    # propagate the close so the other side unblocks
    try:
        dst.shutdown(socket.SHUT_WR)
    except OSError:
        pass


def run_relay(
    config: RelayConfig,
    interceptor=None,
    *,
    listeners: tuple | None = None,
    stop_event: threading.Event | None = None,
    connect_timeout: float = 5.0,
) -> RelayReport:
    """Pump frames between UE and gNB until both legs close.

    ``listeners`` lets an orchestrator pass pre-bound listening sockets for
    the UE-facing and gNB-facing legs (in that order); otherwise the relay
    binds config.ue_listen_port and config.gnb_listen_port itself.
    """
    if interceptor is None:
        interceptor = lambda frame: ForwardDecision.pass_()
    stop_event = stop_event or threading.Event()
    report = RelayReport()

    own_listeners = listeners is None
    if own_listeners:
        ul_listener = bind_listener(config.host, config.ue_listen_port)
        dl_listener = bind_listener(config.host, config.gnb_listen_port)
    else:
        ul_listener, dl_listener = listeners

    lock = threading.Lock()
    try:
        ul_listener.settimeout(connect_timeout)
        dl_listener.settimeout(connect_timeout)
        try:
            ue_side, _ = ul_listener.accept()
            gnb_side_dl, _ = dl_listener.accept()
        except socket.timeout as exc:
            raise PeerDisconnected("twin endpoints never connected") from exc
        ue_side.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        gnb_side_dl.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        gnb_side_ul = dial(config.host, config.gnb_forward_port, connect_timeout)
        ue_side_dl = dial(config.host, config.ue_forward_port, connect_timeout)

        pumps = [
            threading.Thread(
                target=_pump,
                args=(
                    Direction.UPLINK, ue_side, gnb_side_ul,
                    interceptor, config.record_sink, lock, report, stop_event,
                ),
                daemon=True,
                name="relay-uplink",
            ),
            threading.Thread(
                target=_pump,
                args=(
                    Direction.DOWNLINK, gnb_side_dl, ue_side_dl,
                    interceptor, config.record_sink, lock, report, stop_event,
                ),
                daemon=True,
                name="relay-downlink",
            ),
        ]
        for p in pumps:
            p.start()
        while any(p.is_alive() for p in pumps):
            if stop_event.is_set():
                break
            time.sleep(0.002)
        for p in pumps:
            p.join(timeout=1.0)
        for sock in (ue_side, gnb_side_dl, gnb_side_ul, ue_side_dl):
            try:
                sock.close()
            except OSError:
                pass
    finally:
        if own_listeners:
            for sock in (ul_listener, dl_listener):
                try:
                    sock.close()
                except OSError:
                    pass
    return report
