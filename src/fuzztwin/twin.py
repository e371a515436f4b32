"""Simulated UE and gNB endpoints and the two transports that connect them.

The connection walks a fixed nine-message exchange (setup, security mode,
capability, reconfiguration), after which the gNB emits a ConnectionComplete
marker frame. Transition logic is pure: ``ue_step``/``gnb_step`` map
(state, event) to (state, outgoing messages), and ``Endpoint`` adds the
codec, the retransmit cache and the liveness stamp around them, without I/O.

Two transports drive a pair of endpoints, optionally through the MITM relay
leg (``relay.relay_frame``):

* ``run_connection`` runs in process on a virtual clock: a FIFO event queue
  with no link delay, and retransmit and liveness timers counted in virtual
  seconds, so a connection never sleeps and the same seed gives the same
  trace. Campaign targets use it.
* ``run_socket_connection`` runs the same endpoints in threads over loopback
  TCP, with a relay thread and wall-clock timers; ``twin-run`` and the
  pinned relay ports use it.

Unexpected-but-legal messages model the fuzz surface: if the pair
(expected command, received command) is listed in the active
VulnerabilityProfile the endpoint fails the connection, otherwise the message
is ignored and the peer's retransmit timer recovers the handshake. Frames
that fail the integrity check always fail the connection.

Trace timestamps are virtual on both transports (a fixed tick per observed
frame), so they never depend on how long the transport took.
"""

from __future__ import annotations

import hashlib
import math
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from . import wire
from .relay import (
    ForwardDecision,
    RelayConfig,
    RelayReport,
    bind_listener,
    dial,
    relay_frame,
    run_relay,
)
from .store import ActionRow, ConnectionTrace, FuzzActionRecord, StateRow
from .wire import (
    CHANNEL_PHYSICAL,
    Direction,
    Frame,
    IntegrityError,
    MalformedFrame,
    Message,
    MsgType,
    SecurityContext,
    ServiceType,
    TYPE_CHANNEL,
    establishment_cause_effect,
)

UE = "UE"
GNB = "GNB"

IDLE = "IDLE"
SETUP_SENT = "SETUP_SENT"
SETUP_RECEIVED = "SETUP_RECEIVED"
SETUP_COMPLETE = "SETUP_COMPLETE"
SECURITY_PENDING = "SECURITY_PENDING"
SECURED = "SECURED"
CAPABILITY_PENDING = "CAPABILITY_PENDING"
RECONFIG_PENDING = "RECONFIG_PENDING"
CONNECTED = "CONNECTED"
FAILED = "FAILED"

SUCCESS = "Success"
FAILED_OUTCOME = "Failed"

# The canonical exchange in wire order; ConnectionComplete is the completion
# marker the gNB emits once the nine-message handshake is done.
HANDSHAKE_SEQUENCE = (
    MsgType.RRC_SETUP_REQUEST,
    MsgType.RRC_SETUP,
    MsgType.RRC_SETUP_COMPLETE,
    MsgType.SECURITY_MODE_COMMAND,
    MsgType.SECURITY_MODE_COMPLETE,
    MsgType.UE_CAPABILITY_ENQUIRY,
    MsgType.UE_CAPABILITY_INFORMATION,
    MsgType.RRC_RECONFIGURATION,
    MsgType.RRC_RECONFIGURATION_COMPLETE,
    MsgType.CONNECTION_COMPLETE,
)


def state_id_for(msg_type: MsgType, rnti: int) -> str:
    """Synthesise the state id a frame of this type and RNTI would map to."""
    channel = TYPE_CHANNEL[msg_type]
    phys = CHANNEL_PHYSICAL[channel]
    prefix = bytes([int(msg_type), int(channel), (rnti >> 8) & 0xFF])
    return f"{phys.name}:{prefix.hex()}"


def derive_state_id(frame: Frame) -> str:
    """Opaque state id: physical channel plus the first three PDU bytes.

    Needs no decryption, so it works on frames the observer cannot read.
    """
    if len(frame.raw) < 3:
        raise MalformedFrame("need at least 3 PDU bytes for a state id")
    try:
        channel = wire.Channel(frame.raw[1])
        phys = CHANNEL_PHYSICAL[channel].name
    except ValueError:
        phys = "UNKNOWN"
    return f"{phys}:{frame.raw[:3].hex()}"


@dataclass(frozen=True)
class VulnerabilityProfile:
    """Configured twin flaws: command pairs that force a connection failure.

    A pair (a, a') fires when an endpoint expecting command a receives
    command a' instead.
    """

    pairs: frozenset = frozenset()
    clustering: str = "uniform"  # row_clustered | column_clustered | uniform

    @property
    def count(self) -> int:
        return len(self.pairs)

    @classmethod
    def empty(cls) -> "VulnerabilityProfile":
        return cls()

    @classmethod
    def from_type_pairs(cls, type_pairs, rnti: int) -> "VulnerabilityProfile":
        pairs = frozenset(
            (state_id_for(a, rnti), state_id_for(b, rnti)) for a, b in type_pairs
        )
        return cls(pairs=pairs)

    @classmethod
    def generate(cls, commands, count: int, clustering: str, seed: int) -> "VulnerabilityProfile":
        """Seed ``count`` vulnerable ordered pairs over a command alphabet.

        row_clustered packs the pairs into as few fragile source commands as
        possible, column_clustered into as few poison replacements, uniform
        scatters them over the whole ordered-pair space.
        """
        import random as _random

        rng = _random.Random(seed)
        commands = list(commands)
        n = len(commands)
        if count > n * (n - 1):
            raise ValueError("profile larger than the ordered-pair space")
        pairs: set[tuple[str, str]] = set()
        if clustering == "uniform":
            all_pairs = [(a, b) for a in commands for b in commands if a != b]
            pairs.update(rng.sample(all_pairs, count))
        elif clustering in ("row_clustered", "column_clustered"):
            anchors = rng.sample(commands, n)
            for anchor in anchors:
                others = [c for c in commands if c != anchor]
                rng.shuffle(others)
                for other in others:
                    pair = (anchor, other) if clustering == "row_clustered" else (other, anchor)
                    pairs.add(pair)
                    if len(pairs) == count:
                        break
                if len(pairs) == count:
                    break
        else:
            raise ValueError(f"unknown clustering {clustering!r}")
        return cls(pairs=frozenset(pairs), clustering=clustering)

    def forces_failure(self, expected_sid: str, got_sid: str) -> bool:
        return (expected_sid, got_sid) in self.pairs


@dataclass(frozen=True)
class TwinParams:
    """Baseline identifier values the endpoints put on the wire."""

    ue_id: int = 3
    establishment_cause: int = 0b0110  # mo_sig
    spare: int = 1
    srb_id: int = 1
    sr_config_index: int = 17


@dataclass
class TwinConfig:
    seed: int = 0
    rnti: int = 0x4601
    session_key: int | None = None
    # liveness bound per connection and retransmit period: virtual seconds
    # in process (run_connection), wall-clock seconds on sockets
    timeout: float = 2.0
    retransmit_interval: float = 0.1
    tick_ns: int = 10_000_000  # virtual time per observed frame
    host: str = "127.0.0.1"
    params: TwinParams = field(default_factory=TwinParams)

    def resolved_session_key(self) -> int:
        if self.session_key is not None:
            return self.session_key
        digest = hashlib.blake2b(self.seed.to_bytes(8, "big"), digest_size=8).digest()
        return int.from_bytes(digest, "big")


# ---------------------------------------------------------------------------
# pure transition machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Start:
    pass


@dataclass(frozen=True)
class TimerExpired:
    pass


@dataclass(frozen=True)
class IncomingFrame:
    message: Message


@dataclass(frozen=True)
class EndpointState:
    role: str
    phase: str = IDLE
    rnti: int = 0x4601
    security: SecurityContext = field(default_factory=SecurityContext)
    service_type: ServiceType | None = None
    params: TwinParams = field(default_factory=TwinParams)
    next_tid: int = 0
    saw_connection_complete: bool = False
    failure_reason: str | None = None  # "integrity" | "reject" | "vulnerable_pair"


EXPECTED_INCOMING = {
    UE: {
        SETUP_SENT: MsgType.RRC_SETUP,
        SETUP_COMPLETE: MsgType.SECURITY_MODE_COMMAND,
        SECURED: MsgType.UE_CAPABILITY_ENQUIRY,
        RECONFIG_PENDING: MsgType.RRC_RECONFIGURATION,
        CONNECTED: MsgType.CONNECTION_COMPLETE,
    },
    GNB: {
        IDLE: MsgType.RRC_SETUP_REQUEST,
        SETUP_RECEIVED: MsgType.RRC_SETUP_COMPLETE,
        SECURITY_PENDING: MsgType.SECURITY_MODE_COMPLETE,
        CAPABILITY_PENDING: MsgType.UE_CAPABILITY_INFORMATION,
        RECONFIG_PENDING: MsgType.RRC_RECONFIGURATION_COMPLETE,
    },
}


def expected_incoming(state: EndpointState) -> MsgType | None:
    return EXPECTED_INCOMING[state.role].get(state.phase)


def _emit(state: EndpointState, phase: str, *msg_types_fields, activate=False):
    msgs = []
    tid = state.next_tid
    for msg_type, fields in msg_types_fields:
        msgs.append(
            Message(msg_type=msg_type, rnti=state.rnti, transaction_id=tid & 0xFF, fields=fields)
        )
        tid += 1
    security = state.security
    if activate:
        security = replace(security, activated=True)
    return replace(state, phase=phase, security=security, next_tid=tid), msgs


def _handle_unexpected(state: EndpointState, msg: Message, profile: VulnerabilityProfile):
    expected = expected_incoming(state)
    if expected is None:
        return state, []
    pair = (state_id_for(expected, state.rnti), state_id_for(msg.msg_type, msg.rnti))
    if profile.forces_failure(*pair):
        return replace(state, phase=FAILED, failure_reason="vulnerable_pair"), []
    return state, []  # legal but meaningless here: ignore, peer will retransmit


def ue_step(state: EndpointState, event, profile: VulnerabilityProfile):
    """Pure UE transition; returns (new state, messages to send)."""
    if state.phase == FAILED:
        return state, []
    if isinstance(event, Start):
        if state.phase != IDLE:
            return state, []
        p = state.params
        return _emit(
            state,
            SETUP_SENT,
            (
                MsgType.RRC_SETUP_REQUEST,
                {
                    "ue_id": p.ue_id,
                    "establishment_cause": p.establishment_cause,
                    "spare": p.spare,
                },
            ),
        )
    if isinstance(event, TimerExpired):
        return state, []  # the runner retransmits its cached frame
    if not isinstance(event, IncomingFrame):
        return state, []
    msg = event.message
    if msg.msg_type is not expected_incoming(state):
        return _handle_unexpected(state, msg, profile)

    if state.phase == SETUP_SENT:
        if msg.fields.get("srb_id") != 1:
            # srb_id 0 or 2: the UE rejects the offered bearer
            return replace(state, phase=FAILED, failure_reason="reject"), []
        return _emit(state, SETUP_COMPLETE, (MsgType.RRC_SETUP_COMPLETE, {}))
    if state.phase == SETUP_COMPLETE:
        return _emit(
            state, SECURED, (MsgType.SECURITY_MODE_COMPLETE, {}), activate=True
        )
    if state.phase == SECURED:
        return _emit(state, RECONFIG_PENDING, (MsgType.UE_CAPABILITY_INFORMATION, {}))
    if state.phase == RECONFIG_PENDING:
        # any sr_config_index is negotiable, never a failure cause
        return _emit(state, CONNECTED, (MsgType.RRC_RECONFIGURATION_COMPLETE, {}))
    if state.phase == CONNECTED:
        return replace(state, saw_connection_complete=True), []
    return state, []


def gnb_step(state: EndpointState, event, profile: VulnerabilityProfile):
    """Pure gNB transition; mirror of ue_step for the downlink side."""
    if state.phase == FAILED:
        return state, []
    if isinstance(event, (Start, TimerExpired)):
        return state, []
    if not isinstance(event, IncomingFrame):
        return state, []
    msg = event.message
    if msg.msg_type is not expected_incoming(state):
        return _handle_unexpected(state, msg, profile)

    if state.phase == IDLE:
        service = establishment_cause_effect(msg.fields.get("establishment_cause", 0))
        next_state, msgs = _emit(
            state, SETUP_RECEIVED, (MsgType.RRC_SETUP, {"srb_id": state.params.srb_id})
        )
        return replace(next_state, service_type=service), msgs
    if state.phase == SETUP_RECEIVED:
        return _emit(state, SECURITY_PENDING, (MsgType.SECURITY_MODE_COMMAND, {}))
    if state.phase == SECURITY_PENDING:
        return _emit(
            state,
            CAPABILITY_PENDING,
            (MsgType.UE_CAPABILITY_ENQUIRY, {}),
            activate=True,
        )
    if state.phase == CAPABILITY_PENDING:
        return _emit(
            state,
            RECONFIG_PENDING,
            (MsgType.RRC_RECONFIGURATION, {"sr_config_index": state.params.sr_config_index}),
        )
    if state.phase == RECONFIG_PENDING:
        return _emit(state, CONNECTED, (MsgType.CONNECTION_COMPLETE, {}))
    return state, []


def replay_handshake(config: TwinConfig, profile: VulnerabilityProfile | None = None):
    """Run the pure transition functions against each other, no sockets.

    Returns (ue_state, gnb_state, list of (direction, Message)).
    """
    profile = profile or VulnerabilityProfile.empty()
    ue = EndpointState(role=UE, rnti=config.rnti, params=config.params)
    gnb = EndpointState(role=GNB, rnti=config.rnti, params=config.params)
    log = []
    ue, pending = ue_step(ue, Start(), profile)
    queue = [(Direction.UPLINK, m) for m in pending]
    for _ in range(64):
        if not queue:
            break
        direction, msg = queue.pop(0)
        log.append((direction, msg))
        if direction is Direction.UPLINK:
            gnb, out = gnb_step(gnb, IncomingFrame(msg), profile)
            queue.extend((Direction.DOWNLINK, m) for m in out)
        else:
            ue, out = ue_step(ue, IncomingFrame(msg), profile)
            queue.extend((Direction.UPLINK, m) for m in out)
    return ue, gnb, log


# ---------------------------------------------------------------------------
# trace recording (virtual clock)
# ---------------------------------------------------------------------------


class TraceRecorder:
    """Thread-safe observer assigning deterministic virtual timestamps."""

    def __init__(self, tick_ns: int = 10_000_000):
        self.tick_ns = tick_ns
        self._lock = threading.Lock()
        self._events: list[tuple[str, int, Frame]] = []
        self.fuzz_time: int | None = None

    def observe(self, frame: Frame) -> Frame:
        with self._lock:
            ts = (len(self._events) + 1) * self.tick_ns
            stamped = Frame(raw=frame.raw, direction=frame.direction, timestamp=ts)
            self._events.append((derive_state_id(stamped), ts, stamped))
            return stamped

    def mark_fuzz(self) -> None:
        with self._lock:
            if self.fuzz_time is None:
                ts = len(self._events) * self.tick_ns
                self.fuzz_time = ts if ts else self.tick_ns

    def events(self):
        with self._lock:
            return list(self._events)

    def to_trace(self, outcome: str, fuzz_action: FuzzActionRecord | None = None) -> ConnectionTrace:
        events = self.events()
        last_ts = events[-1][1] if events else 0
        return ConnectionTrace(
            states=tuple((sid, ts) for sid, ts, _ in events),
            outcome=outcome,
            fuzz_action=fuzz_action,
            fuzz_time=self.fuzz_time if fuzz_action else None,
            outcome_time=last_ts + self.tick_ns,
        )

    def persist_rows(self, store, trace_id: str) -> None:
        """Write state and action rows for every observed frame."""
        for seq, (sid, ts, frame) in enumerate(self.events()):
            type_code, channel_code = frame.raw[0], frame.raw[1]
            try:
                channel = wire.Channel(channel_code)
                channel_name = channel.name
                phys_name = CHANNEL_PHYSICAL[channel].name
            except ValueError:
                channel_name, phys_name = "UNKNOWN", "UNKNOWN"
            try:
                desc = MsgType(type_code).name
            except ValueError:
                desc = f"type_{type_code}"
            store.record_state(
                StateRow(
                    state_id=sid,
                    channel=channel_name,
                    first_bytes=frame.raw[:3].hex(),
                    description=desc,
                )
            )
            store.record_action(
                ActionRow(
                    action_id=seq,
                    state_id=sid,
                    raw_bytes=frame.raw.hex(),
                    channel=channel_name,
                    physical_channel=phys_name,
                    message_time=ts,
                )
            )


# ---------------------------------------------------------------------------
# endpoint core
# ---------------------------------------------------------------------------


class Endpoint:
    """One endpoint's protocol logic: codec, pure steps, retransmission.

    No I/O and no threads: ``send`` takes each outgoing Frame and ``now``
    reads the transport's clock (virtual nanoseconds in process, wall-clock
    seconds on sockets). ``last_progress`` is the liveness stamp the
    transport's retransmit timer counts from; sends and receives reset it.
    """

    def __init__(
        self,
        role: str,
        config: TwinConfig,
        profile: VulnerabilityProfile,
        recorder: TraceRecorder,
        record_inbound: bool,
        send,
        now,
        message_hook=None,
    ):
        self.role = role
        self.profile = profile
        self.recorder = recorder
        self.record_inbound = record_inbound
        self.send = send
        self.now = now
        self.message_hook = message_hook
        self.state = EndpointState(
            role=role,
            rnti=config.rnti,
            params=config.params,
            security=SecurityContext(session_key=config.resolved_session_key()),
        )
        self.sent_connection_complete = False
        self.direction_out = Direction.UPLINK if role == UE else Direction.DOWNLINK
        self._last_sent: list[Frame] = []
        self.last_progress = now()
        self._ctx = self.state.security  # endpoint-owned counters

    def _send_messages(self, msgs) -> None:
        for msg in msgs:
            if self.message_hook is not None:
                hooked = self.message_hook(msg)
                if hooked is not None and hooked != msg:
                    self.recorder.mark_fuzz()
                    msg = hooked
            frame = wire.encode_message(msg, self._ctx, self.direction_out)
            if wire._is_ciphered(msg.msg_type, self._ctx):
                self._ctx.bump(self.direction_out)
            try:
                self.send(frame)
            except OSError:
                return
            self._last_sent = [frame]
            if msg.msg_type is MsgType.CONNECTION_COMPLETE:
                self.sent_connection_complete = True

    def _retransmit(self) -> None:
        if self.state.phase in (CONNECTED, FAILED):
            return
        for frame in self._last_sent:
            try:
                self.send(frame)
            except OSError:
                return

    def _apply(self, event) -> None:
        step = ue_step if self.role == UE else gnb_step
        new_state, msgs = step(self.state, event, self.profile)
        # keep endpoint-owned counters: transition may have replaced the context
        if new_state.security is not self.state.security:
            fresh = new_state.security
            fresh.ul_counter = self._ctx.ul_counter
            fresh.dl_counter = self._ctx.dl_counter
            self._ctx = fresh
        self.state = new_state
        if msgs:
            self._send_messages(msgs)
            self.last_progress = self.now()

    def _handle_frame(self, frame: Frame) -> None:
        if self.record_inbound:
            frame = self.recorder.observe(frame)
        try:
            wire.verify_checksum(frame, expected_rnti=self.state.rnti)
        except IntegrityError:
            # modified on the wire: treat as an attack
            self.state = replace(self.state, phase=FAILED, failure_reason="integrity")
            return
        except MalformedFrame:
            return
        type_code, _, rnti, tid = wire.peek_header(frame)
        expected = expected_incoming(self.state)
        if expected is not None and type_code == int(expected):
            try:
                msg = wire.decode_message(frame, self._ctx, expected_rnti=self.state.rnti)
            except (IntegrityError, MalformedFrame):
                return
            if wire._is_ciphered(msg.msg_type, self._ctx):
                self._ctx.bump(frame.direction)
            self._apply(IncomingFrame(msg))
            return
        # unexpected command: header is enough to identify it, never decrypt
        try:
            msg_type = MsgType(type_code)
        except ValueError:
            return
        ghost = Message(msg_type=msg_type, rnti=rnti, transaction_id=tid, fields={})
        self._apply(IncomingFrame(ghost))

    # -- what a transport drives ------------------------------------------

    def start(self) -> None:
        self._apply(Start())

    def receive(self, frame: Frame) -> None:
        self._handle_frame(frame)
        self.last_progress = self.now()

    def timer_expired(self) -> None:
        self._apply(TimerExpired())
        self._retransmit()
        self.last_progress = self.now()

    @property
    def failed(self) -> bool:
        return self.state.phase == FAILED

    def finished(self) -> bool:
        if self.failed:
            return True
        if self.role == GNB:
            return self.state.phase == CONNECTED and self.sent_connection_complete
        return self.state.phase == CONNECTED and self.state.saw_connection_complete


class _RecorderSink:
    """Relay record sink that stamps frames into the shared recorder.

    The trace sequence reflects what was actually forwarded (the connection
    as the receiver experienced it); the relay event keeps the original
    bytes and the decision alongside.
    """

    def __init__(self, recorder: TraceRecorder):
        self.recorder = recorder
        self.events = []

    def __call__(self, event) -> None:
        if event.forwarded is not None:
            self.recorder.observe(Frame(raw=event.forwarded, direction=event.direction))
        if event.decision.kind != "pass":
            self.recorder.mark_fuzz()
        self.events.append(event)


@dataclass
class HandshakeResult:
    trace: ConnectionTrace
    ue_state: EndpointState
    gnb_state: EndpointState
    relay_events: list
    relay_report: RelayReport | None = None  # None when the endpoints talk directly


def _result(recorder, fuzz_action, store, ue: Endpoint, gnb: Endpoint, sink, report):
    """Outcome, trace and store rows of a finished connection, either transport."""
    success = gnb.state.phase == CONNECTED and gnb.sent_connection_complete
    trace = recorder.to_trace(SUCCESS if success else FAILED_OUTCOME, fuzz_action=fuzz_action)
    if store is not None:
        trace_id = store.record_trace(trace)
        recorder.persist_rows(store, trace_id)
        trace = replace(trace, trace_id=trace_id)
    return HandshakeResult(
        trace=trace,
        ue_state=ue.state,
        gnb_state=gnb.state,
        relay_events=sink.events,
        relay_report=report,
    )


# ---------------------------------------------------------------------------
# in-process transport (virtual clock)
# ---------------------------------------------------------------------------


def run_connection(
    config: TwinConfig,
    profile: VulnerabilityProfile | None = None,
    interceptor=None,
    *,
    store=None,
    fuzz_action: FuzzActionRecord | None = None,
    ue_hook=None,
    gnb_hook=None,
) -> HandshakeResult:
    """Drive one UE/gNB connection attempt in process, on a virtual clock.

    With ``interceptor=None`` the endpoints talk directly; otherwise every
    frame goes through the MITM relay leg and the interceptor.
    ``ue_hook``/``gnb_hook`` rewrite outgoing messages before encoding, the
    white-box injection point for before-encryption fuzzing. Outcome is
    Success iff the gNB emits ConnectionComplete within ``config.timeout``
    virtual seconds.

    Clock rules: frames are delivered FIFO with no delay, and a delivery
    resets the receiver's progress stamp as a send resets the sender's.
    When no frame is in flight the clock jumps to the earliest due
    retransmit timer, and every timer due at that instant fires (UE, then
    gNB) before any delivery. The run stops on a failure, when both
    endpoints have finished, or when the next timer lies beyond the timeout.
    """
    if not (math.isfinite(config.retransmit_interval) and math.isfinite(config.timeout)):
        raise ValueError("retransmit_interval and timeout must be finite")
    interval = round(config.retransmit_interval * 1e9)
    timeout = round(config.timeout * 1e9)
    if interval < 1:
        # a zero-length interval would never move the clock towards the timeout
        raise ValueError("retransmit_interval must be at least 1 ns")
    profile = profile or VulnerabilityProfile.empty()
    recorder = TraceRecorder(tick_ns=config.tick_ns)
    sink = _RecorderSink(recorder)
    report = RelayReport() if interceptor is not None else None
    clock = 0  # virtual ns; integer so that simultaneous timers compare equal
    in_flight: deque[Frame] = deque()

    def now() -> int:
        return clock

    record_inbound = report is None
    gnb = Endpoint(GNB, config, profile, recorder, record_inbound, in_flight.append, now,
                   message_hook=gnb_hook)
    ue = Endpoint(UE, config, profile, recorder, record_inbound, in_flight.append, now,
                  message_hook=ue_hook)
    endpoints = (ue, gnb)  # timer order
    ue.start()
    while not (ue.failed or gnb.failed) and not (ue.finished() and gnb.finished()):
        if in_flight:
            frame = in_flight.popleft()
            if report is not None:
                frame = relay_frame(frame, interceptor, sink, report)
                if frame is None:
                    continue
            (gnb if frame.direction is Direction.UPLINK else ue).receive(frame)
            continue
        live = [ep for ep in endpoints if not ep.finished()]
        due = min(ep.last_progress for ep in live) + interval
        if due > timeout:
            break
        clock = due
        for ep in live:
            if ep.last_progress + interval <= clock:
                ep.timer_expired()
    return _result(recorder, fuzz_action, store, ue, gnb, sink, report)


def run_handshake(
    config: TwinConfig,
    profile: VulnerabilityProfile | None = None,
    interceptor=None,
    **kwargs,
) -> ConnectionTrace:
    """run_connection, reduced to the recorded trace."""
    return run_connection(config, profile, interceptor, **kwargs).trace


# ---------------------------------------------------------------------------
# socket transport (wall clock)
# ---------------------------------------------------------------------------


def _recv_loop_socket(sock: socket.socket, poll: float):
    sock.settimeout(poll)
    try:
        return sock.recv(65536)
    except socket.timeout:
        return None
    except OSError:
        return b""


class SocketEndpoint(threading.Thread):
    """Socket I/O and the wall-clock retransmit timer around one Endpoint."""

    def __init__(
        self,
        role: str,
        config: TwinConfig,
        profile: VulnerabilityProfile,
        rx_sock: socket.socket,
        tx_sock: socket.socket,
        recorder: TraceRecorder,
        record_inbound: bool,
        stop_event: threading.Event,
        failure_event: threading.Event,
        message_hook=None,
    ):
        super().__init__(daemon=True, name=f"twin-{role.lower()}")
        self.config = config
        self.rx_sock = rx_sock
        self.stop_event = stop_event
        self.failure_event = failure_event
        self.endpoint = Endpoint(
            role, config, profile, recorder, record_inbound,
            lambda frame: tx_sock.sendall(wire.frame_to_stream(frame)),
            time.monotonic, message_hook=message_hook,
        )
        self._socks = (rx_sock, tx_sock)
        self._decoder = wire.StreamDecoder(
            Direction.UPLINK if role == GNB else Direction.DOWNLINK
        )

    def run(self) -> None:
        ep = self.endpoint
        try:
            if ep.role == UE:
                ep.start()
            while not self.stop_event.is_set() and not ep.finished():
                data = _recv_loop_socket(self.rx_sock, poll=0.005)
                if data == b"":
                    break  # peer closed
                if data:
                    for frame in self._decoder.feed(data):
                        ep.receive(frame)
                        if ep.finished():
                            break
                elif time.monotonic() - ep.last_progress > self.config.retransmit_interval:
                    ep.timer_expired()
                if ep.failed:
                    self.failure_event.set()
        finally:
            for sock in self._socks:
                try:
                    sock.close()
                except OSError:
                    pass


def _accept(listener: socket.socket, timeout: float) -> socket.socket:
    listener.settimeout(timeout)
    conn, _ = listener.accept()
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def run_socket_connection(
    config: TwinConfig,
    profile: VulnerabilityProfile | None = None,
    interceptor=None,
    *,
    store=None,
    fuzz_action: FuzzActionRecord | None = None,
    ue_hook=None,
    gnb_hook=None,
    relay_ports: RelayConfig | None = None,
) -> HandshakeResult:
    """run_connection over loopback TCP: endpoint and relay threads, and
    ``config.timeout``/``retransmit_interval`` in wall-clock seconds.

    ``relay_ports`` pins the four-port deployment topology; by default every
    port is ephemeral.
    """
    profile = profile or VulnerabilityProfile.empty()
    recorder = TraceRecorder(tick_ns=config.tick_ns)
    stop_event = threading.Event()
    failure_event = threading.Event()
    use_relay = interceptor is not None
    host = config.host

    # relay_ports reproduces the deployment topology exactly: the endpoints
    # listen on the forward ports, the relay on the listen ports; port 0
    # (the default) picks ephemeral ports for hermetic runs
    gnb_listener = bind_listener(host, relay_ports.gnb_forward_port if relay_ports else 0)
    ue_listener = bind_listener(host, relay_ports.ue_forward_port if relay_ports else 0)
    gnb_port = gnb_listener.getsockname()[1]
    ue_port = ue_listener.getsockname()[1]

    threads = []
    sink = _RecorderSink(recorder)
    relay_thread = None
    relay_listeners = ()
    reports = []  # the relay thread's RelayReport
    try:
        if use_relay:
            relay_ul_listener = bind_listener(host, relay_ports.ue_listen_port if relay_ports else 0)
            relay_dl_listener = bind_listener(host, relay_ports.gnb_listen_port if relay_ports else 0)
            relay_listeners = (relay_ul_listener, relay_dl_listener)
            relay_ul_port = relay_ul_listener.getsockname()[1]
            relay_dl_port = relay_dl_listener.getsockname()[1]
            relay_config = RelayConfig(
                host=host,
                ue_listen_port=relay_ul_port,
                gnb_forward_port=gnb_port,
                gnb_listen_port=relay_dl_port,
                ue_forward_port=ue_port,
                record_sink=sink,
            )

            def relay_body():
                reports.append(run_relay(
                    config=relay_config,
                    interceptor=interceptor,
                    listeners=relay_listeners,
                    stop_event=stop_event,
                ))

            relay_thread = threading.Thread(target=relay_body, daemon=True, name="twin-relay")
            relay_thread.start()
            ue_tx_port, gnb_tx_port = relay_ul_port, relay_dl_port
        else:
            ue_tx_port, gnb_tx_port = gnb_port, ue_port

        # dials complete against the listen backlog, so dial both legs first
        # and accept afterwards: no ordering deadlock in either mode
        accept_timeout = max(config.timeout, 2.0)
        ue_tx = dial(host, ue_tx_port, accept_timeout)
        gnb_tx = dial(host, gnb_tx_port, accept_timeout)
        gnb_rx = _accept(gnb_listener, accept_timeout)
        ue_rx = _accept(ue_listener, accept_timeout)

        record_inbound = not use_relay
        gnb_runner = SocketEndpoint(
            GNB, config, profile, gnb_rx, gnb_tx, recorder, record_inbound,
            stop_event, failure_event, message_hook=gnb_hook,
        )
        ue_runner = SocketEndpoint(
            UE, config, profile, ue_rx, ue_tx, recorder, record_inbound,
            stop_event, failure_event, message_hook=ue_hook,
        )
        threads = [gnb_runner, ue_runner]
        gnb_runner.start()
        ue_runner.start()

        deadline = time.monotonic() + config.timeout
        while time.monotonic() < deadline:
            if all(not t.is_alive() for t in threads):
                break
            if failure_event.is_set():
                break
            time.sleep(0.002)

        stop_event.set()
        for t in threads:
            t.join(timeout=1.0)
    finally:
        stop_event.set()
        for sock in (gnb_listener, ue_listener, *relay_listeners):
            try:
                sock.close()
            except OSError:
                pass
        if relay_thread is not None:
            relay_thread.join(timeout=1.0)

    report = None
    if use_relay:
        report = reports[0] if reports else RelayReport(errors=["relay ended without a report"])
    return _result(recorder, fuzz_action, store, ue_runner.endpoint, gnb_runner.endpoint,
                   sink, report)


def identity_interceptor(frame: Frame) -> ForwardDecision:
    return ForwardDecision.pass_()
