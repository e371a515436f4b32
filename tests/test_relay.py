"""Relay forwarding, mutation semantics and recording contracts."""

import pytest

from fuzztwin.relay import (
    ForwardDecision,
    OffsetOutOfRange,
    RelayConfig,
    apply_mutation,
)
from fuzztwin.twin import (
    TwinConfig,
    VulnerabilityProfile,
    derive_state_id,
    identity_interceptor,
    run_connection,
    run_socket_connection,
    state_id_for,
)
from fuzztwin.wire import Direction, Message, MsgType, SecurityContext, encode_message


def make_frame(msg_type=MsgType.RRC_SETUP_REQUEST, **fields):
    msg = Message(msg_type=msg_type, rnti=0x4601, fields=fields or {"ue_id": 3, "establishment_cause": 6, "spare": 1})
    return encode_message(msg, SecurityContext(), Direction.UPLINK)


# ---------------------------------------------------------------------------
# apply_mutation
# ---------------------------------------------------------------------------


def test_pass_returns_identical_bytes():
    frame = make_frame()
    assert apply_mutation(frame, ForwardDecision.pass_()).raw == frame.raw


def test_drop_returns_none():
    assert apply_mutation(make_frame(), ForwardDecision.drop()) is None


def test_replace_substitutes_bytes_and_keeps_direction():
    frame = make_frame()
    other = make_frame(MsgType.RRC_SETUP_COMPLETE)
    out = apply_mutation(frame, ForwardDecision.replace(other))
    assert out.raw == other.raw
    assert out.direction == frame.direction


def test_mutate_bits_xors_without_touching_checksum():
    frame = make_frame()
    out = apply_mutation(frame, ForwardDecision.mutate_bits((6, 0x02)))
    assert out.raw[6] == frame.raw[6] ^ 0x02
    assert out.raw[-2:] == frame.raw[-2:]  # checksum left stale


def test_mutate_bits_offset_validation():
    frame = make_frame()
    with pytest.raises(OffsetOutOfRange):
        apply_mutation(frame, ForwardDecision.mutate_bits((len(frame.raw), 0x01)))


def test_relay_config_requires_distinct_ports():
    with pytest.raises(ValueError):
        RelayConfig(ue_listen_port=2000, gnb_forward_port=2000)
    RelayConfig()  # paper defaults are valid


# ---------------------------------------------------------------------------
# end-to-end relay contracts
# ---------------------------------------------------------------------------


class Recording:
    """Interceptor wrapper capturing relay events via the trace hook."""

    def __init__(self, inner=None):
        self.inner = inner or identity_interceptor
        self.seen = []

    def __call__(self, frame):
        decision = self.inner(frame)
        self.seen.append((frame.direction, frame.raw, decision.kind))
        return decision


# each scenario runs on the in-process transport and on loopback sockets
TRANSPORTS = (run_connection, run_socket_connection)


def test_identity_relay_is_transparent():
    config = TwinConfig(seed=9)
    for connect in TRANSPORTS:
        direct = connect(config).trace
        rec = Recording()
        relayed = connect(config, None, rec).trace
        assert relayed.outcome == direct.outcome == "Success", connect.__name__
        assert relayed.state_sequence() == direct.state_sequence(), connect.__name__
        # per-direction FIFO: uplink and downlink sequences preserved in order
        uplink = [raw for d, raw, _ in rec.seen if d is Direction.UPLINK]
        downlink = [raw for d, raw, _ in rec.seen if d is Direction.DOWNLINK]
        assert len(uplink) == 5 and len(downlink) == 5, connect.__name__


def test_every_frame_recorded_exactly_once_with_decision():
    config = TwinConfig(seed=4)
    for connect in TRANSPORTS:
        rec = Recording()
        trace = connect(config, None, rec).trace
        assert trace.outcome == "Success", connect.__name__
        # 10 transits, every one recorded with its decision
        assert len(rec.seen) == 10, connect.__name__
        assert {kind for _, _, kind in rec.seen} == {"pass"}, connect.__name__
        assert len(trace.states) == 10, connect.__name__


def test_drop_all_downlink_starves_ue():
    config = TwinConfig(seed=4, timeout=0.6, retransmit_interval=0.1)

    def drop_downlink(frame):
        if frame.direction is Direction.DOWNLINK:
            return ForwardDecision.drop()
        return ForwardDecision.pass_()

    for connect in TRANSPORTS:
        trace = connect(config, None, drop_downlink).trace
        assert trace.outcome == "Failed", connect.__name__


def test_uplink_b_to_d_replacement_fails_connection():
    """Replacing the second uplink command with a recorded security-mode
    complete is one of the twin's built-in flaw pairs."""
    config = TwinConfig(seed=6)
    profile = VulnerabilityProfile.from_type_pairs(
        [
            (MsgType.RRC_SETUP_REQUEST, MsgType.SECURITY_MODE_COMPLETE),
            (MsgType.RRC_SETUP_COMPLETE, MsgType.SECURITY_MODE_COMPLETE),
        ],
        config.rnti,
    )
    target = state_id_for(MsgType.RRC_SETUP_COMPLETE, config.rnti)

    for connect in TRANSPORTS:
        recorded = {}

        def capture(frame):
            recorded.setdefault(derive_state_id(frame), frame)
            return ForwardDecision.pass_()

        connect(config, None, capture)
        smc = recorded[state_id_for(MsgType.SECURITY_MODE_COMPLETE, config.rnti)]

        class ReplaceB:
            fuzzed = False

            def __call__(self, frame):
                if not self.fuzzed and derive_state_id(frame) == target:
                    self.fuzzed = True
                    return ForwardDecision.replace(smc)
                return ForwardDecision.pass_()

        trace = connect(config, profile, ReplaceB()).trace
        assert trace.outcome == "Failed", connect.__name__
        # the injected D appears in the trace where B would have been
        assert state_id_for(MsgType.SECURITY_MODE_COMPLETE, config.rnti) in trace.state_sequence()


def test_mutate_encrypted_byte_triggers_integrity_failure():
    config = TwinConfig(seed=8)
    reconf = state_id_for(MsgType.RRC_RECONFIGURATION, config.rnti)

    class FlipEncryptedField:
        fuzzed = False

        def __call__(self, frame):
            if not self.fuzzed and derive_state_id(frame) == reconf:
                self.fuzzed = True
                return ForwardDecision.mutate_bits((5, 0xFF))
            return ForwardDecision.pass_()

    for connect in TRANSPORTS:
        result = connect(config, None, FlipEncryptedField())
        assert result.trace.outcome == "Failed", connect.__name__
        assert result.ue_state.failure_reason == "integrity", connect.__name__
