"""Campaign store durability, queries and export formats."""

import json
import os
import stat
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzztwin.analyzer import EmptyInput, build_graph
from fuzztwin.store import (
    ActionRow,
    CampaignStore,
    ConnectionTrace,
    CorruptRecord,
    FuzzActionRecord,
    ProbabilityRow,
    StateRow,
    UnsupportedFormat,
)


def make_trace(states, outcome="Success", fuzz=False):
    stamped = tuple((s, (i + 1) * 10_000_000) for i, s in enumerate(states))
    action = (
        FuzzActionRecord(kind="command_replace", layer="rrc", source_state=states[0], replacement_state=states[-1])
        if fuzz
        else None
    )
    return ConnectionTrace(
        states=stamped,
        outcome=outcome,
        fuzz_action=action,
        fuzz_time=10_000_000 if fuzz else None,
        outcome_time=(len(states) + 1) * 10_000_000,
    )


def test_record_and_reload_round_trip(tmp_path):
    path = tmp_path / "campaign.fztw"
    store = CampaignStore(path)
    store.record_state(StateRow("s1", "CCCH_UL", "010146", "setup request"))
    store.record_action(ActionRow(0, "s1", "0101460100", "CCCH_UL", "PUSCH", 10))
    store.record_probability(ProbabilityRow("s1", "s2", 0.5))
    tid = store.record_trace(make_trace(["s1", "s2"], fuzz=True))
    store.close()

    reloaded = CampaignStore(path)
    assert reloaded.states["s1"].description == "setup request"
    assert reloaded.actions[0].physical_channel == "PUSCH"
    assert reloaded.probabilities[("s1", "s2")].probability == 0.5
    assert reloaded.get_trace(tid) == store.get_trace(tid)
    reloaded.close()


def test_record_trace_idempotent(tmp_path):
    store = CampaignStore(tmp_path / "s.fztw")
    t = make_trace(["a", "b", "c"])
    id1 = store.record_trace(t)
    id2 = store.record_trace(t)
    assert id1 == id2
    assert len(store) == 1
    store.close()


def test_probability_rows_last_write_wins(tmp_path):
    path = tmp_path / "p.fztw"
    store = CampaignStore(path)
    store.record_probability(ProbabilityRow("a", "b", 0.5))
    store.record_probability(ProbabilityRow("a", "b", 0.75))
    store.close()
    reloaded = CampaignStore(path)
    assert reloaded.probabilities[("a", "b")].probability == 0.75
    reloaded.close()


def v1_record(kind, payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    crc = zlib.crc32(bytes([kind]) + blob) & 0xFFFFFFFF
    return len(blob).to_bytes(4, "little") + bytes([kind]) + blob + crc.to_bytes(4, "little")


def test_store_with_completion_rate_key_still_loads(tmp_path):
    # probability records written before ProbabilityRow.completion_rate was
    # removed carry the key, always null
    old = {"state_id_from": "a", "state_id_to": "b", "probability": 0.25,
           "completion_rate": None}
    path = tmp_path / "old.fztw"
    path.write_bytes(b"FZTW\x01" + v1_record(3, old))
    reloaded = CampaignStore(path)
    assert reloaded.probabilities == {("a", "b"): ProbabilityRow("a", "b", 0.25)}
    reloaded.close()

    imported = CampaignStore()
    imported.import_json(json.dumps({"probabilities": [old]}).encode())
    assert imported.probabilities == {("a", "b"): ProbabilityRow("a", "b", 0.25)}


def frequencies(store):
    """Per-state and per-transition counts over every stored trace."""
    graph = build_graph(store.traces())
    return (
        {sid: sum(counts) for sid, counts in graph.state_counts.items()},
        {edge: sum(counts) for edge, counts in graph.edges.items()},
    )


def test_query_frequencies_single_trace():
    store = CampaignStore()
    store.record_trace(make_trace(["s1", "s2", "s3"]))
    states, transitions = frequencies(store)
    assert states == {"s1": 1, "s2": 1, "s3": 1}
    assert transitions == {("s1", "s2"): 1, ("s2", "s3"): 1}


def test_query_frequencies_additive():
    store = CampaignStore()
    store.record_trace(make_trace(["s1", "s2", "s3"]))
    # same states, different timestamps so the content hash differs
    t2 = ConnectionTrace(
        states=(("s1", 5), ("s2", 15), ("s3", 25)), outcome="Success", outcome_time=35
    )
    store.record_trace(t2)
    states, transitions = frequencies(store)
    assert states == {"s1": 2, "s2": 2, "s3": 2}
    assert transitions == {("s1", "s2"): 2, ("s2", "s3"): 2}


def test_query_frequencies_empty_store():
    with pytest.raises(EmptyInput):
        frequencies(CampaignStore())


def test_outcome_partition_counts_paper_shape():
    store = CampaignStore()
    for i in range(76):
        store.record_trace(ConnectionTrace(states=(("ok", i + 1),), outcome="Success", outcome_time=i + 2))
    for i in range(129):
        store.record_trace(ConnectionTrace(states=(("bad", i + 1),), outcome="Failed", outcome_time=i + 2))
    assert len(store.traces("Success")) == 76
    assert len(store.traces("Failed")) == 129
    assert len(store) == 205


def test_export_json_round_trip(tmp_path):
    store = CampaignStore()
    store.record_state(StateRow("s1", "CCCH_UL", "010146", ""))
    store.record_trace(make_trace(["s1", "s2"], outcome="Failed", fuzz=True))
    blob = store.export("json")
    other = CampaignStore()
    other.import_json(blob)
    assert other.export("json") == blob


def test_export_empty_documents():
    store = CampaignStore()
    csv = store.export("csv").decode()
    assert csv.splitlines()[0].startswith("trace_id,seq_index,state_id")
    assert len(csv.splitlines()) == 1
    dot = store.export("dot").decode()
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    with pytest.raises(UnsupportedFormat):
        store.export("xml")


def test_dot_edge_labels_match_frequency_recount():
    store = CampaignStore()
    store.record_trace(make_trace(["a", "b"], outcome="Failed"))
    t = ConnectionTrace(states=(("a", 7), ("b", 9)), outcome="Success", outcome_time=11)
    store.record_trace(t)
    s, f = build_graph(store.traces()).edge_counts(("a", "b"))
    assert (s, f) == (1, 1)
    dot = store.export("dot").decode()
    assert f'"a" -> "b" [label="fail:{f} succ:{s}"];' in dot


def test_truncated_tail_is_discarded(tmp_path):
    path = tmp_path / "t.fztw"
    store = CampaignStore(path)
    good = store.record_trace(make_trace(["a", "b"]))
    store.close()
    size = os.path.getsize(path)
    store2 = CampaignStore(path)
    store2.record_trace(make_trace(["c", "d"]))
    store2.close()
    # chop the second record mid-payload
    with open(path, "r+b") as fh:
        fh.truncate(size + 7)
    reloaded = CampaignStore(path)
    assert [t.trace_id for t in reloaded.traces()] == [good]
    reloaded.close()


def test_mid_file_corruption_raises(tmp_path):
    path = tmp_path / "c.fztw"
    store = CampaignStore(path)
    store.record_trace(make_trace(["a", "b"]))
    store.record_trace(make_trace(["c", "d"]))
    store.close()
    with open(path, "r+b") as fh:
        fh.seek(20)
        byte = fh.read(1)
        fh.seek(20)
        fh.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(CorruptRecord):
        CampaignStore(path)


def test_compact_preserves_contents(tmp_path):
    path = tmp_path / "z.fztw"
    store = CampaignStore(path)
    for p in (0.5, 0.6, 0.7):
        store.record_probability(ProbabilityRow("a", "b", p))
    tid = store.record_trace(make_trace(["a", "b"]))
    before = store.export("json")
    size_before = os.path.getsize(path)
    store.compact()
    assert store.export("json") == before
    assert os.path.getsize(path) < size_before  # superseded prob rows dropped
    store.close()
    reloaded = CampaignStore(path)
    assert reloaded.get_trace(tid) is not None
    assert reloaded.probabilities[("a", "b")].probability == 0.7
    reloaded.close()


def test_compact_syncs_directory_after_replace(tmp_path, monkeypatch):
    path = tmp_path / "z.fztw"
    store = CampaignStore(path)
    store.record_trace(make_trace(["a", "b"]))
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        events.append(("fsync", stat.S_ISDIR(info.st_mode), info.st_ino))
        return real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", src, dst))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    store.compact()
    store.close()
    kinds = [e[0] for e in events]
    assert "replace" in kinds
    after = events[kinds.index("replace") + 1 :]
    assert ("fsync", True, os.stat(tmp_path).st_ino) in after


@given(
    st.lists(
        st.lists(st.sampled_from(["s0", "s1", "s2", "s3"]), min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.sampled_from(["Success", "Failed"]), min_size=8, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_reload_fidelity_property(tmp_path_factory, sequences, outcomes):
    path = tmp_path_factory.mktemp("prop") / "prop.fztw"
    store = CampaignStore(path, durable=False)
    for i, (seq, outcome) in enumerate(zip(sequences, outcomes)):
        trace = ConnectionTrace(
            states=tuple((s, (j + 1) * 10 + i) for j, s in enumerate(seq)),
            outcome=outcome,
            outcome_time=1000 + i,
        )
        store.record_trace(trace)
    exported = store.export("json")
    store.close()
    reloaded = CampaignStore(path)
    assert reloaded.export("json") == exported
    reloaded.close()
