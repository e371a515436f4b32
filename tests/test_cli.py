"""CLI subcommands, config precedence and exit codes."""

import json
import os
from pathlib import Path

import pytest

from fuzztwin.cli import EXIT_CONFIG, EXIT_OK, EXIT_PORT, EXIT_STORE, main, parse_config_file
from fuzztwin.store import CampaignStore
from fuzztwin.synth import generate_dataset


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("FUZZTWIN_"):
            monkeypatch.delenv(key)


def run(*argv):
    return main([str(a) for a in argv])


def make_synth_store(path, seed=0, n=60):
    traces, _ = generate_dataset.__wrapped__(seed=seed) if hasattr(generate_dataset, "__wrapped__") else generate_dataset(seed=seed)
    store = CampaignStore(path)
    for t in traces[:n]:
        store.record_trace(t)
    store.close()


def test_twin_run_baseline(tmp_path, capsys):
    assert run("twin-run", "--handshakes", 2, "--seed", 5) == EXIT_OK
    out = capsys.readouterr().out
    assert "2/2 connections completed" in out


def test_campaign_black_box_deterministic_summary(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = run(
            "campaign", "--knowledge", "black_box", "--budget", 6, "--seed", 7,
            "--out-dir", out, "--store", out / "c.fztw",
            "--channels", "PDSCH", "--retransmit-interval", "0.05",
        )
        assert code == EXIT_OK
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()
    result = json.loads((out1 / "campaign_result.json").read_text())
    assert result["strategy"] == "lal"
    assert result["cases_run"] == 6


def test_campaign_grey_box_simulated(tmp_path):
    out = tmp_path / "syal"
    code = run(
        "campaign", "--knowledge", "grey_box", "--alpha", 0.5, "--ratio", 0.1,
        "--simulated-commands", 10, "--vuln-count", 4, "--seed", 3,
        "--out-dir", out, "--store", out / "c.fztw",
    )
    assert code == EXIT_OK
    result = json.loads((out / "campaign_result.json").read_text())
    assert result["strategy"] == "syal"
    assert len(result["vulnerabilities_found"]) == 4


def test_campaign_white_box_33_cases(tmp_path):
    out = tmp_path / "soal"
    code = run(
        "campaign", "--knowledge", "white_box", "--target", "rrc_setup_request",
        "--seed", 1, "--out-dir", out, "--store", out / "c.fztw",
    )
    assert code == EXIT_OK
    result = json.loads((out / "campaign_result.json").read_text())
    assert result["strategy"] == "soal"
    assert result["cases_run"] == 33
    summary = (out / "summary.txt").read_text()
    assert "cases: 33" in summary and "focus: rrc_setup_request" in summary


def test_campaign_strategy_override_and_config_error(tmp_path):
    assert run("campaign", "--out-dir", tmp_path) == EXIT_CONFIG  # no knowledge/strategy


def test_analyze_report_export_replay_flow(tmp_path):
    store_path = tmp_path / "s.fztw"
    make_synth_store(store_path)
    out = tmp_path / "analysis"

    assert run("analyze", "--store", store_path, "--out-dir", out) == EXIT_OK
    report = json.loads((out / "risk_report.json").read_text())
    assert report["mode"] == "resubstitution"
    assert (out / "transactions.dot").read_text().startswith("digraph")
    assert (out / "curve_fit.csv").read_text().startswith("model,")

    # read-only commands leave the store bytes untouched
    before = store_path.read_bytes()
    assert run("report", "--store", store_path, "--out-dir", out) == EXIT_OK
    assert run("export", "--store", store_path, "--format", "csv", "--out", tmp_path / "t.csv") == EXIT_OK
    assert store_path.read_bytes() == before

    store = CampaignStore(store_path)
    trace_id = store.traces()[0].trace_id
    store.close()
    assert run("replay", "--store", store_path, "--trace-id", trace_id) == EXIT_OK
    assert store_path.read_bytes() == before


def test_report_regenerates_identically(tmp_path):
    store_path = tmp_path / "s.fztw"
    make_synth_store(store_path, seed=2)
    out = tmp_path / "r"
    assert run("report", "--store", store_path, "--out-dir", out) == EXIT_OK
    first = (out / "risk_report.json").read_bytes()
    assert run("report", "--store", store_path, "--out-dir", out) == EXIT_OK
    assert (out / "risk_report.json").read_bytes() == first


def test_train_predict_round_trip(tmp_path):
    store_path = tmp_path / "s.fztw"
    make_synth_store(store_path, seed=1, n=80)
    model_path = tmp_path / "model.bin"
    code = run(
        "train-predictor", "--store", store_path, "--cutoff-steps", 8,
        "--epochs", 3, "--model-out", model_path, "--seed", 0,
    )
    assert code == EXIT_OK
    assert model_path.exists() and Path(str(model_path) + ".json").exists()

    store = CampaignStore(store_path)
    trace_id = store.traces()[0].trace_id
    store.close()
    code = run("predict", "--model", model_path, "--store", store_path, "--trace-id", trace_id)
    assert code == EXIT_OK


def test_missing_store_is_config_error(tmp_path):
    assert run("analyze", "--store", tmp_path / "nope.fztw") == EXIT_CONFIG


def test_corrupt_store_exit_code(tmp_path):
    store_path = tmp_path / "bad.fztw"
    make_synth_store(store_path)
    data = bytearray(store_path.read_bytes())
    data[30] ^= 0xFF
    store_path.write_bytes(bytes(data))
    assert run("analyze", "--store", store_path) == EXIT_STORE


def test_env_twin_overrides_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FUZZTWIN_HANDSHAKES", "3")
    assert run("twin-run", "--seed", 1) == EXIT_OK
    assert "3/3 connections completed" in capsys.readouterr().out


def test_config_file_parsing_and_precedence(tmp_path, capsys):
    config = tmp_path / "campaign.conf"
    config.write_text("# comment\nhandshakes = 2\nseed = 9\n")
    assert run("twin-run", "--config", config) == EXIT_OK
    assert "2/2 connections completed" in capsys.readouterr().out
    # flag beats config file
    assert run("twin-run", "--config", config, "--handshakes", 1) == EXIT_OK
    assert "1/1 connections completed" in capsys.readouterr().out
    with pytest.raises(Exception):
        parse_config_file(tmp_path / "missing.conf")


def test_config_file_rejects_malformed_lines(tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("not a key value line\n")
    assert run("twin-run", "--config", config) == EXIT_CONFIG


def test_twin_run_on_pinned_relay_ports(capsys):
    # the four-port deployment topology, on ports below Linux's ephemeral
    # range (32768-60999) and IANA's (49152-65535), so that no client
    # socket of an earlier test can hold one of them
    code = run(
        "twin-run", "--seed", 2, "--ue-listen", 24203, "--gnb-forward", 24200,
        "--gnb-listen", 24202, "--ue-forward", 24201,
    )
    assert code == EXIT_OK
    assert "1/1 connections completed" in capsys.readouterr().out


def test_port_bind_failure_exit_code():
    import socket

    blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        code = run(
            "twin-run", "--seed", 1, "--ue-listen", port, "--gnb-forward", 43000,
            "--gnb-listen", 43002, "--ue-forward", 43001,
        )
    finally:
        blocker.close()
    assert code == EXIT_PORT
