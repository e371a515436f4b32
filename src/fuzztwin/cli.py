"""Command-line entry point for the fuzzing workbench.

Subcommands: twin-run, campaign, analyze, train-predictor, predict, report,
export, replay. Strategy selection follows the attacker's knowledge level:
black_box runs exhaustive command replacement, grey_box the
probability-scheduled scheduler, white_box bit-level identifier fuzzing.

Every flag has an environment-variable twin (FUZZTWIN_<NAME>, e.g.
FUZZTWIN_SEED) and may also come from a key = value config file passed with
--config. Precedence: explicit flag, then environment, then config file,
then the built-in default.

Exit codes: 0 success, 2 configuration error, 3 port bind failure,
4 corrupt or unreadable store.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import analyzer as az
from . import engine, predictor
from .relay import PortBindFailure
from .store import CampaignStore, CorruptRecord
from .twin import TwinConfig, VulnerabilityProfile, identity_interceptor, run_socket_connection
from .wire import MsgType

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PORT = 3
EXIT_STORE = 4

ENV_PREFIX = "FUZZTWIN_"

KNOWLEDGE_STRATEGY = {"black_box": "lal", "grey_box": "syal", "white_box": "soal"}

# built-in twin flaws: the two uplink replacements known to kill a connection
DEFAULT_PROFILE_TYPE_PAIRS = (
    (MsgType.RRC_SETUP_REQUEST, MsgType.SECURITY_MODE_COMPLETE),
    (MsgType.RRC_SETUP_COMPLETE, MsgType.SECURITY_MODE_COMPLETE),
)


class ConfigError(Exception):
    pass


def parse_config_file(path: str) -> dict:
    """key = value lines; blank lines and # comments ignored."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


class Settings:
    """Flag > environment > config file > default."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        config_path = self.args.get("config") or os.environ.get(ENV_PREFIX + "CONFIG")
        self.file_values = parse_config_file(config_path) if config_path else {}

    def get(self, name: str, default=None, cast=None):
        value = self.args.get(name)
        if value is None:
            value = os.environ.get(ENV_PREFIX + name.upper())
        if value is None:
            value = self.file_values.get(name)
        if value is None:
            return default
        if cast is not None and isinstance(value, str):
            if cast is bool:
                return value.lower() in ("1", "true", "yes", "on")
            return cast(value)
        return value


def load_profile(path: str | None, rnti: int) -> VulnerabilityProfile:
    if path is None:
        return VulnerabilityProfile.from_type_pairs(DEFAULT_PROFILE_TYPE_PAIRS, rnti)
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load profile {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"profile {path}: expected a JSON object")
    key = "type_pairs" if "type_pairs" in doc else "pairs"
    pairs = doc.get(key, [])
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ConfigError(f"profile {path}: every {key} entry must be a pair")
    if key == "type_pairs":
        try:
            pairs = [(MsgType[a], MsgType[b]) for a, b in pairs]
        except KeyError as exc:
            raise ConfigError(f"profile {path}: unknown message type {exc.args[0]!r}") from exc
        return VulnerabilityProfile.from_type_pairs(pairs, rnti)
    return VulnerabilityProfile(
        pairs=frozenset(tuple(p) for p in pairs),
        clustering=doc.get("clustering", "uniform"),
    )


def twin_config(settings: Settings) -> TwinConfig:
    return TwinConfig(
        seed=settings.get("seed", TwinConfig.seed, int),
        rnti=settings.get("rnti", TwinConfig.rnti, lambda v: int(v, 0)),
        timeout=settings.get("timeout", TwinConfig.timeout, float),
        retransmit_interval=settings.get(
            "retransmit_interval", TwinConfig.retransmit_interval, float
        ),
        host=settings.get("host", TwinConfig.host, str),
    )


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(json.dumps(payload, indent=1, sort_keys=True).encode())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _relay_ports(settings: Settings):
    from .relay import RelayConfig

    ports = {
        name: settings.get(name, 0, int)
        for name in ("ue_listen", "gnb_forward", "gnb_listen", "ue_forward")
    }
    if not any(ports.values()):
        return None  # fully ephemeral
    return RelayConfig(
        ue_listen_port=ports["ue_listen"] or 2003,
        gnb_forward_port=ports["gnb_forward"] or 2000,
        gnb_listen_port=ports["gnb_listen"] or 2002,
        ue_forward_port=ports["ue_forward"] or 2001,
    )


def cmd_twin_run(settings: Settings) -> int:
    config = twin_config(settings)
    profile = load_profile(settings.get("profile"), config.rnti)
    count = settings.get("handshakes", 1, int)
    use_relay = settings.get("relay", True, bool)
    ports = _relay_ports(settings)
    store_path = settings.get("store")
    store = CampaignStore(store_path) if store_path else None
    ok = 0
    for k in range(count):
        trace = run_socket_connection(
            config,
            profile,
            identity_interceptor if use_relay else None,
            store=store,
            relay_ports=ports,
        ).trace
        ok += trace.outcome == "Success"
        print(f"handshake {k + 1}/{count}: {trace.outcome} ({len(trace.states)} states)")
    if store:
        store.close()
    print(f"{ok}/{count} connections completed")
    return EXIT_OK


def _campaign_summary(result: engine.CampaignResult, extra: dict) -> str:
    lines = [
        f"strategy: {result.strategy}",
        f"seed: {result.seed}",
        f"cases run: {result.cases_run}",
        f"vulnerabilities found: {len(result.vulnerabilities_found)}",
    ]
    for key in sorted(extra):
        lines.append(f"{key}: {extra[key]}")
    for action, trace_id in result.vulnerabilities_found:
        rec = action.to_record()
        if rec.kind == "command_replace":
            desc = f"{rec.source_state} -> {rec.replacement_state} [{rec.layer}]"
        else:
            desc = f"{rec.msg_type}.{rec.field_name} := {rec.value} [{rec.phase}]"
        lines.append(f"  vuln: {desc} trace={trace_id}")
    return "\n".join(lines) + "\n"


def cmd_campaign(settings: Settings) -> int:
    strategy = settings.get("strategy")
    if strategy is None:
        knowledge = settings.get("knowledge")
        if knowledge not in KNOWLEDGE_STRATEGY:
            raise ConfigError("campaign needs --knowledge or --strategy")
        strategy = KNOWLEDGE_STRATEGY[knowledge]
    if strategy not in ("lal", "syal", "soal"):
        raise ConfigError(f"unknown strategy {strategy!r}")

    # every configuration error is raised here, before the store file exists
    config = twin_config(settings)
    seed = settings.get("seed", 0, int)
    out_dir = Path(settings.get("out_dir", "campaign-out", str))
    store_path = settings.get("store", str(out_dir / "campaign.fztw"), str)
    channels = settings.get("channels")
    channels = tuple(channels.split(",")) if channels else None
    extra: dict = {}  # summary must stay byte-identical across runs: no paths
    simulated = None
    if strategy == "lal":
        budget = settings.get("budget", 50, int)

        def run(target, store):
            return engine.lal_campaign(
                target.pool, budget=budget, seed=seed, target=target, channels=channels
            )
    elif strategy == "syal":
        alpha = settings.get("alpha", 0.5, float)
        ratio = settings.get("ratio", 0.1, float)
        p_min = settings.get("p_min", 0.01, float)
        scope = settings.get("update_scope", "row_column", str)
        simulated = settings.get("simulated_commands", None, int)
        extra.update(alpha=alpha, ratio=ratio, p_min=p_min, update_scope=scope)
        if simulated:
            profile = VulnerabilityProfile.generate(
                [f"cmd{i:02d}" for i in range(simulated)],
                count=settings.get("vuln_count", max(1, simulated // 3), int),
                clustering=settings.get("clustering", "row_clustered", str),
                seed=seed,
            )
            stop = settings.get("stop_after_found", profile.count, int)
        else:
            stop = settings.get("stop_after_found", None, int)

        def run(target, store):
            result, _ = engine.syal_campaign(
                target, alpha=alpha, ratio=ratio, p_min=p_min, update_scope=scope,
                seed=seed, channels=channels, stop_after_found=stop, store=store,
            )
            return result
    else:  # soal
        phases = tuple(settings.get("phases", "before_encryption", str).split(","))
        actions = engine.default_enumeration(phases)
        focus = settings.get("target")
        if focus:
            actions = [a for a in actions if a.msg_type.name == focus.upper()]
            if not actions:
                names = sorted({t.name.lower() for t in engine.DEFAULT_FIELD_DOMAINS})
                raise ConfigError(f"no white-box cases for target {focus!r}; "
                                  f"choose from {', '.join(names)}")
            extra["focus"] = focus
        extra.update(phases=",".join(phases), cases=len(actions))

        def run(target, store):
            return engine.soal_campaign(target, actions)
    if not simulated:
        profile = load_profile(settings.get("profile"), config.rnti)

    out_dir.mkdir(parents=True, exist_ok=True)
    store = CampaignStore(store_path)
    try:
        if simulated:
            target = engine.SimulatedTarget.alphabet(simulated, profile)
        else:
            target = engine.HandshakeTarget(config, profile, store=store)
            target.bootstrap()
        result = run(target, store)
    except engine.EngineError as exc:
        raise ConfigError(str(exc)) from exc
    finally:
        store.close()

    write_json(out_dir / "campaign_result.json", result.as_dict())
    (out_dir / "summary.txt").write_text(_campaign_summary(result, extra))
    print(_campaign_summary(result, extra), end="")
    print(f"store: {store_path}")
    return EXIT_OK


def _open_store(settings: Settings) -> CampaignStore:
    path = settings.get("store")
    if not path or not os.path.exists(path):
        raise FileNotFoundError(f"store not found: {path}")
    return CampaignStore(path)


def _found_curve_from_store(store: CampaignStore):
    """Cumulative failed-connection curve over fuzzed traces, in store order."""
    curve = []
    found = 0
    cases = 0
    for trace in store.traces():
        if trace.fuzz_action is None:
            continue
        cases += 1
        found += trace.outcome == "Failed"
        curve.append((cases, found))
    return curve


def cmd_analyze(settings: Settings) -> int:
    store = _open_store(settings)
    out_dir = Path(settings.get("out_dir", "analysis-out", str))
    out_dir.mkdir(parents=True, exist_ok=True)
    traces = store.traces()
    if not traces:
        write_json(out_dir / "risk_report.json", {"empty": True})
        (out_dir / "transactions.dot").write_bytes(store.export("dot"))
        (out_dir / "curve_fit.csv").write_text("model,param1,param2,r_squared\n")
        print("store is empty; wrote empty reports")
        return EXIT_OK
    mode = settings.get("eval_mode", "resubstitution", str)
    report = az.evaluate_rule(
        traces,
        mode=mode,
        split_fraction=settings.get("split_fraction", 0.5, float),
        seed=settings.get("seed", 0, int),
        max_success_occurrences=settings.get("max_success_occurrences", 1, int),
    )
    write_json(out_dir / "risk_report.json", report.as_dict())
    (out_dir / "transactions.dot").write_bytes(store.export("dot"))

    rows = ["model,param1,param2,r_squared"]
    curve = _found_curve_from_store(store)
    if len([y for _, y in curve if y > 0]) >= 3:
        for model in ("linear", "exponential"):
            try:
                fit = az.fit_found_curve(curve, model)
                rows.append(
                    f"{model},{fit.params[0]!r},{fit.params[1]!r},{fit.r_squared!r}"
                )
            except az.AnalyzerError:
                pass
    (out_dir / "curve_fit.csv").write_text("\n".join(rows) + "\n")
    print(
        f"analyzed {len(traces)} traces: "
        f"{len(report.high_risk_states)} high-risk states, "
        f"{len(report.high_risk_transactions)} high-risk transactions, "
        f"rule recall {report.rule_recall:.4f} ({report.mode})"
    )
    store.close()
    return EXIT_OK


def _cutoff_from_settings(settings: Settings):
    duration = settings.get("cutoff_duration", None, float)
    if duration is not None:
        return predictor.Duration(duration)
    return predictor.Steps(settings.get("cutoff_steps", 10, int))


def cmd_train_predictor(settings: Settings) -> int:
    store = _open_store(settings)
    traces = store.traces()
    store.close()
    cutoff = _cutoff_from_settings(settings)
    samples, vocab = predictor.make_samples(traces, cutoff)
    config = predictor.TrainConfig(
        learning_rate=settings.get("learning_rate", 0.001, float),
        epochs=settings.get("epochs", 30, int),
        batches_per_epoch=settings.get("batches_per_epoch", 10, int),
        test_fraction=settings.get("test_fraction", 0.20, float),
        seed=settings.get("seed", 0, int),
    )
    model, report = predictor.lstm_train(samples, config)
    model_path = Path(settings.get("model_out", "predictor-model.bin", str))
    model_path.parent.mkdir(parents=True, exist_ok=True)
    model.save(model_path)
    payload = report.as_dict()
    payload["vocab"] = vocab
    payload["cutoff"] = str(cutoff)
    write_json(Path(str(model_path) + ".json"), payload)
    print(
        f"trained on {len(samples)} traces at {cutoff}: "
        f"accuracy {report.accuracy:.4f}, auc {report.auc:.4f}, "
        f"mean lead time {report.mean_lead_time:.4f}s"
    )
    return EXIT_OK


def cmd_predict(settings: Settings) -> int:
    model_path = settings.get("model")
    if not model_path or not os.path.exists(model_path):
        raise FileNotFoundError(f"model not found: {model_path}")
    model = predictor.LstmModel.load(model_path)
    sidecar = Path(str(model_path) + ".json")
    if not sidecar.exists():
        raise ConfigError("model sidecar json with the vocabulary is missing")
    meta = json.loads(sidecar.read_text())
    vocab = meta["vocab"]
    cutoff_kind, _, cutoff_value = meta["cutoff"].partition(":")
    cutoff = (
        predictor.Steps(int(cutoff_value))
        if cutoff_kind == "steps"
        else predictor.Duration(float(cutoff_value))
    )

    states_arg = settings.get("states")
    if states_arg:
        names = [s.strip() for s in states_arg.split(",") if s.strip()]
        timestamps = [0.01 * (i + 1) for i in range(len(names))]
        outcome_time = timestamps[-1] + 0.02 if timestamps else 0.0
    else:
        store = _open_store(settings)
        trace = store.get_trace(settings.get("trace_id", "", str))
        store.close()
        if trace is None:
            raise ConfigError("predict needs --states or a valid --trace-id")
        names = trace.state_sequence()
        t0 = trace.states[0][1]
        timestamps = [(ts - t0) / 1e9 for _, ts in trace.states]
        outcome_time = (trace.outcome_time - t0) / 1e9
    index = {sid: i for i, sid in enumerate(vocab)}
    unknown = [n for n in names if n not in index]
    if unknown:
        raise ConfigError(f"states outside training vocabulary: {unknown[:3]}")
    sample = predictor.SequenceSample(
        states=tuple(index[n] for n in names),
        timestamps=tuple(timestamps),
        label=0,
        cutoff=cutoff,
        outcome_time=outcome_time,
    )
    probability = predictor.lstm_forward(model, sample)
    print(f"failure probability: {probability:.6f}")
    return EXIT_OK


def cmd_report(settings: Settings) -> int:
    code = cmd_analyze(settings)
    if code != EXIT_OK:
        return code
    model_path = settings.get("model")
    if model_path and os.path.exists(model_path):
        sidecar = Path(str(model_path) + ".json")
        if sidecar.exists():
            out_dir = Path(settings.get("out_dir", "analysis-out", str))
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "predictor_eval.json").write_bytes(sidecar.read_bytes())
            print(f"copied predictor evaluation to {out_dir / 'predictor_eval.json'}")
    return EXIT_OK


def cmd_export(settings: Settings) -> int:
    store = _open_store(settings)
    fmt = settings.get("format", "json", str)
    blob = store.export(fmt)
    store.close()
    out = settings.get("out")
    if out:
        Path(out).write_bytes(blob)
        print(f"wrote {len(blob)} bytes to {out}")
    else:
        sys.stdout.write(blob.decode())
    return EXIT_OK


def cmd_replay(settings: Settings) -> int:
    store = _open_store(settings)
    trace_id = settings.get("trace_id")
    trace = store.get_trace(trace_id) if trace_id else None
    store.close()
    if trace is None:
        raise ConfigError(f"trace not found: {trace_id}")
    print(f"trace {trace.trace_id}: outcome {trace.outcome}")
    if trace.fuzz_action:
        print(f"fuzz action: {trace.fuzz_action} at t={trace.fuzz_time}")
    for sid, ts in trace.states:
        print(f"  {ts:>12d} ns  {sid}")
    print(f"outcome at {trace.outcome_time} ns")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int, help="campaign seed (default 0)")
    p.add_argument("--store", help="campaign store path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fuzztwin", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "twin-run", help="run baseline handshakes on the built-in twin over loopback sockets"
    )
    _add_common(p)
    p.add_argument("--handshakes", type=int, help="number of connections (default 1)")
    p.add_argument("--relay", action="store_const", const="true", help="route through the MITM relay (default)")
    p.add_argument("--no-relay", dest="relay", action="store_const", const="false")
    p.add_argument("--profile", help="vulnerability profile json")
    p.add_argument("--timeout", type=float)
    p.add_argument("--rnti")
    p.add_argument("--ue-listen", dest="ue_listen", type=int,
                   help="relay port for uplink from the UE (default 2003 when pinned)")
    p.add_argument("--gnb-forward", dest="gnb_forward", type=int,
                   help="gNB port the relay forwards uplink to (default 2000)")
    p.add_argument("--gnb-listen", dest="gnb_listen", type=int,
                   help="relay port for downlink from the gNB (default 2002)")
    p.add_argument("--ue-forward", dest="ue_forward", type=int,
                   help="UE port the relay forwards downlink to (default 2001)")

    p = sub.add_parser("campaign", help="run a fuzzing campaign")
    _add_common(p)
    p.add_argument("--knowledge", choices=sorted(KNOWLEDGE_STRATEGY))
    p.add_argument("--strategy", choices=("lal", "syal", "soal"), help="explicit override")
    p.add_argument("--budget", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--ratio", type=float)
    p.add_argument("--p-min", dest="p_min", type=float)
    p.add_argument("--update-scope", dest="update_scope", choices=("entry", "row_column"))
    p.add_argument("--channels", help="comma-separated physical channels")
    p.add_argument("--profile", help="vulnerability profile json")
    p.add_argument("--target",
                   help="white-box: fuzz only this message type, e.g. rrc_setup_request")
    p.add_argument("--phases", help="before_encryption,after_encryption")
    p.add_argument("--simulated-commands", dest="simulated_commands", type=int,
                   help="grey-box: run against a simulated alphabet of this size")
    p.add_argument("--vuln-count", dest="vuln_count", type=int)
    p.add_argument("--clustering", choices=("row_clustered", "column_clustered", "uniform"))
    p.add_argument("--stop-after-found", dest="stop_after_found", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--timeout", type=float)
    p.add_argument("--retransmit-interval", dest="retransmit_interval", type=float)
    p.add_argument("--rnti")

    p = sub.add_parser("analyze", help="risk analysis over a campaign store")
    _add_common(p)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--eval-mode", dest="eval_mode", choices=("resubstitution", "split"))
    p.add_argument("--split-fraction", dest="split_fraction", type=float)
    p.add_argument("--max-success-occurrences", dest="max_success_occurrences", type=int)

    p = sub.add_parser("train-predictor", help="train the failure predictor from a store")
    _add_common(p)
    p.add_argument("--cutoff-steps", dest="cutoff_steps", type=int)
    p.add_argument("--cutoff-duration", dest="cutoff_duration", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batches-per-epoch", dest="batches_per_epoch", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.add_argument("--model-out", dest="model_out")

    p = sub.add_parser("predict", help="score a stored trace or a state list")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--trace-id", dest="trace_id")
    p.add_argument("--states", help="comma-separated state ids")

    p = sub.add_parser("report", help="emit all reports for a store")
    _add_common(p)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--model", help="trained predictor to include")
    p.add_argument("--eval-mode", dest="eval_mode", choices=("resubstitution", "split"))

    p = sub.add_parser("export", help="dump the store as csv / json / dot")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json", "dot"))
    p.add_argument("--out")

    p = sub.add_parser("replay", help="print one stored trace")
    _add_common(p)
    p.add_argument("--trace-id", dest="trace_id", required=True)

    return parser


COMMANDS = {
    "twin-run": cmd_twin_run,
    "campaign": cmd_campaign,
    "analyze": cmd_analyze,
    "train-predictor": cmd_train_predictor,
    "predict": cmd_predict,
    "report": cmd_report,
    "export": cmd_export,
    "replay": cmd_replay,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = Settings(args)
        return COMMANDS[args.command](settings)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PortBindFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PORT
    except CorruptRecord as exc:
        print(f"error: store corrupt: {exc}", file=sys.stderr)
        return EXIT_STORE


if __name__ == "__main__":
    sys.exit(main())
