"""Spans and case timing recorded from outside the fuzztwin package.

``Probes`` rebinds the module and class attributes that fuzztwin's own code
looks up at call time (``engine.run_connection``, ``twin.run_relay``,
``twin.ue_step``, ``wire.encode_message``, ``CampaignStore.record_trace``,
...) to thin wrappers, and puts the originals back on ``restore()``. No
fuzztwin source is changed.

Two levels of recording:

* always: the wall time of each fuzz case (for the end-to-end latency
  metrics), the traces the engine got back (for the reload check) and the
  campaign results of the scheduling experiment (for its oracle); the
  workloads take these after every pass, so they never span more than one;
* only while ``Tracer.enabled``: a span per wrapped call, with name, start,
  end, parent span and case id, plus counters taken at the same boundaries.

The load is a closed loop with one client, so exactly one case is open at a
time and spans from the UE, gNB and relay threads take its case id. A span
opened on a thread with no open span of its own gets the case's root span
as parent while that root is still open.
"""

from __future__ import annotations

import os
import threading
import time
from array import array
from collections import Counter

now_ns = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.case = array("q")
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self.case_id = -1
        self._case_root = -1
        self._attempted = True

    # -- cases -----------------------------------------------------------

    def case_start(self) -> None:
        """Open a new case unless the current one has not attempted yet.

        Called where a case can begin (a scheduler row draw, a target
        attempt), so scheduler spans before an attempt join its case.
        """
        if self._attempted:
            self.case_id += 1
            self._case_root = -1
            self._attempted = False

    def case_attempted(self) -> None:
        self._attempted = True

    # -- spans -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name_id: int) -> int:
        stack = self._stack()
        with self._lock:
            sid = len(self.start)
            root = self._case_root
            if stack:
                parent = stack[-1]
            elif root >= 0 and self.end[root] == 0:
                parent = root  # a thread of the open case
            else:
                parent = -1
            if root < 0:
                self._case_root = sid
            self.name.append(name_id)
            self.start.append(now_ns())
            self.end.append(0)
            self.parent.append(parent)
            self.case.append(self.case_id)
        stack.append(sid)
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = now_ns()
        self._stack().pop()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def sample(self, key: str, value) -> None:
        with self._lock:
            self.samples.setdefault(key, []).append(value)

    def spans(self):
        """(id, name, start, end, parent, case) for every closed span."""
        names = self.names
        for sid in range(len(self.start)):
            if self.end[sid]:
                yield (sid, names[self.name[sid]], self.start[sid], self.end[sid],
                       self.parent[sid], self.case[sid])

    def dump(self, path) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        import gzip

        n = 0
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tcase\n")
            for span in self.spans():
                fh.write("\t".join(map(str, span)) + "\n")
                n += 1
        return n


def spanned(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        sid = tracer.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(sid)

    return wrapper


class Probes:
    """Installs the wrappers on the fuzztwin modules; ``restore`` undoes it."""

    def __init__(self, tracer: Tracer, ft):
        self.tracer = tracer
        self.ft = ft  # namespace with the fuzztwin modules
        self.returned: list = []  # what each twin attempt returned
        self.case_ns = array("q")  # wall time per case
        self.campaigns: list = []  # (kind, kwargs, CampaignResult) from experiments
        self._mark = now_ns()
        self._saved: list = []

    def patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[array, list]:
        """Case times and returned traces recorded since the last take."""
        out = self.case_ns, self.returned
        self.case_ns, self.returned = array("q"), []
        return out

    def mark(self) -> None:
        """A case interval starts here (campaign start)."""
        self._mark = now_ns()

    def _case_done(self) -> None:
        t = now_ns()
        self.case_ns.append(t - self._mark)
        self._mark = t

    # -- layer wrappers -----------------------------------------------------

    def install_twin(self) -> None:
        """engine -> twin -> relay -> wire -> store, for the socket workload."""
        ft, tr = self.ft, self.tracer
        probes = self

        def attempt(fn):
            nid = tr.name_id("engine.attempt")

            def wrapper(target, *args, **kwargs):
                tr.case_start()
                sid = tr.begin(nid) if tr.enabled else -1
                try:
                    out = fn(target, *args, **kwargs)
                finally:
                    if sid >= 0:
                        tr.finish(sid)
                    tr.case_attempted()
                probes._case_done()
                probes.returned.append(out)
                return out

            return wrapper

        self.patch(ft.engine.HandshakeTarget, "attempt_command_replace", attempt)

        def connection(fn):
            nid = tr.name_id("twin.connection")

            def wrapper(config, profile=None, interceptor=None, **kwargs):
                if not tr.enabled:
                    return fn(config, profile, interceptor, **kwargs)
                if interceptor is not None:
                    interceptor = spanned(tr, "relay.interceptor", interceptor)
                sid = tr.begin(nid)
                try:
                    return fn(config, profile, interceptor, **kwargs)
                finally:
                    tr.finish(sid)
                    wall = tr.end[sid] - tr.start[sid]
                    if wall >= config.timeout * 1e9:
                        tr.count("twin.timeout_cases")

            return wrapper

        self.patch(ft.engine, "run_connection", connection)

        def relay(fn):
            nid = tr.name_id("relay.session")

            def wrapper(*args, **kwargs):
                if not tr.enabled:
                    return fn(*args, **kwargs)
                sid = tr.begin(nid)
                try:
                    report = fn(*args, **kwargs)
                finally:
                    tr.finish(sid)
                tr.count("relay.frames", report.uplink_frames + report.downlink_frames)
                tr.sample("relay.case_frames", report.uplink_frames + report.downlink_frames)
                tr.count("relay.replaced", report.replaced)
                tr.count("relay.mutated", report.mutated)
                tr.count("relay.dropped", report.dropped)
                return report

            return wrapper

        self.patch(ft.twin, "run_relay", relay)

        def step(fn):
            nid = tr.name_id("twin.step")

            def wrapper(state, event, profile):
                if not tr.enabled:
                    return fn(state, event, profile)
                if isinstance(event, ft.twin.Start):
                    tr.sample("twin.start_at", (tr.case_id, now_ns()))
                elif isinstance(event, ft.twin.TimerExpired):
                    tr.count("twin.timer_fires")
                sid = tr.begin(nid)
                try:
                    return fn(state, event, profile)
                finally:
                    tr.finish(sid)

            return wrapper

        self.patch(ft.twin, "ue_step", step)
        self.patch(ft.twin, "gnb_step", step)

        self.patch(ft.wire, "encode_message", lambda fn: spanned(tr, "wire.encode", fn))
        self.patch(ft.wire, "decode_message", lambda fn: spanned(tr, "wire.decode", fn))
        self.patch(ft.wire, "verify_checksum", lambda fn: spanned(tr, "wire.verify", fn))

        def record(kind):
            def make(fn):
                nid = tr.name_id("store.write")

                def wrapper(store, row):
                    if not tr.enabled:
                        return fn(store, row)
                    before = os.path.getsize(store.path) if store.path else 0
                    sid = tr.begin(nid)
                    try:
                        return fn(store, row)
                    finally:
                        tr.finish(sid)
                        grown = (os.path.getsize(store.path) if store.path else 0) - before
                        tr.count("store.bytes", grown)
                        tr.count("store.appends", grown > 0)
                        if kind == "trace":
                            tr.count("store.trace_calls")
                            tr.count("store.trace_dedups", grown == 0)

                return wrapper

            return make

        for kind in ("state", "action", "probability", "trace"):
            self.patch(ft.store.CampaignStore, f"record_{kind}", record(kind))

    def install_scheduler(self) -> None:
        """experiments -> engine scheduler -> SimulatedTarget."""
        ft, tr = self.ft, self.tracer
        probes = self

        def campaign(kind):
            def make(fn):
                def wrapper(target, **kwargs):
                    probes.mark()
                    out = fn(target, **kwargs)
                    result = out[0] if isinstance(out, tuple) else out
                    probes.campaigns.append((kind, kwargs, result))
                    return out

                return wrapper

            return make

        self.patch(ft.experiments, "syal_campaign", campaign("syal"))
        self.patch(ft.experiments, "random_campaign", campaign("random"))

        def target(fn):
            nid = tr.name_id("engine.target")

            def wrapper(self_, a, b, layer="rrc"):
                sid = -1
                if tr.enabled:
                    tr.case_start()
                    sid = tr.begin(nid)
                try:
                    return fn(self_, a, b, layer)
                finally:
                    if sid >= 0:
                        tr.finish(sid)
                        tr.case_attempted()
                    probes._case_done()

            return wrapper

        self.patch(ft.engine.SimulatedTarget, "attempt_command_replace", target)

        def row_draw(fn):
            inner = spanned(tr, "engine.sched", fn)

            def wrapper(matrix, rng):
                if tr.enabled:
                    tr.case_start()
                return inner(matrix, rng)

            return wrapper

        self.patch(ft.engine.ProbabilityMatrix, "sample_row", row_draw)
        self.patch(ft.engine, "syal_select", lambda fn: spanned(tr, "engine.sched", fn))
        self.patch(ft.engine, "syal_update", lambda fn: spanned(tr, "engine.sched", fn))

    def install_offline(self) -> None:
        """predictor and analyzer internals reached from the offline path."""
        ft, tr = self.ft, self.tracer
        probes = self

        def scoring(fn):
            inner = spanned(tr, "predictor.forward", fn)

            def wrapper(model, sample):
                probes.scored += 1
                return inner(model, sample)

            return wrapper

        self.scored = 0  # held-out cases scored by lstm_forward
        self.patch(ft.predictor, "lstm_forward", scoring)
        self.patch(ft.predictor, "sample_loss", lambda fn: spanned(tr, "predictor.loss", fn))
        self.patch(ft.predictor, "evaluate", lambda fn: spanned(tr, "predictor.evaluate", fn))
        self.patch(ft.analyzer, "build_graph", lambda fn: spanned(tr, "analyzer.build_graph", fn))
