"""Tests for cross-process trace stitching and fleet telemetry (DESIGN.md §17).

The tentpole contract: a ``TraceContext`` ships with every shard
request, workers record a detached span subtree against it, and the
coordinator stitches the exported subtrees back under its own
``serve.topk`` spans — so one trace attributes dispatch, per-shard IPC
wait, worker compute and the straggler gap across process boundaries.

In-process tests pin down the wire format, graft semantics (id
remapping, truncation, non-finite-attr sanitisation, never-raises on malformed payloads), the scrape-hook and
shard-label exposition machinery, the fleet SLO kinds and lint rule
R008's context-token check and the required ``trace_ctx`` keyword.
The ``@pytest.mark.shard`` tests drive real spawned worker
processes and assert the acceptance-level properties: a stitched
4-shard trace whose worker-side spans cover >=90% of each shard's wall
time, a SIGKILL mid-flight still yielding a complete stitched trace
with the dead shard marked, and trace-ring boundedness under the
sharded bench.
"""

import json
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.analysis import run_analysis
from repro.obs import get_registry, render_exposition
from repro.obs.expo import (
    register_scrape_hook,
    run_scrape_hooks,
    unregister_scrape_hook,
)
from repro.obs.metrics import MetricsRegistry, mirror_snapshot
from repro.obs.slo import DEFAULT_SHARD_SLOS, SLO, evaluate_slos
from repro.obs.trace import (
    ROOT,
    Trace,
    TraceContext,
    Tracer,
    begin_remote,
    capture_context,
    export_subtree,
    format_trace,
    get_tracer,
    graft_subtree,
)
from repro.serve import FeatureEncoder, ShardedSimilarityServer

DIM = 8


class FakeClock:
    """Deterministic injectable clock for byte-identical trace output."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _trajs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(int(rng.integers(6, 14)), 2)).cumsum(axis=0)
        for _ in range(n)
    ]


# ----------------------------------------------------------------------
# TraceContext wire format
# ----------------------------------------------------------------------
class TestTraceContextWire:
    def test_to_wire_round_trips_exactly(self):
        ctx = TraceContext("t000007", parent_span_id=3)
        wire = ctx.to_wire()
        assert json.loads(json.dumps(wire)) == wire  # plain JSON dict
        assert TraceContext.from_wire(wire) == ctx

    def test_from_wire_defaults_missing_fields(self):
        ctx = TraceContext.from_wire({})
        assert ctx.trace_id == "t?"
        assert ctx.parent_span_id == ROOT

    def test_capture_context_requires_an_active_trace(self):
        tracer = Tracer(clock=FakeClock())
        assert capture_context(tracer) is None
        with tracer.trace("serve.topk") as tr:
            with tr.span("dispatch") as dispatch:
                ctx = capture_context(tracer)
                assert ctx is not None
                assert ctx.trace_id == tr.trace_id
                assert ctx.parent_span_id == dispatch.span_id
        assert capture_context(tracer) is None

    def test_capture_context_is_none_while_tracing_disabled(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.set_enabled(False) is True
        try:
            with tracer.trace("serve.topk"):
                assert capture_context(tracer) is None
        finally:
            assert tracer.set_enabled(True) is False


# ----------------------------------------------------------------------
# begin_remote / export_subtree / graft_subtree
# ----------------------------------------------------------------------
def _worker_subtree(clk, ctx, tracer):
    """A scripted worker-side subtree: ipc-wait, search.

    The worker's clock shares the coordinator's axis (CLOCK_MONOTONIC
    across processes), so the graft keeps every timestamp as recorded.
    """
    rtrace = begin_remote(ctx, name="shard.search", tracer=tracer)
    rtrace.record_span("ipc-wait", clk.now - 0.001, clk.now, parent_id=ROOT)
    with rtrace.handoff().resume(wait_name=None):
        clk.advance(0.001)
        with rtrace.span("search") as search:
            clk.advance(0.004)
            search.set(n=12)
    return export_subtree(rtrace)


class TestGraftSubtree:
    def test_begin_remote_without_context_is_inert(self):
        rtrace = begin_remote(None, name="shard.search")
        with rtrace.handoff().resume(wait_name=None):
            with rtrace.span("search"):
                pass
        rtrace.record_span("ipc-wait", 0.0, 1.0, parent_id=ROOT)

    def test_deterministic_stitch_with_fake_clocks(self):
        coord_clk = FakeClock()
        coordinator = Tracer(clock=coord_clk)
        # The worker "receives" at coordinator t=0.002, on the same axis.
        worker_clk = FakeClock(start=0.002)
        worker = Tracer(clock=worker_clk)
        with coordinator.trace("serve.topk", k=5) as tr:
            with tr.span("dispatch"):
                coord_clk.advance(0.001)
            ctx = tr.context()
            payload = _worker_subtree(worker_clk, ctx, worker)
            coord_clk.advance(0.007)
            shard_span = tr.record_span("shard-0", 0.001, 0.008, result="ok")
            kept = graft_subtree(tr, shard_span, payload, shard=0)
        trace = coordinator.recent()[-1]
        assert kept == 2
        assert trace.dropped_events == 0
        grafted = [e for e in trace.events if e.get("shard") == 0]
        assert [e["name"] for e in grafted] == ["ipc-wait", "search"]
        # Remapped ids are ascending and unique, so children stay above
        # their parents in id order.
        ids = [e["id"] for e in grafted]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        # Remote ROOT-parented events all re-anchor to the shard span
        # (the worker's handoff anchored its spans at the remote ROOT).
        by_name = {e["name"]: e for e in grafted}
        assert all(e["parent"] == shard_span for e in grafted)
        # Remote timestamps land on the origin axis unchanged.
        assert by_name["ipc-wait"]["start"] == pytest.approx(0.001)
        assert by_name["ipc-wait"]["end"] == pytest.approx(0.002)
        assert by_name["search"]["start"] == pytest.approx(0.003)
        assert by_name["search"]["end"] == pytest.approx(0.007)
        assert by_name["search"]["attrs"] == {"n": 12}
        rendered = format_trace(trace)
        assert "s0:search" in rendered and "s0:ipc-wait" in rendered

    def test_mismatched_trace_id_grafts_nothing(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("serve.topk") as tr:
            payload = {
                "trace_id": "t999999",
                "events": [
                    {"id": 1, "parent": ROOT, "name": "x", "start": 0, "end": 1}
                ],
                "dropped": 0,
            }
            assert graft_subtree(tr, ROOT, payload) == 0
        trace = tracer.recent()[-1]
        assert trace.events == []
        assert trace.dropped_events == 1

    def test_oversized_subtree_truncates_keeping_outermost_spans(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("serve.topk") as tr:
            events = [
                {"id": i, "parent": ROOT, "name": f"e{i}", "start": 0.0, "end": 1.0}
                for i in range(1, 11)
            ]
            payload = {"trace_id": tr.trace_id, "events": events, "dropped": 2}
            kept = graft_subtree(tr, ROOT, payload, max_spans=4)
        trace = tracer.recent()[-1]
        assert kept == 4
        # Lowest worker ids (the outermost spans) survive the cut.
        assert [e["name"] for e in trace.events] == ["e1", "e2", "e3", "e4"]
        # 6 truncated + 2 worker-side drops carried through.
        assert trace.dropped_events == 8

    def test_non_finite_attrs_are_sanitised_to_repr_strings(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("serve.topk") as tr:
            payload = {
                "trace_id": tr.trace_id,
                "events": [
                    {
                        "id": 1,
                        "parent": ROOT,
                        "name": "search",
                        "start": 0.0,
                        "end": 1.0,
                        "attrs": {"mean": float("nan"), "rate": float("inf"), "n": 3},
                    }
                ],
                "dropped": 0,
            }
            assert graft_subtree(tr, ROOT, payload) == 1
        trace = tracer.recent()[-1]
        attrs = trace.events[0]["attrs"]
        assert attrs == {"mean": "nan", "rate": "inf", "n": 3}
        # Strict JSON (the trace-log format) accepts the whole trace.
        json.dumps(trace.to_dict(), allow_nan=False)

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            "garbage",
            {"events": "not-a-list"},
            {"trace_id": None, "events": [], "dropped": "many"},
        ],
    )
    def test_malformed_payloads_never_raise(self, payload):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("serve.topk") as tr:
            assert graft_subtree(tr, ROOT, payload) == 0

    def test_malformed_events_are_dropped_and_counted(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("serve.topk") as tr:
            payload = {
                "trace_id": tr.trace_id,
                "events": [
                    {"no": "id"},
                    {"id": "NaN-ish", "start": []},
                    {"id": 3, "parent": ROOT, "name": "ok", "start": 0.0, "end": 1.0},
                ],
                "dropped": 0,
            }
            assert graft_subtree(tr, ROOT, payload) == 1
        trace = tracer.recent()[-1]
        assert [e["name"] for e in trace.events] == ["ok"]
        assert trace.dropped_events == 2


class TestTracerToggle:
    def test_set_enabled_gates_trace_creation(self):
        tracer = Tracer(clock=FakeClock())
        previous = tracer.set_enabled(False)
        assert previous is True and tracer.enabled is False
        with tracer.trace("serve.topk") as tr:
            with tr.span("cache"):
                pass
            tr.record_span("shard-0", 0.0, 1.0)
        assert tracer.recent() == []  # nothing landed in the ring
        assert tracer.set_enabled(True) is False
        with tracer.trace("serve.topk"):
            pass
        assert len(tracer.recent()) == 1


# ----------------------------------------------------------------------
# Exposition: scrape hooks and the shard label dimension
# ----------------------------------------------------------------------
class TestScrapeHooks:
    def test_hooks_run_once_per_scrape_and_unregister(self):
        calls = []
        hook = lambda: calls.append(1)  # noqa: E731
        register_scrape_hook(hook)
        try:
            register_scrape_hook(hook)  # duplicate registration is a no-op
            assert run_scrape_hooks() >= 1
            assert calls == [1]
        finally:
            unregister_scrape_hook(hook)
        unregister_scrape_hook(hook)  # already gone: no error
        calls.clear()
        run_scrape_hooks()
        assert calls == []

    def test_failing_hook_is_swallowed_and_others_still_run(self):
        seen = []

        def bad():
            raise RuntimeError("scrape-time failure")

        def good():
            seen.append(1)

        register_scrape_hook(bad)
        register_scrape_hook(good)
        try:
            run_scrape_hooks()
            assert seen == [1]
        finally:
            unregister_scrape_hook(bad)
            unregister_scrape_hook(good)

    def test_live_registry_render_scrapes_but_snapshot_render_does_not(self):
        calls = []
        hook = lambda: calls.append(1)  # noqa: E731
        register_scrape_hook(hook)
        try:
            registry = MetricsRegistry()
            registry.counter("serve.requests").inc()
            render_exposition(registry)
            assert calls == [1]
            render_exposition(registry.snapshot())
            assert calls == [1]  # dict snapshots are pure
        finally:
            unregister_scrape_hook(hook)


class TestShardLabelDimension:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(7)
        for shard in (1, 0):
            registry.gauge(f"serve.shard.{shard}.index.size").set(12 + shard)
            registry.gauge(f"serve.shard.{shard}.lat.p99").set(0.5 + shard)
        return registry

    def test_shard_series_merge_into_one_labelled_family(self):
        text = render_exposition(self._registry())
        lines = text.splitlines()
        assert 'repro_serve_shard_index_size{shard="0"} 12' in lines
        assert 'repro_serve_shard_index_size{shard="1"} 13' in lines
        assert 'repro_serve_shard_lat_p99{shard="0"} 0.5' in lines
        # One TYPE header per family, series sorted by shard id.
        assert (
            sum(1 for l in lines if l == "# TYPE repro_serve_shard_index_size gauge")
            == 1
        )
        i0 = lines.index('repro_serve_shard_index_size{shard="0"} 12')
        i1 = lines.index('repro_serve_shard_index_size{shard="1"} 13')
        assert i0 < i1

    def test_non_shard_series_render_unchanged(self):
        text = render_exposition(self._registry())
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 7" in text
        # No bare (unlabelled) metric remains for the shard series.
        assert "repro_serve_shard_0_index_size" not in text


class TestMirrorQuantiles:
    def test_histogram_quantiles_mirror_as_gauges(self):
        registry = MetricsRegistry()
        snapshot = {
            "lat": {
                "type": "histogram",
                "count": 4,
                "mean": 0.25,
                "p50": 0.2,
                "p99": 0.9,
            }
        }
        written = mirror_snapshot(snapshot, "serve.shard.2.", registry=registry)
        assert written == 4
        assert registry.gauge("serve.shard.2.lat.p50").value == 0.2
        assert registry.gauge("serve.shard.2.lat.p99").value == 0.9


# ----------------------------------------------------------------------
# Fleet SLOs: shard imbalance and straggler rate
# ----------------------------------------------------------------------
def _shard_trace(tracer, clk, waits):
    """One serve.topk trace with scripted per-shard gather durations."""
    with tracer.trace("serve.topk") as tr:
        for shard, wait in enumerate(waits):
            tr.record_span(f"shard-{shard}", 0.0, wait, result="ok")
        clk.advance(max(waits) if waits else 0.001)
    return tracer.recent()[-1]


class TestShardSLOs:
    def test_shard_imbalance_is_percentile_of_max_over_mean(self):
        clk = FakeClock()
        tracer = Tracer(clock=clk)
        # Ratios: 1.0 (balanced) and 1.6 (one shard 4x the other).
        _shard_trace(tracer, clk, [0.010, 0.010])
        _shard_trace(tracer, clk, [0.010, 0.040])
        slo = SLO(
            name="imb", kind="shard_imbalance", threshold=1.5, percentile=100.0
        )
        status = evaluate_slos([slo], traces=tracer.recent())[0]
        assert status.value == pytest.approx(1.6)
        assert status.samples == 2
        assert not status.ok

    def test_single_shard_traces_are_skipped(self):
        clk = FakeClock()
        tracer = Tracer(clock=clk)
        _shard_trace(tracer, clk, [0.010])
        slo = SLO(name="imb", kind="shard_imbalance", threshold=1.5)
        status = evaluate_slos([slo], traces=tracer.recent())[0]
        assert status.value is None and status.ok

    def test_straggler_rate_counts_gaps_beyond_gap_s(self):
        clk = FakeClock()
        tracer = Tracer(clock=clk)
        _shard_trace(tracer, clk, [0.010, 0.011, 0.012])  # gap 1ms
        _shard_trace(tracer, clk, [0.010, 0.010, 0.300])  # gap 290ms
        slo = SLO(
            name="straggler", kind="straggler_rate", threshold=0.4, gap_s=0.1
        )
        status = evaluate_slos([slo], traces=tracer.recent())[0]
        assert status.value == pytest.approx(0.5)
        assert not status.ok

    def test_negative_gap_rejected_and_defaults_exist(self):
        with pytest.raises(ValueError):
            SLO(name="bad", kind="straggler_rate", threshold=0.5, gap_s=-1.0)
        kinds = {slo.kind for slo in DEFAULT_SHARD_SLOS}
        assert kinds == {"shard_imbalance", "straggler_rate"}


class TestTracingOverheadGate:
    def test_overhead_rule_is_one_sided_with_five_point_band(self):
        from repro.obs.benchgate import tolerance_for

        tol = tolerance_for("tracing_overhead_pct")
        assert tol.direction == "lower"
        assert tol.rel == 0.0
        assert tol.abs == 5.0

    def test_drift_beyond_five_points_fails_the_gate(self):
        from repro.obs import compare_bench

        def payload(pct):
            return {
                "benches": {
                    "benchmarks/test_x.py::test_bench": {
                        "outcome": "passed",
                        "seconds": 1.0,
                        "quality": {"tracing_overhead_pct": pct},
                    }
                }
            }

        baseline = payload(2.0)
        assert compare_bench(payload(6.9), baseline).ok
        assert not compare_bench(payload(7.1), baseline).ok


# ----------------------------------------------------------------------
# Trace-context propagation: R008's context-token check and the
# required-keyword dispatch API
# ----------------------------------------------------------------------
class TestTraceContextLintRule:
    def _lint(self, tmp_path, source):
        (tmp_path / "mod.py").write_text(textwrap.dedent(source))
        return run_analysis([tmp_path], root=tmp_path, rules=["R008"])

    def test_flags_discarded_context_tokens(self, tmp_path):
        report = self._lint(
            tmp_path,
            """\
            def f(tracer, tr):
                capture_context(tracer)
                tr.context()
                ctx = capture_context(tracer)
                return ctx.to_wire()
            """,
        )
        assert [(v.rule, v.line) for v in report.violations] == [
            ("R008", 2),
            ("R008", 3),
        ]

    def test_allow_comment_suppresses(self, tmp_path):
        report = self._lint(
            tmp_path,
            """\
            def f(tracer):
                capture_context(tracer)  # lint: allow(R008)
            """,
        )
        assert report.ok
        assert report.suppressed_count == 1

    def test_shard_dispatch_sites_in_repo_are_clean(self):
        import pathlib

        import repro.serve.shard as shard_mod

        src_root = pathlib.Path(shard_mod.__file__).parents[2]
        report = run_analysis([src_root / "repro"], root=src_root, rules=["R008"])
        assert report.ok

    def test_a_request_without_trace_context_cannot_be_built(self):
        """``trace_ctx`` is a required keyword of the one dispatch method.

        Python rejects the call before the body runs, so no worker (and no
        lint rule) is needed to prove a search or encode always ships it.
        """
        import inspect

        from repro.serve.shard import ProcessShard

        param = inspect.signature(ProcessShard.request).parameters["trace_ctx"]
        assert param.kind is inspect.Parameter.KEYWORD_ONLY
        assert param.default is inspect.Parameter.empty
        with pytest.raises(TypeError, match="trace_ctx"):
            ProcessShard.request(object(), "search", np.zeros(4), k=5)


# ----------------------------------------------------------------------
# End to end through real worker processes
# ----------------------------------------------------------------------
def _server(trajs, n_shards, **kw):
    enc = FeatureEncoder(dim=DIM, seed=0)
    kw.setdefault("brute_threshold", 10**9)
    kw.setdefault("shard_deadline_s", 30.0)
    srv = ShardedSimilarityServer(enc, dim=DIM, n_shards=n_shards, **kw)
    srv.add_batch(trajs)
    return srv


def _descendants(trace, root_id):
    """All events below ``root_id`` in the trace's parent tree."""
    children = {}
    for event in trace.events:
        children.setdefault(event["parent"], []).append(event)
    out, queue = [], [root_id]
    while queue:
        node = queue.pop()
        for event in children.get(node, ()):
            out.append(event)
            queue.append(event["id"])
    return out


@pytest.mark.shard
def test_stitched_four_shard_trace_covers_worker_wall_time():
    """Acceptance: one serve.topk trace, 4 shard subtrees, >=90% coverage."""
    trajs = _trajs(40, seed=21)
    srv = _server(trajs, n_shards=4)
    try:
        q = _trajs(1, seed=77)[0]
        srv.topk(q, k=3)  # prime the embedding cache
        for shard in range(4):
            # Worker-side compute dominates the shard wall time, so the
            # coverage assertion measures stitching, not scheduler noise.
            srv.debug_shard(shard, search_delay_s=0.05)
        result = srv.topk(q, k=5)
        assert not result.degraded
        trace = get_tracer().recent(name="serve.topk")[-1]
        assert trace.attrs.get("shards") == 4
        assert "straggler_gap_s" in trace.attrs
        assert "slowest_shard" in trace.attrs
        shard_spans = {
            e["name"]: e
            for e in trace.events
            if e["name"].startswith("shard-") and "shard" not in e
        }
        assert sorted(shard_spans) == ["shard-0", "shard-1", "shard-2", "shard-3"]
        for shard in range(4):
            span = shard_spans[f"shard-{shard}"]
            assert span["attrs"]["result"] == "ok"
            subtree = _descendants(trace, span["id"])
            assert {e.get("shard") for e in subtree} == {shard}
            names = {e["name"] for e in subtree}
            assert {"ipc-wait", "search"} <= names
            covered = max(e["end"] for e in subtree) - min(
                e["start"] for e in subtree
            )
            wall = span["end"] - span["start"]
            assert covered >= 0.9 * wall, (shard, covered, wall)
    finally:
        srv.close()


@pytest.mark.shard
def test_sigkill_mid_flight_yields_stitched_trace_with_dead_shard():
    """Acceptance: the trace survives a worker SIGKILL and marks the shard."""
    trajs = _trajs(24, seed=22)
    srv = _server(trajs, n_shards=2, shard_deadline_s=2.0)
    try:
        q = _trajs(1, seed=55)[0]
        srv.topk(q, k=2)  # prime the cache: the search hop is in flight
        srv.debug_shard(0, search_delay_s=10.0)
        killer = threading.Timer(0.3, srv._handles[0].process.kill)
        killer.start()
        try:
            result = srv.topk(q, k=4)
        finally:
            killer.cancel()
        assert result.degraded
        trace = get_tracer().recent(name="serve.topk")[-1]
        assert trace.end is not None  # stitched and finished
        dead = [
            e
            for e in trace.events
            if e["name"] == "shard-0" and "shard" not in e
        ]
        assert len(dead) == 1
        assert dead[0]["attrs"]["result"] in ("dead", "deadline")
        assert dead[0]["attrs"].get("dead") or dead[0]["attrs"].get("deadline")
        # The healthy shard still contributed a stitched subtree, and the
        # fallback scan for the dead one is attributed.
        names = [e["name"] for e in trace.events]
        assert "shard-1" in names
        assert "fallback-0" in names
        assert any(
            e.get("shard") == 1 and e["name"] == "search" for e in trace.events
        )
    finally:
        srv.close()


@pytest.mark.shard
def test_trace_ring_stays_bounded_under_sharded_bench():
    from repro.serve import run_shard_bench

    tracer = get_tracer()
    result = run_shard_bench(
        n_db=32, n_queries=8, shards=2, workers=2, seed=0, enforce_slos=False
    )
    assert result.n_queries == 8
    traces = tracer.recent()
    assert len(traces) <= tracer._ring_size
    topk_traces = tracer.recent(name="serve.topk")
    assert len(topk_traces) >= 8
    for trace in topk_traces[-8:]:
        assert trace.end is not None
        assert len(trace.events) <= trace.max_events
    # Per-shard attribution was aggregated from those same traces.
    assert sorted(result.shard_attribution) == [0, 1]
    for row in result.shard_attribution.values():
        assert row["gathers"] > 0
        assert row["mean_search_s"] >= 0.0


@pytest.mark.shard
def test_scrape_refresh_honours_ttl_and_close():
    trajs = _trajs(16, seed=23)
    srv = _server(trajs, n_shards=2, stats_ttl_s=0.2)
    try:
        srv.topk(trajs[0], k=2)
        assert srv.refresh_shard_telemetry() is True  # stale: probes workers
        assert srv.refresh_shard_telemetry() is False  # inside the TTL window
        time.sleep(0.25)
        assert srv.refresh_shard_telemetry() is True
        # A live-registry render is a scrape: the hook refreshed the
        # mirrors, so the shard label dimension shows every worker.
        time.sleep(0.25)
        text = render_exposition(get_registry())
        assert 'shard="0"' in text and 'shard="1"' in text
    finally:
        srv.close()
    assert srv.refresh_shard_telemetry() is False  # closed server refuses


@pytest.mark.shard
def test_untraced_sharded_requests_ship_no_subtrees():
    """With tracing disabled the wire shape survives but nothing stitches."""
    tracer = get_tracer()
    trajs = _trajs(16, seed=24)
    srv = _server(trajs, n_shards=2)
    n_before = len(tracer.recent(name="serve.topk"))
    before = tracer.set_enabled(False)
    try:
        result = srv.topk(trajs[1], k=3)
        assert not result.degraded
        # The request rode the same wire shape (trace_ctx=None) but no
        # trace was opened, so nothing landed in the ring.
        assert len(tracer.recent(name="serve.topk")) == n_before
    finally:
        tracer.set_enabled(before)
        srv.close()
