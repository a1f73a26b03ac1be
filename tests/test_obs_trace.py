"""Tests for the request-scoped tracing stack: repro.obs.trace (spans,
cross-thread handoffs, ring + JSONL log), expo (Prometheus exposition),
slo (declarative SLOs over the trace ring), benchgate (bench-regression
gate), the histogram reservoir, lint rule R008, and the traced serve /
train integration plus the metrics/trace/bench-diff CLI surface."""

import json
import textwrap
import threading

import numpy as np
import pytest

from repro.analysis import run_analysis
from repro.cli import main
from repro.obs import (
    SLO,
    SLOViolation,
    Tracer,
    check_slos,
    compare_bench,
    compare_bench_files,
    evaluate_slos,
    format_spans,
    format_trace,
    get_tracer,
    read_trace_log,
    render_exposition,
)
from repro.obs.benchgate import tolerance_for
from repro.obs.metrics import Histogram
from repro.obs.trace import ROOT, Trace


class FakeClock:
    """Deterministic injectable clock for byte-identical trace output."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _scripted_trace(tracer, clk):
    """One serve-shaped trace with a fully scripted timeline (8ms total)."""
    with tracer.trace("serve.topk", k=5, deadline_s=0.01) as tr:
        with tr.span("cache") as cache:
            clk.advance(0.001)
            cache.set(result="miss")
        handoff = tr.handoff()  # t=0.001
        clk.advance(0.002)
        handoff.record_wait()  # queue-wait [0.001, 0.003]
        handoff.record("forward", 0.003, 0.007, batch_size=4)
        clk.advance(0.004)  # t=0.007
        with tr.span("index") as index:
            clk.advance(0.0005)
            index.set(n=12)
        clk.advance(0.0005)  # end t=0.008
    return tracer.recent()[-1]


# ----------------------------------------------------------------------
# Trace / span basics
# ----------------------------------------------------------------------
class TestTraceBasics:
    def test_span_tree_and_attrs(self):
        clk = FakeClock()
        tracer = Tracer(clock=clk)
        with tracer.trace("work", job=1) as tr:
            with tr.span("outer") as outer:
                clk.advance(0.5)
                outer.set(stage="a")
                with tr.span("inner"):
                    clk.advance(0.25)
        trace = tracer.recent()[-1]
        assert trace.name == "work"
        assert trace.attrs["job"] == 1
        assert trace.duration == pytest.approx(0.75)
        (outer_ev,) = trace.children(ROOT)
        assert outer_ev["name"] == "outer"
        assert outer_ev["attrs"] == {"stage": "a"}
        (inner_ev,) = trace.children(outer_ev["id"])
        assert inner_ev["name"] == "inner"
        assert inner_ev["end"] - inner_ev["start"] == pytest.approx(0.25)

    def test_exception_sets_error_attr_on_span_and_trace(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.trace("work") as tr:
                with tr.span("step"):
                    raise RuntimeError("boom")
        trace = tracer.recent()[-1]
        assert trace.attrs["error"] == "RuntimeError"
        assert trace.children(ROOT)[0]["attrs"]["error"] == "RuntimeError"

    def test_trace_ids_are_sequential_and_distinct(self):
        tracer = Tracer(clock=FakeClock())
        for _ in range(3):
            with tracer.trace("t"):
                pass
        assert [t.trace_id for t in tracer.recent()] == [
            "t000001",
            "t000002",
            "t000003",
        ]

    def test_span_without_active_trace_is_noop(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("orphan") as span:
            span.set(ignored=True)  # must not raise
        assert tracer.recent() == []
        assert tracer.current() is None

    def test_annotate_targets_innermost_open_span(self):
        tracer = Tracer(clock=FakeClock())
        tracer.annotate(nobody="home")  # no trace: silently ignored
        with tracer.trace("work") as tr:
            tracer.annotate(on_root=True)
            with tr.span("step"):
                tracer.annotate(on_span=True)
        trace = tracer.recent()[-1]
        assert trace.attrs["on_root"] is True
        assert trace.children(ROOT)[0]["attrs"]["on_span"] is True

    def test_late_events_after_finish_are_dropped_and_counted(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("work") as tr:
            pass
        tr._record(99, ROOT, "late", 0.0, 1.0, {})
        assert tr.dropped_events == 1
        assert tr.events == []

    def test_max_events_bounds_the_event_list(self):
        tracer = Tracer(clock=FakeClock())
        trace = Trace("t?", "work", tracer, start=0.0, max_events=3)
        for i in range(5):
            trace._record(i + 1, ROOT, f"s{i}", 0.0, 1.0, {})
        assert len(trace.events) == 3
        assert trace.dropped_events == 2


# ----------------------------------------------------------------------
# Cross-thread handoff
# ----------------------------------------------------------------------
class TestHandoff:
    def test_record_wait_spans_creation_to_now(self):
        clk = FakeClock()
        tracer = Tracer(clock=clk)
        with tracer.trace("work") as tr:
            handoff = tr.handoff()
            clk.advance(0.125)
            handoff.record_wait()
        (wait,) = tracer.recent()[-1].children(ROOT)
        assert wait["name"] == "queue-wait"
        assert wait["end"] - wait["start"] == pytest.approx(0.125)

    def test_handoff_spans_recorded_from_another_thread(self):
        tracer = Tracer()  # real clock: thread attribution is the point
        done = threading.Event()

        def consumer(handoff):
            with handoff.resume():
                with tracer.span("forward"):
                    pass
            done.set()

        with tracer.trace("work") as tr:
            worker = threading.Thread(
                target=consumer, args=(tr.handoff(),), name="flusher"
            )
            worker.start()
            assert done.wait(5.0)
            worker.join()
        trace = tracer.recent()[-1]
        names = {e["name"]: e for e in trace.events}
        assert set(names) == {"queue-wait", "forward"}
        assert names["queue-wait"]["thread"] == "flusher"
        assert names["forward"]["thread"] == "flusher"
        # resume() parents the consumer's spans at the handoff point
        assert names["forward"]["parent"] == ROOT

    def test_resume_does_not_leak_onto_consumer_thread(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("work") as tr:
            handoff = tr.handoff()
        with handoff.resume(wait_name=None):
            pass
        assert tracer.current() is None


# ----------------------------------------------------------------------
# Per-path span totals
# ----------------------------------------------------------------------
class TestTraceTotals:
    def test_nested_paths_sum_per_path(self):
        clk = FakeClock()
        tracer = Tracer(clock=clk)
        with tracer.trace("train.epoch") as tr:
            for _ in range(2):
                with tr.span("batch"):
                    with tr.span("forward"):
                        clk.advance(0.25)
                    with tr.span("backward"):
                        clk.advance(0.5)
        assert tr.totals() == {
            "batch": {"seconds": 1.5, "count": 2},
            "batch/backward": {"seconds": 1.0, "count": 2},
            "batch/forward": {"seconds": 0.5, "count": 2},
        }
        text = format_spans(tr.totals())
        assert "batch" in text and "  forward" in text and "x2" in text

    def test_parent_seconds_cover_children(self):
        clk = FakeClock()
        tracer = Tracer(clock=clk)
        with tracer.trace("work") as tr:
            with tr.span("batch"):
                with tr.span("forward"):
                    clk.advance(0.25)
                clk.advance(0.5)  # glue between the children
                with tr.span("loss"):
                    clk.advance(0.125)
        totals = tr.totals()
        children = totals["batch/forward"]["seconds"] + totals["batch/loss"]["seconds"]
        assert totals["batch"]["seconds"] >= children
        assert totals["batch"]["seconds"] == pytest.approx(0.875)

    def test_spans_past_max_events_still_count(self):
        tracer = Tracer(clock=FakeClock())
        trace = Trace("t?", "work", tracer, start=0.0, max_events=3)
        for _ in range(10):
            with trace.span("step"):
                pass
        assert len(trace.events) == 3
        assert trace.dropped_events == 7
        assert trace.totals()["step"]["count"] == 10

    def test_handoff_records_land_under_the_handoff_point(self):
        tracer = Tracer()  # real clock: the consumer runs on its own thread
        with tracer.trace("serve.topk") as tr:
            with tr.span("encode"):
                handoff = tr.handoff()

                def consumer():
                    handoff.record("forward", 0.0, 0.5)
                    with handoff.resume():
                        with tracer.span("pad"):
                            pass

                worker = threading.Thread(target=consumer)
                worker.start()
                worker.join(5.0)
                assert not worker.is_alive()
        totals = tr.totals()
        assert set(totals) == {
            "encode",
            "encode/forward",
            "encode/queue-wait",
            "encode/pad",
        }
        assert totals["encode/forward"] == {"seconds": 0.5, "count": 1}

    def test_disabled_tracer_yields_empty_totals(self):
        tracer = Tracer(clock=FakeClock())
        tracer.set_enabled(False)
        with tracer.trace("work") as tr:
            with tr.span("step"):
                pass
            tr.handoff().record("forward", 0.0, 1.0)
        assert tr.totals() == {}


# ----------------------------------------------------------------------
# Ring, reset, JSONL log
# ----------------------------------------------------------------------
class TestTracerRing:
    def test_ring_keeps_only_newest(self):
        tracer = Tracer(ring_size=4, clock=FakeClock())
        for _ in range(10):
            with tracer.trace("t"):
                pass
        ids = [t.trace_id for t in tracer.recent()]
        assert ids == ["t000007", "t000008", "t000009", "t000010"]
        assert [t.trace_id for t in tracer.recent(n=2)] == ["t000009", "t000010"]

    def test_recent_filters_by_name(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("a"):
            pass
        with tracer.trace("b"):
            pass
        assert [t.name for t in tracer.recent(name="b")] == ["b"]

    def test_reset_clears_ring_and_numbering(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("t"):
            pass
        tracer.reset()
        assert tracer.recent() == []
        with tracer.trace("t"):
            pass
        assert tracer.recent()[-1].trace_id == "t000001"

    def test_jsonl_log_round_trip(self, tmp_path):
        log = tmp_path / "traces.jsonl"
        clk = FakeClock()
        tracer = Tracer(clock=clk, log_path=log)
        original = _scripted_trace(tracer, clk)
        tracer.configure(log_path=None)  # close the file
        (loaded,) = read_trace_log(log)
        assert loaded.trace_id == original.trace_id
        assert loaded.name == original.name
        assert loaded.duration == pytest.approx(original.duration)
        assert loaded.events == original.events
        assert format_trace(loaded) == format_trace(original)

    def test_read_trace_log_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ValueError):
            read_trace_log(bad)


# ----------------------------------------------------------------------
# Deterministic rendering (trace trees + Prometheus exposition)
# ----------------------------------------------------------------------
class TestDeterministicRendering:
    def test_trace_tree_snapshot_is_deterministic(self):
        def build():
            clk = FakeClock()
            return _scripted_trace(Tracer(clock=clk), clk)

        first, second = format_trace(build()), format_trace(build())
        assert first == second
        lines = first.splitlines()
        assert lines[0].startswith("trace t000001 serve.topk  8.00ms")
        assert "deadline_s=0.01" in lines[0] and "k=5" in lines[0]
        # the batched forward is the longest hop: critical-path marked
        (forward_line,) = [l for l in lines if "forward" in l]
        assert forward_line.startswith("*")
        assert "50.0%" in forward_line  # 4ms of 8ms wall
        assert "40.0% of deadline" in forward_line  # 4ms of the 10ms budget
        (wait_line,) = [l for l in lines if "queue-wait" in l]
        assert not wait_line.startswith("*")
        assert "25.0%" in wait_line

    def test_exposition_snapshot_is_deterministic_and_prometheus_shaped(self):
        snapshot = {
            "serve.cache.hits": {"type": "counter", "value": 3.0},
            "serve.queue.depth": {"type": "gauge", "value": 2.0},
            "unset.gauge": {"type": "gauge", "value": None},
            "serve.query.seconds": {
                "type": "histogram",
                "count": 4,
                "total": 0.5,
                "p50": 0.125,
                "p90": 0.2,
                "p99": 0.21,
            },
        }
        text = render_exposition(snapshot)
        assert text == render_exposition(snapshot)
        assert "# TYPE repro_serve_cache_hits_total counter" in text
        assert "repro_serve_cache_hits_total 3" in text
        assert "repro_serve_queue_depth 2" in text
        assert "unset_gauge" not in text  # never-set gauges are elided
        assert 'repro_serve_query_seconds{quantile="0.5"} 0.125' in text
        assert "repro_serve_query_seconds_sum 0.5" in text
        assert "repro_serve_query_seconds_count 4" in text
        assert text.endswith("\n")

    def test_exposition_accepts_live_registry(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("hits").inc(2)
        assert "repro_hits_total 2" in render_exposition(reg)


# ----------------------------------------------------------------------
# Concurrency: distinct traces under parallel workers
# ----------------------------------------------------------------------
class TestConcurrentTracing:
    def test_parallel_workers_keep_distinct_traces(self):
        tracer = Tracer(ring_size=256)
        per_worker = 12
        errors = []

        def worker(tag):
            try:
                for i in range(per_worker):
                    with tracer.trace("job", worker=tag) as tr:
                        with tr.span("step", seq=i):
                            pass
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(w,), name=f"w{w}")
            for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        traces = tracer.recent()
        assert len(traces) == 4 * per_worker
        assert len({t.trace_id for t in traces}) == 4 * per_worker
        for trace in traces:
            # each trace carries exactly its own worker's single step span
            (step,) = trace.children(ROOT)
            assert step["name"] == "step"
            assert step["thread"] == f"w{trace.attrs['worker']}"


# ----------------------------------------------------------------------
# SLOs
# ----------------------------------------------------------------------
class TestSLOs:
    def _traces(self, durations, degraded_flags=None):
        clk = FakeClock()
        tracer = Tracer(ring_size=len(durations) + 1, clock=clk)
        degraded_flags = degraded_flags or [False] * len(durations)
        for seconds, degraded in zip(durations, degraded_flags):
            with tracer.trace("serve.topk", degraded=degraded):
                clk.advance(seconds)
        return tracer

    def test_latency_slo_breach_and_pass(self):
        tracer = self._traces([0.01] * 9 + [0.5])
        slo = SLO(name="p99", kind="latency", threshold=0.1, percentile=99.0)
        (status,) = evaluate_slos([slo], tracer.recent())
        assert not status.ok
        assert status.samples == 10
        assert status.value > 0.1
        loose = SLO(name="p50", kind="latency", threshold=0.1, percentile=50.0)
        (status,) = evaluate_slos([loose], tracer.recent())
        assert status.ok

    def test_degraded_rate_slo(self):
        tracer = self._traces([0.01] * 4, degraded_flags=[True, False, False, False])
        slo = SLO(name="deg", kind="degraded_rate", threshold=0.2)
        (status,) = evaluate_slos([slo], tracer.recent())
        assert status.value == pytest.approx(0.25)
        assert not status.ok

    def test_drop_rate_uses_totals_not_traces(self):
        slo = SLO(name="drops", kind="drop_rate", threshold=0.0)
        (status,) = evaluate_slos([slo], [], totals={"requests": 10, "dropped": 1})
        assert status.value == pytest.approx(0.1)
        assert not status.ok
        (status,) = evaluate_slos([slo], [], totals={"requests": 10, "dropped": 0})
        assert status.ok

    def test_no_data_is_ok_with_none_value(self):
        slo = SLO(name="p99", kind="latency", threshold=0.1)
        (status,) = evaluate_slos([slo], [])
        assert status.ok and status.value is None and status.samples == 0

    def test_check_slos_strict_raises_with_detail(self):
        tracer = self._traces([0.5])
        slo = SLO(name="p99-latency", kind="latency", threshold=0.1)
        with pytest.raises(SLOViolation, match="p99-latency"):
            check_slos([slo], tracer=tracer, strict=True)
        statuses = check_slos([slo], tracer=tracer, strict=False)
        assert [s.ok for s in statuses] == [False]

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SLO(name="x", kind="nope", threshold=1.0)
        with pytest.raises(ValueError):
            SLO(name="x", kind="latency", threshold=-1.0)


# ----------------------------------------------------------------------
# Histogram reservoir (bounded memory)
# ----------------------------------------------------------------------
class TestHistogramReservoir:
    def test_memory_bounded_but_count_total_exact(self):
        h = Histogram("lat", reservoir_size=16)
        values = list(range(1, 101))
        for v in values:
            h.observe(v)
        assert h.count == 100
        assert h.total == pytest.approx(sum(values))
        assert h.reservoir_len == 16
        summary = h.to_dict()
        assert summary["min"] == 1.0 and summary["max"] == 100.0
        assert summary["mean"] == pytest.approx(sum(values) / 100)
        assert 1.0 <= summary["p50"] <= 100.0

    def test_exact_below_the_cap(self):
        h = Histogram("lat", reservoir_size=64)
        for v in range(10):
            h.observe(v)
        assert h.reservoir_len == 10
        assert h.percentile(50) == pytest.approx(4.5)

    def test_replacement_is_deterministic_per_name(self):
        def fill(name):
            h = Histogram(name, reservoir_size=8)
            for v in range(500):
                h.observe(v)
            return h.to_dict()

        assert fill("same") == fill("same")

    def test_reservoir_is_unbiased_enough_for_quantiles(self):
        h = Histogram("wide", reservoir_size=512)
        rng = np.random.default_rng(7)
        for v in rng.uniform(0, 1, size=20_000):
            h.observe(v)
        assert h.to_dict()["p50"] == pytest.approx(0.5, abs=0.1)

    def test_reset_and_validation(self):
        h = Histogram("x", reservoir_size=4)
        h.observe(1.0)
        h.reset()
        assert h.count == 0 and h.reservoir_len == 0
        with pytest.raises(ValueError):
            Histogram("bad", reservoir_size=0)


# ----------------------------------------------------------------------
# Bench-regression gate
# ----------------------------------------------------------------------
def _bench_payload(seconds=1.0, outcome="passed", **quality):
    return {
        "scale": "BENCH",
        "benches": {
            "benchmarks/test_x.py::test_bench": {
                "outcome": outcome,
                "seconds": seconds,
                "quality": quality,
            }
        },
    }


class TestBenchGate:
    def test_identity_comparison_passes(self):
        payload = _bench_payload(served_qps=100.0, latency_p99=0.01, dropped=0.0)
        assert compare_bench(payload, payload).ok

    def test_latency_regression_beyond_tolerance_fails(self):
        base = _bench_payload(latency_p99=0.2)
        cur = _bench_payload(latency_p99=0.2 * 3)  # 3x: outside the 75% band
        diff = compare_bench(cur, base)
        assert not diff.ok
        (failure,) = diff.failures
        assert failure.metric == "latency_p99" and failure.status == "regressed"
        assert "FAIL" in diff.format_text()

    def test_latency_within_tolerance_passes(self):
        base = _bench_payload(latency_p99=0.2)
        assert compare_bench(_bench_payload(latency_p99=0.3), base).ok

    def test_zero_drop_promise_is_absolute(self):
        diff = compare_bench(_bench_payload(dropped=1.0), _bench_payload(dropped=0.0))
        assert not diff.ok

    def test_throughput_may_improve_but_not_collapse(self):
        base = _bench_payload(served_qps=100.0)
        assert compare_bench(_bench_payload(served_qps=500.0), base).ok
        assert not compare_bench(_bench_payload(served_qps=40.0), base).ok

    def test_config_echo_mismatch_fails(self):
        diff = compare_bench(_bench_payload(workers=8.0), _bench_payload(workers=4.0))
        (failure,) = diff.failures
        assert failure.status == "mismatch"

    def test_missing_bench_and_metric_fail_while_new_ones_pass(self):
        base = _bench_payload(served_qps=100.0)
        assert not compare_bench({"benches": {}}, base).ok
        missing_metric = compare_bench(_bench_payload(other=1.0), base)
        assert any(
            d.metric == "served_qps" and d.status == "missing"
            for d in missing_metric.deltas
        )
        new_only = compare_bench(_bench_payload(served_qps=100.0, extra=5.0), base)
        assert new_only.ok
        assert any(d.status == "new" for d in new_only.deltas)

    def test_failed_outcome_fails_the_gate(self):
        diff = compare_bench(_bench_payload(outcome="failed"), _bench_payload())
        assert not diff.ok

    def test_overrides_widen_one_metric(self):
        base = _bench_payload(latency_p99=0.2)
        cur = _bench_payload(latency_p99=0.6)
        assert not compare_bench(cur, base).ok
        assert compare_bench(cur, base, overrides={"latency_p99": 5.0}).ok

    def test_tolerance_rules_directions(self):
        assert tolerance_for("n_db").direction == "exact"
        assert tolerance_for("dropped").direction == "lower"
        assert tolerance_for("dropped").band(0.0) == 0.0
        assert tolerance_for("latency_p99").direction == "lower"
        assert tolerance_for("served_qps").direction == "higher"
        assert tolerance_for("hr10").direction == "higher"
        assert tolerance_for("final_loss").direction == "lower"
        assert tolerance_for("mystery_metric").direction == "both"

    def test_compare_bench_files_and_perturbed_baseline_fails(self, tmp_path):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        payload = _bench_payload(served_qps=100.0, latency_p99=0.01, dropped=0.0)
        current.write_text(json.dumps(payload))
        baseline.write_text(json.dumps(payload))
        assert compare_bench_files(current, baseline).ok

        # Perturb one baseline metric beyond its tolerance: the gate
        # must demonstrably fail (this is the bench-check contract).
        perturbed = _bench_payload(served_qps=1000.0, latency_p99=0.01, dropped=0.0)
        baseline.write_text(json.dumps(perturbed))
        diff = compare_bench_files(current, baseline)
        assert not diff.ok
        (failure,) = diff.failures
        assert failure.metric == "served_qps" and failure.status == "regressed"

    def test_load_rejects_non_bench_json(self, tmp_path):
        path = tmp_path / "not_bench.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ValueError):
            compare_bench_files(path, path)


# ----------------------------------------------------------------------
# Lint rule R008
# ----------------------------------------------------------------------
class TestTracingLintRule:
    def _lint(self, tmp_path, source):
        (tmp_path / "mod.py").write_text(textwrap.dedent(source))
        return run_analysis([tmp_path], root=tmp_path, rules=["R008"])

    def test_flags_discarded_span_calls_and_bare_enter(self, tmp_path):
        report = self._lint(
            tmp_path,
            """\
            def f(tracer, tr):
                tracer.span("a")
                tr.trace_span("b")
                tr.handoff()
                tracer.span("c").__enter__()
            """,
        )
        assert [(v.rule, v.line) for v in report.violations] == [
            ("R008", 2),
            ("R008", 3),
            ("R008", 4),
            ("R008", 5),
        ]

    def test_with_blocks_and_stored_tokens_are_fine(self, tmp_path):
        report = self._lint(
            tmp_path,
            """\
            def f(tracer, tr):
                with tracer.span("a"):
                    pass
                token = tr.handoff()
                return token
            """,
        )
        assert report.ok

    def test_allow_comment_suppresses(self, tmp_path):
        report = self._lint(
            tmp_path,
            """\
            def f(tracer):
                tracer.span("a")  # lint: allow(R008)
            """,
        )
        assert report.ok
        assert report.suppressed_count == 1


# ----------------------------------------------------------------------
# Integration: traced serving and training
# ----------------------------------------------------------------------
class TestServeTraceIntegration:
    @pytest.fixture(scope="class")
    def bench_run(self):
        from repro.serve import run_serve_bench

        tracer = get_tracer()
        tracer.reset()
        result = run_serve_bench(
            n_db=12, n_queries=48, workers=4, naive_queries=2, seed=0
        )
        return result, tracer.recent(name="serve.topk")

    def test_every_request_leaves_one_distinct_trace(self, bench_run):
        result, traces = bench_run
        assert result.dropped == 0
        assert len(traces) == 48
        assert len({t.trace_id for t in traces}) == 48

    def test_child_spans_account_for_the_wall_time(self, bench_run):
        # Acceptance: a traced topk under the 4-worker bench yields a
        # trace whose child spans (cache, queue-wait, forward, index)
        # sum to within 10% of the request wall time.
        _, traces = bench_run
        coverage = []
        for trace in traces:
            child_seconds = sum(
                e["end"] - e["start"] for e in trace.children(ROOT)
            )
            coverage.append(child_seconds / trace.duration)
        best = max(coverage)
        assert 0.9 <= best <= 1.05
        # ...and attribution is not a one-off: most requests are covered.
        assert sorted(coverage)[len(coverage) // 2] > 0.5

    def test_handoff_attributes_queue_wait_before_forward(self, bench_run):
        _, traces = bench_run
        for trace in traces:
            events = {e["name"]: e for e in trace.children(ROOT)}
            assert {"cache", "queue-wait", "forward", "index"} <= set(events)
            wait, forward = events["queue-wait"], events["forward"]
            # the queue-wait interval ends exactly where the batched
            # forward begins: that boundary is the handoff resume point
            assert wait["end"] == forward["start"]
            assert wait["start"] >= trace.start
            assert forward["attrs"]["batch_size"] >= 1
            assert trace.attrs["degraded"] is False

    def test_slos_hold_and_are_reported(self, bench_run):
        result, _ = bench_run
        assert result.slo_statuses  # evaluated, not skipped
        assert result.slo_ok
        assert result.to_dict()["slo_failures"] == 0.0

    def test_format_trace_renders_critical_path(self, bench_run):
        _, traces = bench_run
        slowest = max(traces, key=lambda t: t.duration)
        text = format_trace(slowest)
        assert text.startswith(f"trace {slowest.trace_id} serve.topk")
        assert any(line.startswith("*") for line in text.splitlines())

    def test_degraded_requests_carry_the_reason(self):
        from repro.serve import SimilarityServer

        class Boom:
            output_dim = 4

            def encode(self, batch):
                raise RuntimeError("encoder down")

        tracer = get_tracer()
        tracer.reset()
        server = SimilarityServer(Boom(), dim=4, seed=0)
        try:
            rng = np.random.default_rng(0)
            server.topk(rng.normal(size=(6, 2)), k=1)
        finally:
            server.close()
        (trace,) = tracer.recent(name="serve.topk")
        assert trace.attrs["degraded"] is True
        assert trace.attrs["degraded_reason"].startswith("batch-failed")

    def test_trainer_emits_one_trace_per_epoch(self):
        from repro.core import TMN, TMNConfig, Trainer

        tracer = get_tracer()
        tracer.reset()
        rng = np.random.default_rng(11)
        trajs = [rng.normal(size=(10, 2)) for _ in range(8)]
        cfg = TMNConfig(
            hidden_dim=8, epochs=2, sampling_number=4, batch_anchors=8, seed=0
        )
        Trainer(TMN(cfg), cfg, metric="hausdorff").fit(trajs)
        traces = tracer.recent(name="train.epoch")
        assert len(traces) == 2
        assert [t.attrs["epoch"] for t in traces] == [1, 2]
        for trace in traces:
            batches = [e for e in trace.children(ROOT) if e["name"] == "batch"]
            assert batches
            assert "loss" in trace.attrs
            grandchildren = {
                e["name"] for e in trace.events if e["parent"] == batches[0]["id"]
            }
            assert {"forward", "loss", "backward", "optimizer"} <= grandchildren


# ----------------------------------------------------------------------
# CLI surface: metrics / trace / bench-diff
# ----------------------------------------------------------------------
class TestObservabilityCLI:
    def test_metrics_renders_exposition(self, capsys):
        from repro.obs import get_registry

        get_registry().counter("serve.query.requests").inc(0)
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_serve_query_requests_total counter" in out

    def test_trace_reads_a_jsonl_log(self, tmp_path, capsys):
        log = tmp_path / "traces.jsonl"
        clk = FakeClock()
        tracer = Tracer(clock=clk, log_path=log)
        _scripted_trace(tracer, clk)
        tracer.configure(log_path=None)
        assert main(["trace", str(log), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 trace(s); slowest 1:" in out
        assert "trace t000001 serve.topk" in out

    def test_trace_missing_log_is_an_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bench_diff_cli_pass_fail_and_json(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        current.write_text(json.dumps(_bench_payload(served_qps=100.0)))
        baseline.write_text(json.dumps(_bench_payload(served_qps=100.0)))
        assert main(["bench-diff", str(current), str(baseline)]) == 0
        assert "bench gate ok" in capsys.readouterr().out

        baseline.write_text(json.dumps(_bench_payload(served_qps=1000.0)))
        assert main(["bench-diff", str(current), str(baseline)]) == 1
        assert "bench gate FAILED" in capsys.readouterr().out

        assert (
            main(["bench-diff", str(current), str(baseline), "--json"]) == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["failures"] == 1

        assert (
            main(
                [
                    "bench-diff",
                    str(current),
                    str(baseline),
                    "--tolerance",
                    "served_qps=20.0",
                ]
            )
            == 0
        )
        capsys.readouterr()

    def test_bench_diff_bad_tolerance_spec(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(_bench_payload()))
        assert (
            main(["bench-diff", str(path), str(path), "--tolerance", "oops"]) == 2
        )
        assert "bad --tolerance" in capsys.readouterr().err

    def test_serve_bench_trace_log_flag(self, tmp_path, capsys):
        log = tmp_path / "serve_traces.jsonl"
        code = main(
            [
                "serve-bench",
                "--n-db",
                "10",
                "--queries",
                "24",
                "--workers",
                "2",
                "--trace-log",
                str(log),
            ]
        )
        assert code == 0
        assert "slo ok" in capsys.readouterr().out
        traces = read_trace_log(log)
        assert len(traces) == 24
        assert all(t.name == "serve.topk" for t in traces)
