"""Tests for repro.obs: metrics registry, op profiler, run records and
the observability-facing CLI surface (train --log-json / report)."""

import json

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, concat, softmax
from repro.autograd import tensor as tensor_mod
from repro.cli import main
from repro.nn.fused import fused_lstm_sequence
from repro.obs import (
    MetricsRegistry,
    OpProfiler,
    RunWriter,
    format_op_table,
    format_run,
    read_run,
)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_semantics(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("g") is reg.gauge("g")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("load")
        assert g.value is None
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        d = h.to_dict()
        assert d["count"] == 4
        assert d["min"] == 1.0 and d["max"] == 4.0
        assert d["mean"] == 2.5
        assert h.percentile(50) == 2.5

    def test_snapshot_and_reset_keep_references_valid(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        c.inc(7)
        reg.gauge("b").set(1)
        reg.histogram("c").observe(2.0)
        snap = reg.snapshot()
        assert snap["a"] == {"type": "counter", "value": 7.0}
        assert snap["b"]["value"] == 1.0
        assert snap["c"]["count"] == 1
        reg.reset()
        assert c.value == 0.0  # same object, cleared in place
        c.inc()
        assert reg.snapshot()["a"]["value"] == 1.0


# ----------------------------------------------------------------------
# Op profiler
# ----------------------------------------------------------------------
class TestOpProfiler:
    def test_counts_methods_and_free_functions(self):
        with OpProfiler() as prof:
            a = Tensor(np.ones((3, 4)), requires_grad=True)
            b = Tensor(np.ones((4, 2)), requires_grad=True)
            out = softmax(a @ b, axis=-1)
            cat = concat([out, out], axis=-1)
            cat.sum().backward()
        snap = prof.snapshot()
        assert snap["__matmul__"]["calls"] == 1
        assert snap["softmax"]["calls"] == 1
        assert snap["concat"]["calls"] == 1
        assert snap["sum"]["calls"] >= 1
        # Backward closures ran and were timed.
        assert snap["__matmul__"]["backward_calls"] == 1
        assert snap["__matmul__"]["backward_s"] >= 0.0
        table = format_op_table(snap)
        assert "__matmul__" in table and "forward_s" in table

    def test_disable_restores_pristine_class(self):
        before = {"__add__": Tensor.__add__, "sum": Tensor.sum}
        prof = OpProfiler()
        prof.enable()
        assert Tensor.__add__ is not before["__add__"]
        prof.disable()
        assert Tensor.__add__ is before["__add__"]
        assert Tensor.sum is before["sum"]
        assert tensor_mod._PROFILER is None

    def test_two_live_profilers_rejected(self):
        with OpProfiler():
            with pytest.raises(RuntimeError):
                OpProfiler().enable()

    def test_gradcheck_results_unchanged_under_profiler(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 3))

        def fn(a, b):
            return softmax(a * b, axis=-1).sum() + (a @ b.T).mean()

        def grads():
            a = Tensor(x, requires_grad=True)
            b = Tensor(y, requires_grad=True)
            fn(a, b).backward()
            return a.grad.copy(), b.grad.copy()

        ga_plain, gb_plain = grads()
        with OpProfiler():
            assert check_gradients(fn, [x, y])
            ga_prof, gb_prof = grads()
        np.testing.assert_array_equal(ga_plain, ga_prof)
        np.testing.assert_array_equal(gb_plain, gb_prof)

    def test_profiles_fused_lstm_sequence(self):
        rng = np.random.default_rng(1)
        hidden = 4
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        h = Tensor(np.zeros((2, hidden)))
        c = Tensor(np.zeros((2, hidden)))
        w_ih = Tensor(rng.normal(size=(3, 4 * hidden)), requires_grad=True)
        w_hh = Tensor(rng.normal(size=(hidden, 4 * hidden)), requires_grad=True)
        bias = Tensor(np.zeros(4 * hidden), requires_grad=True)
        with OpProfiler() as prof:
            out, h2, c2 = fused_lstm_sequence(x, h, c, w_ih, w_hh, bias)
            (out.sum() + h2.sum() + c2.sum()).backward()
        snap = prof.snapshot()
        assert snap["fused_lstm_sequence"]["calls"] == 1
        # The sequence closure plus the two final-state closures.
        assert snap["fused_lstm_sequence"]["backward_calls"] == 3


# ----------------------------------------------------------------------
# Run records
# ----------------------------------------------------------------------
class TestRunRecords:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunWriter(
            path, name="demo", config={"hidden_dim": 8}, seed=3, metric="dtw"
        ) as writer:
            writer.write_epoch(
                {
                    "epoch": 1,
                    "loss": 0.5,
                    "grad_norm": 2.0,
                    "seconds": 0.1,
                    "lr": 0.005,
                    "spans": {"epoch": {"seconds": 0.1, "count": 1}},
                }
            )
            writer.write_epoch({"epoch": 2, "loss": 0.25, "grad_norm": 1.0, "seconds": 0.1})
            writer.finish(final_loss=0.25, eval_scores={"HR-5": 0.8})

        record = read_run(path)
        assert record.name == "demo"
        assert record.seed == 3
        assert record.metric == "dtw"
        assert record.config == {"hidden_dim": 8}
        assert [e["loss"] for e in record.epochs] == [0.5, 0.25]
        assert record.epochs[0]["spans"]["epoch"]["count"] == 1
        assert record.final_loss == 0.25
        assert record.final["eval"] == {"HR-5": 0.8}
        # Every line is valid JSON (the "machine-readable" contract).
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_reader_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "epoch", "epoch": 1}\n')
        with pytest.raises(ValueError):
            read_run(path)
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            read_run(path)

    def test_format_run_renders_fields(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = RunWriter(path, name="demo", config={"epochs": 2}, seed=0, metric="dtw")
        writer.write_epoch({"epoch": 1, "loss": 0.5, "grad_norm": 2.0, "seconds": 0.1})
        writer.finish(final_loss=0.5)
        text = format_run(read_run(path))
        assert "run: demo" in text
        assert "epochs = 2" in text
        assert "grad_norm" in text


# ----------------------------------------------------------------------
# Trainer wiring + CLI surface
# ----------------------------------------------------------------------
class TestCliReport:
    def test_train_log_json_profile_then_report(self, tmp_path, capsys):
        run_path = tmp_path / "demo.jsonl"
        ckpt = tmp_path / "model"
        code = main(
            [
                "train",
                "--kind",
                "porto",
                "--metric",
                "hausdorff",
                "--model",
                "SRN",
                "--fast",
                "--epochs",
                "1",
                "--profile",
                "--log-json",
                str(run_path),
                "--out",
                str(ckpt),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final loss" in out
        assert "forward_s" in out  # the op table was printed

        record = read_run(run_path)
        assert record.seed == 0
        assert record.config["epochs"] == 1
        assert len(record.epochs) == 1
        epoch = record.epochs[0]
        for key in ("loss", "grad_norm", "seconds", "spans"):
            assert key in epoch
        assert "epoch/batch/forward" in epoch["spans"]
        assert record.final["op_profile"]  # profiler snapshot persisted

        assert main(["report", str(run_path)]) == 0
        report_out = capsys.readouterr().out
        assert "grad_norm" in report_out
        assert "op profile:" in report_out

    def test_report_missing_file_errors(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err
