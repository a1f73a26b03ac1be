"""Tier-1 tests for the cross-module dataflow layer and the D/N rules.

Covers the :class:`~repro.analysis.dataflow.ProjectDataflow` index itself
(symbol resolution through package re-exports, cross-module MRO, call-graph
reachability from forward roots, the tape-op catalogue), the
differentiability rules D001/D002, the numerical-stability family
N001–N004, the interprocedural S001 path, and the JSON/SARIF report
round-trip.  Everything runs on deliberately broken scratch trees so the
expected findings are exact.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import FileContext, ProjectContext, run_analysis
from repro.analysis.dataflow import ProjectDataflow

pytestmark = pytest.mark.lint


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _build_flow(tmp_path, files):
    """Write a scratch tree and index it; returns (project, flow)."""
    ctxs = []
    for rel, source in files.items():
        path = _write(tmp_path, rel, source)
        ctxs.append(FileContext.parse(path, rel))
    project = ProjectContext(root=tmp_path, files=ctxs)
    return project, ProjectDataflow.build(project)


# A miniature autograd engine + model, spread over a package the way the
# real tree is: engine, layers, and a model wired through re-exports.
ENGINE = """\
    import numpy as np

    class Tensor:
        def __init__(self, data):
            self.data = np.asarray(data)

        @classmethod
        def _make(cls, data, parents, backward):
            return cls(data)

        def __add__(self, other):
            def backward(grad):
                pass

            return Tensor._make(self.data + other.data, (self, other), backward)

        def exp(self):
            out_data = np.exp(np.clip(self.data, -50.0, 50.0))

            def backward(grad):
                pass

            return Tensor._make(out_data, (self,), backward)

        def relu(self):
            out_data = np.maximum(self.data, 0.0)
            return Tensor._make(out_data, (self,), None)
    """

LAYERS = """\
    from .engine import Tensor

    class Linear:
        def __init__(self, n_in, n_out):
            self.n_in = n_in
            self.n_out = n_out

        def __call__(self, x):
            return x
    """

MODEL = """\
    from .layers import Linear

    class Model:
        def __init__(self):
            self.proj = Linear(2, 4)

        def forward(self, x):
            h = self.proj(x)
            return (h + h).exp().relu()
    """

INIT = """\
    from .engine import Tensor
    from .model import Model
    """

PKG = {
    "pkg/__init__.py": INIT,
    "pkg/engine.py": ENGINE,
    "pkg/layers.py": LAYERS,
    "pkg/model.py": MODEL,
}


class TestDataflowIndex:
    def test_module_names_and_packages(self, tmp_path):
        _, flow = _build_flow(tmp_path, PKG)
        assert set(flow.by_modname) == {"pkg", "pkg.engine", "pkg.layers", "pkg.model"}
        assert flow.by_modname["pkg"].is_package
        assert not flow.by_modname["pkg.engine"].is_package

    def test_resolve_through_package_reexport(self, tmp_path):
        files = dict(PKG)
        files["main.py"] = "from pkg import Tensor\n"
        _, flow = _build_flow(tmp_path, files)
        ref = flow.resolve(flow.modules["main.py"], "Tensor")
        assert ref is not None
        assert (ref.kind, ref.module_rel, ref.name) == ("class", "pkg/engine.py", "Tensor")

    def test_cross_module_mro(self, tmp_path):
        files = dict(PKG)
        files["pkg/sub.py"] = """\
            from .model import Model

            class Sub(Model):
                pass
            """
        _, flow = _build_flow(tmp_path, files)
        sub = flow.modules["pkg/sub.py"].classes["Sub"]
        assert [c.name for c in flow.mro(sub)] == ["Sub", "Model"]
        fwd = flow.find_method(sub, "forward")
        assert fwd is not None and fwd.module_rel == "pkg/model.py"

    def test_forward_reachability_spans_layers_and_engine(self, tmp_path):
        _, flow = _build_flow(tmp_path, PKG)
        roots = {fi.qualname for fi in flow.forward_roots()}
        assert "Model.forward" in roots
        reachable = flow.reachable_forward_graph()
        # self.proj(x) resolves through the inferred attribute type ...
        assert "pkg/layers.py::Linear.__call__" in reachable
        # ... tensor-method and operator-dunder edges hit the engine.
        assert "pkg/engine.py::Tensor.exp" in reachable
        assert "pkg/engine.py::Tensor.relu" in reachable
        assert "pkg/engine.py::Tensor.__add__" in reachable

    def test_tape_op_catalogue_tracks_backward_closures(self, tmp_path):
        _, flow = _build_flow(tmp_path, PKG)
        ops = {fi.qualname: has_backward for fi, has_backward in flow.tape_ops()}
        assert ops["Tensor.exp"] is True
        assert ops["Tensor.__add__"] is True
        assert ops["Tensor.relu"] is False  # passes None for backward


class TestD001BackwardCoverage:
    def _tree(self, tmp_path, gradcheck_ops=("exp",)):
        for rel, source in PKG.items():
            _write(tmp_path, "src/" + rel, source)
        body = "\n".join(
            f"    assert check_gradients(lambda t: t.{op}(), [data])"
            for op in gradcheck_ops
        )
        _write(
            tmp_path,
            "tests/test_grads.py",
            f"""\
            from pkg import Tensor

            def test_gradchecks():
                data = None
            {body}
            """,
        )
        return run_analysis(
            [tmp_path / "src"],
            tests_dir=tmp_path / "tests",
            root=tmp_path,
            rules=["D001"],
        )

    def test_reachable_op_without_backward_or_gradcheck(self, tmp_path):
        report = self._tree(tmp_path, gradcheck_ops=("exp",))
        findings = {(v.rule, v.path, v.message.split("`")[1]) for v in report.violations}
        # relu is reachable, has no backward closure, and no gradcheck.
        assert ("D001", "src/pkg/engine.py", "Tensor.relu") in findings
        messages = [v.message for v in report.violations if "relu" in v.message]
        assert any("no backward closure" in m for m in messages)
        assert any("no gradcheck-bearing test" in m for m in messages)
        # exp has both; __add__ has a backward but no gradcheck.
        assert not any("Tensor.exp" in v.message for v in report.violations)
        add_msgs = [v.message for v in report.violations if "__add__" in v.message]
        assert add_msgs and all("gradcheck" in m for m in add_msgs)

    def test_gradcheck_via_operator_dunder_counts(self, tmp_path):
        # `a + b` inside a gradcheck-bearing test covers __add__.
        for rel, source in PKG.items():
            _write(tmp_path, "src/" + rel, source)
        _write(
            tmp_path,
            "tests/test_grads.py",
            """\
            from pkg import Tensor

            def test_gradchecks():
                data = None
                assert check_gradients(lambda t: t.exp(), [data])
                assert check_gradients(lambda a, b: a + b, [data, data])
            """,
        )
        report = run_analysis(
            [tmp_path / "src"],
            tests_dir=tmp_path / "tests",
            root=tmp_path,
            rules=["D001"],
        )
        assert not any("__add__" in v.message for v in report.violations)

    def test_unreachable_op_is_not_audited(self, tmp_path):
        files = dict(PKG)
        # Tensor.relu is no longer on any forward path.
        files["pkg/model.py"] = """\
            from .layers import Linear

            class Model:
                def __init__(self):
                    self.proj = Linear(2, 4)

                def forward(self, x):
                    h = self.proj(x)
                    return (h + h).exp()
            """
        for rel, source in files.items():
            _write(tmp_path, "src/" + rel, source)
        report = run_analysis([tmp_path / "src"], root=tmp_path, rules=["D001"])
        assert not any("relu" in v.message for v in report.violations)


class TestD002GraphDetach:
    def _report(self, tmp_path, forward_body):
        files = dict(PKG)
        files["pkg/model.py"] = textwrap.dedent(
            """\
            from .engine import Tensor
            from .layers import Linear
            import numpy as np

            class Model:
                def __init__(self):
                    self.proj = Linear(2, 4)

                def forward(self, x):
            {body}
            """
        ).format(body=textwrap.indent(textwrap.dedent(forward_body), "        "))
        for rel, source in files.items():
            _write(tmp_path, "src/" + rel, source)
        return run_analysis([tmp_path / "src"], root=tmp_path, rules=["D002"])

    def test_rewrapping_data_is_flagged(self, tmp_path):
        report = self._report(
            tmp_path,
            """\
            h = self.proj(x)
            return Tensor(h.data * 2.0)
            """,
        )
        assert [v.rule for v in report.violations] == ["D002"]
        assert "detaching the gradient" in report.violations[0].message

    def test_asarray_of_numpy_call_is_flagged(self, tmp_path):
        report = self._report(
            tmp_path,
            """\
            h = self.proj(x)
            return np.asarray(h.numpy())
            """,
        )
        assert [v.rule for v in report.violations] == ["D002"]

    def test_no_grad_block_is_exempt(self, tmp_path):
        report = self._report(
            tmp_path,
            """\
            h = self.proj(x)
            with no_grad():
                frozen = Tensor(h.data * 2.0)
            return h
            """,
        )
        assert report.ok, report.format_text()

    def test_engine_modules_are_exempt(self, tmp_path):
        # Tensor.__add__ wraps self.data by definition; never flagged.
        for rel, source in PKG.items():
            _write(tmp_path, "src/repro/autograd/" + rel, source)
        report = run_analysis([tmp_path / "src"], root=tmp_path, rules=["D002"])
        assert not any("engine.py" in v.path for v in report.violations)


class TestStabilityRules:
    def _report(self, tmp_path, source, rules):
        _write(tmp_path, "mod.py", source)
        return run_analysis([tmp_path], root=tmp_path, rules=rules)

    def test_n001_unguarded_exp(self, tmp_path):
        report = self._report(
            tmp_path,
            """\
            import numpy as np

            def softmax(x):
                return np.exp(x)
            """,
            ["N001"],
        )
        assert [(v.rule, v.line) for v in report.violations] == [("N001", 4)]

    def test_n001_max_subtraction_is_safe(self, tmp_path):
        report = self._report(
            tmp_path,
            """\
            import numpy as np

            def softmax(x):
                shifted = x - x.max(axis=-1, keepdims=True)
                exps = np.exp(shifted)
                return np.exp(np.clip(x, -50.0, 50.0)) + exps
            """,
            ["N001"],
        )
        assert report.ok, report.format_text()

    def test_n001_in_place_exp_without_shift_fires(self, tmp_path):
        report = self._report(
            tmp_path,
            """\
            import numpy as np

            def softmax(x, mask):
                s = np.where(mask, x, -np.inf)
                np.exp(s, out=s)
                t = x - x.max(axis=-1, keepdims=True)
                t += 1.0
                np.exp(t, out=t)
                return s, t
            """,
            ["N001"],
        )
        assert [(v.rule, v.line) for v in report.violations] == [
            ("N001", 5),
            ("N001", 8),
        ]

    def test_n001_in_place_max_subtraction_is_safe(self, tmp_path):
        report = self._report(
            tmp_path,
            """\
            import numpy as np

            def softmax(x, mask):
                s = np.where(mask, x, -np.inf)
                row_max = s.max(axis=-1, keepdims=True)
                row_max = np.where(np.isfinite(row_max), row_max, 0.0)
                s -= row_max
                np.exp(s, out=s)
                s /= s.sum(axis=-1, keepdims=True)
                t = np.array(x)
                t -= t.max()
                return s, np.exp(t)
            """,
            ["N001"],
        )
        assert report.ok, report.format_text()

    def test_n001_nonpositive_argument_is_safe(self, tmp_path):
        report = self._report(
            tmp_path,
            """\
            import numpy as np

            def kernel(dist, alpha):
                return np.exp(-np.abs(dist) * alpha)
            """,
            ["N001"],
        )
        # -np.abs(dist) is provably nonpositive only when alpha's sign is
        # known; the recognised idiom is nonneg * nonpositive.
        report2 = self._report(
            tmp_path / "b",
            """\
            import numpy as np

            def kernel(dist):
                return np.exp(-np.abs(dist))
            """,
            ["N001"],
        )
        assert report2.ok, report2.format_text()

    def test_n002_log_and_sqrt_guards(self, tmp_path):
        report = self._report(
            tmp_path,
            """\
            import numpy as np

            def f(x, eps):
                bad_log = np.log(x)
                good_log = np.log(x + eps)
                bad_sqrt = np.sqrt(x)
                good_sqrt = np.sqrt(x * x)
                also_good = np.sqrt(np.maximum(x, 1e-12))
                return bad_log + good_log + bad_sqrt + good_sqrt + also_good
            """,
            ["N002"],
        )
        assert [(v.rule, v.line) for v in report.violations] == [
            ("N002", 4),
            ("N002", 6),
        ]

    def test_n003_division_by_sum(self, tmp_path):
        report = self._report(
            tmp_path,
            """\
            import numpy as np

            def normalise(w, eps):
                total = w.sum(axis=-1, keepdims=True)
                bad = w / total
                good = w / (total + eps)
                denom = np.where(total == 0, 1, total)
                also_good = w / denom
                return bad + good + also_good
            """,
            ["N003"],
        )
        assert [(v.rule, v.line) for v in report.violations] == [("N003", 5)]

    def test_n004_float_equality(self, tmp_path):
        report = self._report(
            tmp_path,
            """\
            import numpy as np

            def f(t, other):
                bad_data = t.data == other.data
                bad_const = t.value == 0.5
                sentinel_ok = t.value == 0.0
                metadata_ok = t.data.size == 1
                return bad_data, bad_const, sentinel_ok, metadata_ok
            """,
            ["N004"],
        )
        assert [(v.rule, v.line) for v in report.violations] == [
            ("N004", 4),
            ("N004", 5),
        ]

    def test_inline_allow_suppresses_and_counts(self, tmp_path):
        report = self._report(
            tmp_path,
            """\
            import numpy as np

            def f(x):
                return np.exp(x)  # lint: allow(N001)
            """,
            ["N001"],
        )
        assert report.ok
        assert report.suppressed_count == 1


class TestInterproceduralS001:
    def test_subclass_override_changes_base_wiring(self, tmp_path):
        # The base sizes its RNN through self.lstm_input_dim(); the broken
        # subclass overrides it to 3*embed_dim while still feeding embed_dim
        # features, which only the cross-module MRO walk can see.
        files = {
            "pkg/__init__.py": "from .base import Base\n",
            "pkg/nn.py": """\
                class Linear:
                    def __init__(self, n_in, n_out):
                        self.n_in = n_in
                        self.n_out = n_out

                    def __call__(self, x):
                        return x

                class LSTM:
                    def __init__(self, input_dim, hidden_dim):
                        self.input_dim = input_dim

                    def __call__(self, x, mask=None):
                        return x, None
                """,
            "pkg/base.py": """\
                from .nn import LSTM, Linear

                class Base:
                    def __init__(self, config):
                        self.config = config
                        self.point_embed = Linear(2, self.config.embed_dim)
                        self.lstm = LSTM(self.lstm_input_dim(), self.config.hidden_dim)

                    def lstm_input_dim(self):
                        return self.config.embed_dim

                    def encode_side(self, x, mask):
                        h = self.point_embed(x)
                        out, _ = self.lstm(h, mask=mask)
                        return out
                """,
            "pkg/good.py": """\
                from .base import Base

                class Good(Base):
                    pass
                """,
            "pkg/broken.py": """\
                from .base import Base

                class Broken(Base):
                    def lstm_input_dim(self):
                        return 3 * self.config.embed_dim
                """,
        }
        for rel, source in files.items():
            _write(tmp_path, "src/" + rel, source)
        report = run_analysis([tmp_path / "src"], root=tmp_path, rules=["S001"])
        assert report.violations, "expected the mis-sized subclass to be flagged"
        assert all(v.rule == "S001" for v in report.violations)
        # Only the hierarchy containing the bad override is flagged.
        assert not any("good.py" in v.path for v in report.violations)


class TestReportFormats:
    def _broken_report(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            import numpy as np

            def f(x):
                return np.exp(x)
            """,
        )
        return run_analysis([tmp_path], root=tmp_path, rules=["N001"])

    def test_json_round_trip(self, tmp_path):
        report = self._broken_report(tmp_path)
        payload = json.loads(report.to_json())
        assert payload["files_checked"] == 1
        assert payload["suppressed_count"] == 0
        assert [v["rule"] for v in payload["violations"]] == ["N001"]
        assert payload["violations"][0]["path"] == "mod.py"
        assert payload["violations"][0]["line"] == 4

    def test_sarif_round_trip(self, tmp_path):
        report = self._broken_report(tmp_path)
        sarif = json.loads(report.to_sarif())
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        # The driver advertises the full catalogue, including the new families.
        assert {"D001", "D002", "N001", "N002", "N003", "N004", "S001"} <= rule_ids
        results = run["results"]
        assert len(results) == 1
        assert results[0]["ruleId"] == "N001"
        loc = results[0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "mod.py"
        assert loc["region"]["startLine"] == 4
