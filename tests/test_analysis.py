"""Tier-1 gate for the repro.analysis static-analysis pass.

The headline test keeps the source tree at zero lint violations; the rest
pin each rule's behaviour on deliberately broken scratch trees, exercise
both suppression mechanisms (inline comments and the JSON baseline), the
symbolic shape checker, and the CLI entry points' exit codes.
"""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    check_module_wiring,
    main as analysis_main,
    rule_catalogue,
    run_analysis,
    write_baseline,
)

pytestmark = pytest.mark.lint

REPO = Path(__file__).resolve().parents[1]


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


class TestRepoIsClean:
    def test_source_tree_has_zero_violations(self):
        report = run_analysis([REPO / "src"], tests_dir=REPO / "tests", root=REPO)
        assert report.ok, "\n" + report.format_text()
        assert report.files_checked > 50

    def test_rule_catalogue_complete(self):
        assert set(RULES) >= {
            "R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008",
            "R009", "S001",
        }
        for rule in rule_catalogue():
            assert rule.title and rule.rationale
            assert rule.scope in ("file", "project", "dataflow")


class TestRNGRule:
    def test_flags_global_and_unseeded_rng(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            import numpy as np

            def f():
                a = np.random.rand(3)
                rng = np.random.default_rng()
                return a, rng
            """,
        )
        report = run_analysis([tmp_path], root=tmp_path, rules=["R001"])
        assert [(v.rule, v.path, v.line) for v in report.violations] == [
            ("R001", "mod.py", 4),
            ("R001", "mod.py", 5),
        ]

    def test_seeded_generator_is_fine(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            from numpy.random import default_rng

            def f(seed):
                return default_rng(seed).normal(size=3)
            """,
        )
        assert run_analysis([tmp_path], root=tmp_path, rules=["R001"]).ok


class TestMutationRule:
    def test_flags_inplace_data_mutation(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            def step(t, g):
                t.data += g
                t.data[0] = 0.0
                t.grad.fill(0.0)
            """,
        )
        report = run_analysis([tmp_path], root=tmp_path, rules=["R002"])
        assert [(v.rule, v.path, v.line) for v in report.violations] == [
            ("R002", "mod.py", 2),
            ("R002", "mod.py", 3),
            ("R002", "mod.py", 4),
        ]

    def test_rebinding_is_fine(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            def step(t, lr):
                t.data = t.data - lr * t.grad
            """,
        )
        assert run_analysis([tmp_path], root=tmp_path, rules=["R002"]).ok

    def test_inline_allow_suppresses(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            def step(t, g):
                t.data -= g  # lint: allow(R002)
            """,
        )
        assert run_analysis([tmp_path], root=tmp_path, rules=["R002"]).ok

    def test_baseline_suppresses_and_round_trips(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            def step(t, g):
                t.data += g
            """,
        )
        report = run_analysis([tmp_path], root=tmp_path, rules=["R002"])
        assert not report.ok
        baseline = tmp_path / "lint_baseline.json"
        write_baseline(baseline, report.violations)
        data = json.loads(baseline.read_text())
        assert data["suppress"][0]["rule"] == "R002"
        again = run_analysis(
            [tmp_path], root=tmp_path, rules=["R002"], baseline=baseline
        )
        assert again.ok


class TestCoverageRule:
    def test_flags_uncovered_op(self, tmp_path):
        _write(
            tmp_path,
            "src/pkg/autograd/ops.py",
            """\
            __all__ = ["covered", "uncovered"]

            def covered(x):
                return x

            def uncovered(x):
                return x
            """,
        )
        _write(
            tmp_path,
            "tests/test_ops.py",
            """\
            def test_covered_gradcheck(check_gradients, covered):
                check_gradients(covered, [1.0])
            """,
        )
        report = run_analysis(
            [tmp_path / "src"],
            tests_dir=tmp_path / "tests",
            root=tmp_path,
            rules=["R003"],
        )
        assert len(report.violations) == 1
        violation = report.violations[0]
        assert violation.rule == "R003"
        assert violation.path == "src/pkg/autograd/ops.py"
        assert "uncovered" in violation.message

    def test_value_only_test_does_not_count(self, tmp_path):
        """Per-function granularity: referencing the op in a test that never
        gradchecks must not mark it covered, even if another test in the
        same file does run gradchecks."""
        _write(
            tmp_path,
            "src/pkg/autograd/ops.py",
            """\
            __all__ = ["op_a", "op_b"]

            def op_a(x):
                return x

            def op_b(x):
                return x
            """,
        )
        _write(
            tmp_path,
            "tests/test_ops.py",
            """\
            def test_op_a_gradcheck(check_gradients, op_a):
                check_gradients(op_a, [1.0])

            def test_op_b_value(op_b):
                assert op_b(1.0) == 1.0
            """,
        )
        report = run_analysis(
            [tmp_path / "src"],
            tests_dir=tmp_path / "tests",
            root=tmp_path,
            rules=["R003"],
        )
        assert [v.rule for v in report.violations] == ["R003"]
        assert "op_b" in report.violations[0].message


class TestDtypeRule:
    def test_flags_narrow_dtypes(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            import numpy as np

            def f(x):
                a = np.zeros(3, dtype=np.float32)
                b = x.astype("float16")
                return a, b
            """,
        )
        report = run_analysis([tmp_path], root=tmp_path, rules=["R004"])
        assert [(v.rule, v.line) for v in report.violations] == [
            ("R004", 4),
            ("R004", 5),
        ]


class TestApiRules:
    def test_flags_missing_and_phantom_all(self, tmp_path):
        _write(
            tmp_path,
            "no_all.py",
            """\
            def public():
                '''Doc.'''
            """,
        )
        _write(
            tmp_path,
            "phantom.py",
            """\
            __all__ = ["ghost"]
            """,
        )
        report = run_analysis([tmp_path], root=tmp_path, rules=["R005"])
        found = {(v.path, v.line) for v in report.violations}
        assert ("no_all.py", 1) in found
        assert ("phantom.py", 1) in found

    def test_flags_missing_docstring(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            __all__ = ["Thing"]

            class Thing:
                '''Documented class.'''

                def undocumented(self):
                    return 1
            """,
        )
        report = run_analysis([tmp_path], root=tmp_path, rules=["R006"])
        assert [(v.rule, v.line) for v in report.violations] == [("R006", 6)]
        assert "undocumented" in report.violations[0].message

    def test_flags_bare_print_in_library_code(self, tmp_path):
        _write(
            tmp_path,
            "trainer.py",
            """\
            def fit():
                print("epoch done")
                return 1
            """,
        )
        report = run_analysis([tmp_path], root=tmp_path, rules=["R007"])
        assert [(v.rule, v.line) for v in report.violations] == [("R007", 2)]
        assert "print" in report.violations[0].message

    def test_front_ends_may_print(self, tmp_path):
        body = """\
            def main():
                print("result table")
            """
        _write(tmp_path, "cli.py", body)
        _write(tmp_path, "__main__.py", body)
        _write(tmp_path, "analysis/report.py", body)
        assert run_analysis([tmp_path], root=tmp_path, rules=["R007"]).ok

    def test_obs_logger_calls_are_fine(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            from repro.obs import get_logger

            _log = get_logger(__name__)

            def fit():
                _log.info("epoch", loss=0.5)
            """,
        )
        assert run_analysis([tmp_path], root=tmp_path, rules=["R007"]).ok


class TestShapeChecker:
    def test_real_model_is_clean(self):
        tree = ast.parse((REPO / "src/repro/core/model.py").read_text())
        classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
        assert classes, "model.py lost its classes?"
        for node in classes:
            assert list(check_module_wiring(node, "src/repro/core/model.py")) == []

    def test_flags_miswired_model(self):
        source = textwrap.dedent(
            """\
            import numpy as np
            from repro.nn import LSTM, MLP, LeakyReLU, Linear, Module, cross_match
            from repro.autograd import Tensor, concat

            class Bad(Module):
                def __init__(self, config=None):
                    super().__init__()
                    self.config = config
                    d = self.config.hidden_dim
                    d_hat = self.config.embed_dim
                    self.point_embed = Linear(2, d_hat)
                    self.act = LeakyReLU(0.1)
                    self.lstm = LSTM(d_hat, d)  # BUG: 2*d_hat when matching
                    self.mlp = MLP([d + 1, d, d])  # BUG: off-by-one head

                def forward_pair(self, pa, ma, pb, mb):
                    x_a = self.act(self.point_embed(Tensor(pa)))
                    x_b = self.act(self.point_embed(Tensor(pb)))
                    if self.config.matching:
                        (m_ab, _), _ = cross_match(x_a, x_b, mask_a=ma, mask_b=mb)
                        in_a = concat([x_a, m_ab], axis=-1)
                    else:
                        in_a = x_a
                    z_a, _ = self.lstm(in_a, mask=ma)
                    return self.mlp(z_a)
            """
        )
        tree = ast.parse(source)
        cls = next(n for n in tree.body if isinstance(n, ast.ClassDef))
        violations = list(check_module_wiring(cls, "bad.py"))
        assert violations
        assert all(v.rule == "S001" for v in violations)
        # Both the matching-branch LSTM mismatch and the MLP head mismatch
        # must surface.
        text = " ".join(v.message for v in violations)
        assert "lstm" in text.lower() or "LSTM" in text
        assert "mlp" in text.lower() or "MLP" in text

    def test_flags_miswired_head(self):
        """The same off-by-one MLP, applied in ``head`` to rows gathered
        from the states ``forward_pair`` returns."""
        source = textwrap.dedent(
            """\
            import numpy as np
            from repro.nn import LSTM, MLP, LeakyReLU, Linear, Module, cross_match
            from repro.autograd import Tensor, concat

            class BadHead(Module):
                def __init__(self, config=None):
                    super().__init__()
                    self.config = config
                    d = self.config.hidden_dim
                    d_hat = self.config.embed_dim
                    self.point_embed = Linear(2, d_hat)
                    self.act = LeakyReLU(0.1)
                    self.lstm = LSTM(2 * d_hat if self.config.matching else d_hat, d)
                    self.mlp = MLP([d + 1, d, d])  # BUG: off-by-one head

                def forward_pair(self, pa, ma, pb, mb):
                    x_a = self.act(self.point_embed(Tensor(pa)))
                    x_b = self.act(self.point_embed(Tensor(pb)))
                    if self.config.matching:
                        (m_a, _), (m_b, _) = cross_match(x_a, x_b, mask_a=ma, mask_b=mb)
                        x_a = concat([x_a, m_a], axis=-1)
                        x_b = concat([x_b, m_b], axis=-1)
                    z_a, _ = self.lstm(x_a, mask=ma)
                    z_b, _ = self.lstm(x_b, mask=mb)
                    return z_a, z_b

                def head(self, rows):
                    return self.mlp(rows)
            """
        )
        tree = ast.parse(source)
        cls = next(n for n in tree.body if isinstance(n, ast.ClassDef))
        violations = list(check_module_wiring(cls, "bad.py"))
        assert violations
        assert all(v.rule == "S001" for v in violations)
        # Only the head is miswired, in both matching scenarios.
        head_line = next(i for i, line in enumerate(source.splitlines(), 1) if "self.mlp(rows)" in line)
        assert {v.line for v in violations} == {head_line}
        assert all("self.mlp" in v.message for v in violations)
        assert {"config.matching=True" in v.message for v in violations} == {True, False}


class TestEntryPoints:
    def test_module_main_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        clean = tmp_path / "clean"
        _write(bad, "mod.py", "def f(t):\n    t.data += 1\n")
        _write(clean, "mod.py", "def f(t):\n    '''Doc.'''\n    return t\n")
        assert analysis_main([str(bad), "--rules", "R002"]) == 1
        assert analysis_main([str(clean), "--rules", "R002"]) == 0
        capsys.readouterr()

    def test_module_main_json_output(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        _write(bad, "mod.py", "def f(t):\n    t.data += 1\n")
        assert analysis_main([str(bad), "--rules", "R002", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["violations"][0]["rule"] == "R002"
        assert data["violations"][0]["line"] == 2

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R002", "R003", "R004", "R005", "R006", "R007", "S001"):
            assert rule_id in out

    def test_missing_path_is_an_error(self, tmp_path, capsys):
        """A typo'd target must not silently pass the gate."""
        assert analysis_main([str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err
        with pytest.raises(FileNotFoundError):
            run_analysis([tmp_path / "nope"], root=tmp_path)

    def test_unknown_rule_id_is_an_error(self, tmp_path, capsys):
        _write(tmp_path, "mod.py", "X = 1\n")
        assert analysis_main([str(tmp_path), "--rules", "R999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_unparseable_file_is_reported_not_crashed(self, tmp_path):
        _write(tmp_path, "syntax.py", "def broken(:\n")
        report = run_analysis([tmp_path], root=tmp_path, rules=["R001"])
        assert not report.ok
        assert report.violations[0].rule == "P000"
        assert report.violations[0].path == "syntax.py"

    def test_cli_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        bad = tmp_path / "bad"
        clean = tmp_path / "clean"
        _write(bad, "mod.py", "import numpy as np\nx = np.random.rand(3)\n")
        _write(clean, "mod.py", "X = 1\n")
        assert cli_main(["lint", str(bad), "--rules", "R001"]) == 1
        assert cli_main(["lint", str(clean), "--rules", "R001"]) == 0
        capsys.readouterr()


class TestProfilingSessionRule:
    """R009: profiling sessions must be stopped via `with` or `finally`."""

    def test_flags_unmatched_start(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            from repro.obs import StackSampler

            def profile():
                sampler = StackSampler(hz=50)
                sampler.start()
                return sampler
            """,
        )
        report = run_analysis([tmp_path], root=tmp_path, rules=["R009"])
        assert [(v.rule, v.line) for v in report.violations] == [("R009", 5)]
        assert "sampler.stop()" in report.violations[0].message

    def test_flags_bare_tracemalloc_and_chained_start(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            import tracemalloc
            from repro.obs import StackSampler

            def leak():
                tracemalloc.start()
                StackSampler(hz=5).start()
            """,
        )
        report = run_analysis([tmp_path], root=tmp_path, rules=["R009"])
        assert [(v.rule, v.line) for v in report.violations] == [
            ("R009", 5),
            ("R009", 6),
        ]
        assert "tracemalloc" in report.violations[0].message
        assert "chained" in report.violations[1].message

    def test_flags_enable_without_disable(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            from repro.obs import MemoryTracker

            def leak():
                tracker = MemoryTracker()
                tracker.enable()
            """,
        )
        report = run_analysis([tmp_path], root=tmp_path, rules=["R009"])
        assert len(report.violations) == 1
        assert "tracker.disable()" in report.violations[0].message

    def test_try_finally_and_with_are_fine(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            import tracemalloc
            from repro.obs import MemoryTracker, StackSampler

            def guarded():
                sampler = StackSampler(hz=50)
                tracker = MemoryTracker()
                try:
                    sampler.start()
                    tracker.enable()
                    tracemalloc.start()
                finally:
                    sampler.stop()
                    tracker.disable()
                    tracemalloc.stop()

            def managed():
                with StackSampler(hz=50) as sampler:
                    with MemoryTracker():
                        return sampler.samples
            """,
        )
        assert run_analysis([tmp_path], root=tmp_path, rules=["R009"]).ok

    def test_conditional_constructor_is_tracked(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            from repro.obs import OpProfiler

            def maybe(flag):
                profiler = OpProfiler() if flag else None
                profiler.enable()
            """,
        )
        report = run_analysis([tmp_path], root=tmp_path, rules=["R009"])
        assert len(report.violations) == 1

    def test_inline_allow_suppresses(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            """\
            from repro.obs import StackSampler

            def owner():
                sampler = StackSampler(hz=50)
                sampler.start()  # lint: allow(R009)
                return sampler
            """,
        )
        report = run_analysis([tmp_path], root=tmp_path, rules=["R009"])
        assert report.ok
        assert report.suppressed_count == 1
