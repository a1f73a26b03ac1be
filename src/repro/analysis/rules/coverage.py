"""R003 — every differentiable op must be gradcheck-tested.

A hand-derived backward pass that is never compared against finite
differences is a gradient bug waiting to happen (the reproduction's fused
LSTM sequence kernel must agree with the composed per-step cell).
This rule statically cross-references the op catalogue against the test
suite: an op counts as covered when some test module both references the
op by name *and* calls ``check_gradients``/``numeric_gradient``.

Op catalogue: public functions of ``repro/autograd/ops.py`` plus the fused
kernels in ``repro/nn/fused.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

from ..engine import FileContext, ProjectContext
from ..registry import register
from ..violations import Violation

__all__ = ["check_gradcheck_coverage", "differentiable_ops", "covered_ops"]

#: Modules (relative to the package root) whose public functions are ops.
_OP_MODULES = ("autograd/ops.py", "nn/fused.py")

#: Names whose presence marks a test as a gradient check.
_GRADCHECK_NAMES = {"check_gradients", "numeric_gradient"}

#: Operators appearing inside a gradcheck-bearing test exercise the Tensor
#: dunder that implements them, so D001 can credit `a - b` to `__sub__`.
_OPERATOR_DUNDERS = {
    ast.Add: "__add__",
    ast.Sub: "__sub__",
    ast.Mult: "__mul__",
    ast.Div: "__truediv__",
    ast.MatMult: "__matmul__",
    ast.Pow: "__pow__",
}


def differentiable_ops(project: ProjectContext) -> List[Tuple[FileContext, str, int]]:
    """(file, op name, def line) for every public op in the catalogue modules."""
    ops: List[Tuple[FileContext, str, int]] = []
    for ctx in project.files:
        if not any(ctx.rel.endswith(suffix) for suffix in _OP_MODULES):
            continue
        for node in ctx.tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                ops.append((ctx, node.name, node.lineno))
    return ops


def _functions(tree: ast.Module):
    """Top-level test functions plus methods of test classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item


def covered_ops(tests_dir: Path) -> Set[str]:
    """Names referenced *inside a test function* that also runs a gradcheck.

    Granularity is per function, not per file: an op with only a
    forward-value test in a file that happens to gradcheck other ops does
    not count as covered.
    """
    covered: Set[str] = set()
    for path in sorted(tests_dir.glob("test_*.py")):
        try:
            tree = ast.parse(path.read_text())
        except SyntaxError:
            continue
        for func in _functions(tree):
            referenced: Set[str] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.BinOp):
                    dunder = _OPERATOR_DUNDERS.get(type(node.op))
                    if dunder is not None:
                        referenced.add(dunder)
                elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                    referenced.add("__neg__")
                elif isinstance(node, ast.Subscript):
                    referenced.add("__getitem__")
            if referenced & _GRADCHECK_NAMES:
                covered |= referenced
    return covered


@register(
    "R003",
    title="differentiable ops require a gradcheck test",
    rationale=(
        "hand-derived backward passes are only trustworthy when validated "
        "against central finite differences in the test suite"
    ),
    scope="project",
)
def check_gradcheck_coverage(project: ProjectContext) -> Iterator[Violation]:
    """Flag ops in the catalogue that no gradcheck-bearing test references."""
    if project.tests_dir is None or not project.tests_dir.is_dir():
        return
    ops = differentiable_ops(project)
    if not ops:
        return
    covered = covered_ops(project.tests_dir)
    for ctx, name, lineno in ops:
        if name not in covered:
            yield Violation(
                path=ctx.rel,
                line=lineno,
                col=0,
                rule="R003",
                message=(
                    f"differentiable op `{name}` has no gradcheck coverage: "
                    "no test module references it alongside "
                    "check_gradients/numeric_gradient"
                ),
            )
