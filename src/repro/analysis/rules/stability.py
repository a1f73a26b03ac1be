"""N001–N004 — numerical-stability rules for the training math.

The reproduction's losses and attention kernels run through ``exp``,
``log``, ``sqrt`` and normalising divisions — exactly the primitives that
overflow, return NaN, or blow up gradients when fed unguarded input.  Each
rule encodes one guard idiom the codebase already uses, so a site is clean
when it follows the established pattern and flagged when it forgot:

- **N001** ``exp`` on unbounded input: safe after max-subtraction (the
  softmax idiom, also in place as ``s -= row_max``), an explicit clip, or
  when the argument is provably non-positive (e.g. ``-np.abs(x)``,
  ``-dist`` for a distance).
- **N002** ``log``/``sqrt`` without an epsilon guard: safe with ``+ eps``,
  ``np.maximum(x, c)`` with positive ``c``, a positive-low clip, or (for
  ``sqrt``) a provably non-negative argument such as a sum of squares.
- **N003** division by a computed sum/norm: safe with ``+ eps``,
  ``np.maximum``, or the ``np.where(d == 0, 1, d)`` fallback idiom.
- **N004** float equality on tensor data: ``==`` against ``.data`` or a
  non-zero float constant is almost always a masked epsilon comparison
  (``== 0.0`` sentinel guards are exempt).

The analysis is a per-function, flow-insensitive taint pass over local
assignments: names bound to ``.max(...)`` results count as max-subtraction
material, names bound to sums/norms taint the denominators they feed, and
the ``np.where`` guard idioms launder the taint away.  It is deliberately
conservative in the *safe* direction for recognised idioms and noisy
otherwise — an intentional unguarded site carries a one-line
``# lint: allow(Nxxx)`` justification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set

from ..engine import FileContext
from ..registry import register
from ..violations import Violation

__all__ = [
    "check_unguarded_exp",
    "check_unguarded_log_sqrt",
    "check_unguarded_division",
    "check_float_equality",
]

#: Largest constant accepted as an epsilon (guards use 1e-12 ... 1e-2).
_EPS_MAX = 1e-2


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _is_np_call(node: ast.AST, *names: str) -> bool:
    """Whether ``node`` is ``np.<name>(...)`` (or ``numpy.<name>``)."""
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted(node.func)
    return dotted is not None and any(
        dotted in (f"np.{n}", f"numpy.{n}") for n in names
    )


def _is_method_call(node: ast.AST, *names: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
    )


def _is_eps_like(node: ast.AST) -> bool:
    """A name/attribute containing "eps" or a small positive constant."""
    if isinstance(node, ast.Name):
        return "eps" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "eps" in node.attr.lower()
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return 0.0 < node.value <= _EPS_MAX
    return False


def _is_positive_const(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value > 0
    )


def _is_neg_inf(node: ast.AST) -> bool:
    """``-np.inf`` — the masked-softmax sentinel, a safe exp argument."""
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and _dotted(node.operand) in ("np.inf", "numpy.inf")
    )


@dataclass
class _Env:
    """Flow-insensitive taint facts about one function's locals."""

    max_like: Set[str] = field(default_factory=set)  #: bound to .max(...)
    max_subtracted: Set[str] = field(default_factory=set)  #: x - x.max()
    nonneg: Set[str] = field(default_factory=set)  #: provably >= 0
    sum_tainted: Set[str] = field(default_factory=set)  #: sums/norms
    guarded: Set[str] = field(default_factory=set)  #: laundered denominators


def _is_max_call(node: ast.AST) -> bool:
    return _is_method_call(node, "max", "amax") or _is_np_call(node, "max", "amax")


def _is_max_like(node: ast.AST, env: _Env) -> bool:
    """A ``.max(...)`` call or a name bound to one — what may be subtracted."""
    return _is_max_call(node) or (isinstance(node, ast.Name) and node.id in env.max_like)


def _is_sum_call(node: ast.AST, env: _Env) -> bool:
    """A sum/mean/std/norm expression — the N003 denominator taint."""
    if isinstance(node, ast.Name):
        return node.id in env.sum_tainted
    if _is_method_call(node, "sum", "mean", "std"):
        return True
    if _is_np_call(node, "sum", "mean", "std"):
        return True
    if isinstance(node, ast.Call) and _dotted(node.func) in (
        "np.linalg.norm",
        "numpy.linalg.norm",
    ):
        return True
    if _is_np_call(node, "sqrt") and node.args:
        return _is_sum_call(node.args[0], env)
    return False


def _is_where_guard(node: ast.AST) -> bool:
    """``np.where(d == 0, 1, d)`` / ``np.where(d < eps, 1, d)`` laundering."""
    if not _is_np_call(node, "where") or len(node.args) != 3:
        return False
    test = node.args[0]
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return False
    if not isinstance(test.ops[0], (ast.Eq, ast.Lt, ast.LtE)):
        return False
    threshold = test.comparators[0]
    is_zero = isinstance(threshold, ast.Constant) and threshold.value == 0
    return is_zero or _is_eps_like(threshold)


def _is_finite_passthrough(node: ast.AST, env: _Env) -> bool:
    """``np.where(np.isfinite(m), m, c)`` keeps ``m``'s max-like status."""
    if not _is_np_call(node, "where") or len(node.args) != 3:
        return False
    test, then, _ = node.args
    if not _is_np_call(test, "isfinite"):
        return False
    return isinstance(then, ast.Name) and then.id in env.max_like


def _nonneg(node: ast.AST, env: _Env) -> bool:
    """Provably non-negative expression (squares, abs, sums thereof)."""
    if isinstance(node, ast.Constant):
        return (
            isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
            and node.value >= 0
        )
    if isinstance(node, ast.Name):
        return node.id in env.nonneg
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            exp = node.right
            return (
                isinstance(exp, ast.Constant)
                and isinstance(exp.value, int)
                and exp.value % 2 == 0
            )
        if isinstance(node.op, ast.Mult):
            if ast.dump(node.left) == ast.dump(node.right):
                return True  # x * x
            return _nonneg(node.left, env) and _nonneg(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Div)):
            return _nonneg(node.left, env) and _nonneg(node.right, env)
        return False
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        return _nonneg(node.elt, env)
    if isinstance(node, ast.Call):
        if _is_np_call(node, "abs", "square", "exp"):
            return True
        if isinstance(node.func, ast.Name) and node.func.id == "abs":
            return True
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("float", "sum")
            and node.args
        ):
            # float(x) preserves sign; builtin sum of nonneg terms is nonneg.
            return _nonneg(node.args[0], env)
        if _is_np_call(node, "sqrt") and node.args:
            return True  # sqrt output is >= 0 whenever it is finite
        if _is_method_call(node, "sqrt", "exp", "abs"):
            return True
        if _is_method_call(node, "sum", "mean") and isinstance(
            node.func, ast.Attribute
        ):
            return _nonneg(node.func.value, env)
        if _is_np_call(node, "sum", "mean", "take_along_axis") and node.args:
            return _nonneg(node.args[0], env)
        if _is_np_call(node, "maximum") and len(node.args) == 2:
            return any(_nonneg(a, env) for a in node.args)
        return False
    return False


def _nonpositive(node: ast.AST, env: _Env) -> bool:
    if _is_neg_inf(node):
        return True
    if isinstance(node, ast.Constant):
        return (
            isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
            and node.value <= 0
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _nonneg(node.operand, env)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        for a, b in ((node.left, node.right), (node.right, node.left)):
            if _nonneg(a, env) and _nonpositive(b, env):
                return True
    return False


def _exp_safe(node: ast.AST, env: _Env) -> bool:
    """Whether an ``exp`` argument is bounded above."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Name) and node.id in env.max_subtracted:
        return True
    if _nonpositive(node, env):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        if _is_max_like(node.right, env):
            return True
    if _is_np_call(node, "clip", "minimum"):
        return True
    if _is_method_call(node, "clip"):
        return True
    if _is_np_call(node, "where") and len(node.args) == 3:
        return _exp_safe(node.args[1], env) and _exp_safe(node.args[2], env)
    return False


def _eps_guarded(node: ast.AST) -> bool:
    """``x + eps`` / ``np.maximum(x, c)`` / positive-low clip idioms."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_eps_like(node.left) or _is_eps_like(node.right)
    if _is_np_call(node, "maximum") and len(node.args) == 2:
        return any(
            _is_positive_const(a) or _is_eps_like(a) for a in node.args
        )
    if _is_np_call(node, "clip") and len(node.args) >= 2:
        return _is_positive_const(node.args[1]) or _is_eps_like(node.args[1])
    return False


def _log_safe(node: ast.AST, env: _Env) -> bool:
    return _is_positive_const(node) or _eps_guarded(node)


def _sqrt_safe(node: ast.AST, env: _Env) -> bool:
    return _log_safe(node, env) or _nonneg(node, env)


def _div_guarded(node: ast.AST, env: _Env) -> bool:
    if _eps_guarded(node):
        return True
    if _is_where_guard(node):
        return True
    return isinstance(node, ast.Name) and node.id in env.guarded


def _build_env(scope: ast.AST) -> _Env:
    """Collect taint facts from every assignment in the scope, in order."""
    env = _Env()
    assigns: List[ast.AST] = [
        n
        for n in ast.walk(scope)
        if isinstance(n, (ast.Assign, ast.AugAssign, ast.Expr))
    ]
    assigns.sort(key=lambda n: n.lineno)
    for node in assigns:
        if isinstance(node, ast.Expr):
            # In-place clamp: np.maximum(d2, 0.0, out=d2) makes d2 nonneg.
            call = node.value
            if _is_np_call(call, "maximum", "clip") and any(
                _nonneg(a, env) for a in call.args[1:]
            ):
                for kw in call.keywords:
                    if kw.arg == "out" and isinstance(kw.value, ast.Name):
                        env.nonneg.add(kw.value.id)
            continue
        if isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name) and isinstance(node.op, ast.Add):
                # total += nonneg keeps a nonneg accumulator nonneg.
                if node.target.id in env.nonneg and not _nonneg(node.value, env):
                    env.nonneg.discard(node.target.id)
            if isinstance(node.target, ast.Name):
                # In-place shift: s -= s.max(...) (or a max-like name) makes
                # s max-subtracted, as the in-place clamp above makes d2
                # nonneg.  Normalising (s /= denom) keeps it; any other
                # update could push s back up and undoes it.
                if isinstance(node.op, ast.Sub) and _is_max_like(node.value, env):
                    env.max_subtracted.add(node.target.id)
                elif not isinstance(node.op, ast.Div):
                    env.max_subtracted.discard(node.target.id)
            continue
        value = node.value
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if not names:
            continue
        facts_max = _is_max_call(value) or _is_finite_passthrough(value, env)
        facts_maxsub = (
            isinstance(value, ast.BinOp)
            and isinstance(value.op, ast.Sub)
            and _is_max_like(value.right, env)
        )
        facts_nonneg = _nonneg(value, env)
        facts_guard = _is_where_guard(value) or _eps_guarded(value)
        facts_sum = _is_sum_call(value, env)
        for name in names:
            for bucket in (
                env.max_like,
                env.max_subtracted,
                env.nonneg,
                env.sum_tainted,
                env.guarded,
            ):
                bucket.discard(name)
            if facts_max:
                env.max_like.add(name)
            if facts_maxsub:
                env.max_subtracted.add(name)
            if facts_nonneg:
                env.nonneg.add(name)
            if facts_guard:
                env.guarded.add(name)
            elif facts_sum:
                env.sum_tainted.add(name)
    return env


def _scopes(ctx: FileContext):
    """(scope AST, nodes to inspect) pairs: each function, then module level.

    A function scope includes its nested closures (backward passes read the
    enclosing op's locals), so the env is built from the whole subtree.
    """
    covered: Set[int] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.FunctionDef) and id(node) not in covered:
            for inner in ast.walk(node):
                if isinstance(inner, ast.FunctionDef):
                    covered.add(id(inner))
            yield node
    # Module-level statements (constants tables etc.).
    module_only = ast.Module(
        body=[n for n in ctx.tree.body if not isinstance(n, (ast.FunctionDef, ast.ClassDef))],
        type_ignores=[],
    )
    yield module_only


def _violation(ctx: FileContext, node: ast.AST, rule: str, message: str) -> Violation:
    return Violation(
        path=ctx.rel,
        line=node.lineno,
        col=node.col_offset,
        rule=rule,
        message=message,
    )


@register(
    "N001",
    title="exp on unbounded input needs clip or max-subtraction",
    rationale=(
        "np.exp overflows to inf around x=710; softmax-style kernels must "
        "subtract the row max (or clip) before exponentiating"
    ),
)
def check_unguarded_exp(ctx: FileContext) -> Iterator[Violation]:
    """Flag ``np.exp(x)`` / ``x.exp()`` whose argument is not bounded above."""
    for scope in _scopes(ctx):
        env = _build_env(scope)
        for node in ast.walk(scope):
            if _is_np_call(node, "exp"):
                arg = node.args[0] if node.args else None
            elif _is_method_call(node, "exp") and not node.args:
                arg = node.func.value
            else:
                continue
            if arg is None or _exp_safe(arg, env):
                continue
            yield _violation(
                ctx,
                node,
                "N001",
                "exp of unbounded input: subtract the max (softmax idiom) "
                "or clip before exponentiating",
            )


@register(
    "N002",
    title="log/sqrt need an epsilon guard",
    rationale=(
        "log(0) and the gradient of sqrt at 0 are infinite; add `+ eps` or "
        "np.maximum(x, eps) unless the argument is provably positive"
    ),
)
def check_unguarded_log_sqrt(ctx: FileContext) -> Iterator[Violation]:
    """Flag ``log``/``sqrt`` whose argument has no epsilon guard."""
    for scope in _scopes(ctx):
        env = _build_env(scope)
        for node in ast.walk(scope):
            for fname, safe in (("log", _log_safe), ("sqrt", _sqrt_safe)):
                if _is_np_call(node, fname):
                    arg = node.args[0] if node.args else None
                elif _is_method_call(node, fname) and not node.args:
                    arg = node.func.value
                else:
                    continue
                if arg is None or safe(arg, env):
                    continue
                yield _violation(
                    ctx,
                    node,
                    "N002",
                    f"{fname} without an epsilon guard: use `x + eps` or "
                    "np.maximum(x, eps)",
                )


@register(
    "N003",
    title="division by a computed sum/norm needs an epsilon",
    rationale=(
        "normalising by a sum, mean or norm divides by zero on empty/padded "
        "rows; guard with `+ eps`, np.maximum, or a where-fallback"
    ),
)
def check_unguarded_division(ctx: FileContext) -> Iterator[Violation]:
    """Flag ``a / b`` where ``b`` is a sum/norm without a guard."""
    for scope in _scopes(ctx):
        env = _build_env(scope)
        for node in ast.walk(scope):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
                continue
            denom = node.right
            if not _is_sum_call(denom, env):
                continue
            if _div_guarded(denom, env):
                continue
            yield _violation(
                ctx,
                node,
                "N003",
                "division by a computed sum/norm without an epsilon guard",
            )


@register(
    "N004",
    title="no float equality on tensor data",
    rationale=(
        "== on floating-point tensor payloads is almost never exact; "
        "compare against a tolerance (== 0.0 sentinel guards are exempt)"
    ),
)
def check_float_equality(ctx: FileContext) -> Iterator[Violation]:
    """Flag ``==``/``!=`` against ``.data`` or a non-zero float constant."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        if not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            continue
        operands = [node.left, node.comparators[0]]
        # `.data` accesses that terminate the chain compare float payloads;
        # deeper chains (`self.data.size`) read int metadata and are exempt.
        inner_attrs = {
            id(sub.value)
            for operand in operands
            for sub in ast.walk(operand)
            if isinstance(sub, ast.Attribute)
        }
        touches_data = any(
            isinstance(sub, ast.Attribute)
            and sub.attr == "data"
            and id(sub) not in inner_attrs
            for operand in operands
            for sub in ast.walk(operand)
        )
        nonzero_float = any(
            isinstance(op, ast.Constant)
            and isinstance(op.value, float)
            and op.value != 0.0
            for op in operands
        )
        if touches_data or nonzero_float:
            yield _violation(
                ctx,
                node,
                "N004",
                "float equality on tensor data: use np.isclose or an "
                "explicit tolerance",
            )
