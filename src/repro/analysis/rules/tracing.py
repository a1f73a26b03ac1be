"""R008/R010 — tracing tokens must be consumed, and shipped across shards.

**R008**: a ``span(...)`` / ``trace(...)`` / ``trace_span(...)`` call
whose result is discarded records *nothing*: the timing only happens
inside ``__enter__``/``__exit__``, so a bare call is always a silent
observability bug (the author believed a section was timed when it was
not).  Likewise calling ``__enter__`` directly bypasses the guaranteed
``__exit__`` and leaks an open span on the thread-local stack.

Flagged:

- an expression statement that is a bare span-like call —
  ``trace.span("x")`` / ``tracer.trace("x")`` / ``trace_span("x")`` /
  ``trace.handoff()`` with the result dropped;
- any direct ``something.__enter__()`` call.

Not flagged: ``with trace_span(...):``, results that are stored, returned,
passed as arguments, or otherwise consumed.  ``# lint: allow(R008)``
is the escape hatch for intentional cases.

**R010**: shard dispatch sites must propagate a
:class:`~repro.obs.trace.TraceContext`.  A worker request built as a
dict literal with ``"cmd"`` of ``"search"`` or ``"encode"`` that lacks
a ``"trace_ctx"`` key severs the cross-process trace: the worker
answers, but its subtree never existed, so the stitched ``serve.topk``
tree silently under-attributes that shard (the coordinator-side gap is
indistinguishable from IPC wait).  The key must be *present* even when
tracing is off — dispatchers ship ``None`` rather than dropping the
key, which keeps on/off wire shapes identical.  R010 also mirrors
R008's discarded-token check for ``capture_context(...)`` /
``Trace.context(...)`` results: a context token that is built and
dropped means someone intended to propagate and forgot.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext
from ..registry import register
from ..violations import Violation

__all__ = ["check_span_context_managers", "check_trace_context_propagation"]

#: Call names (plain or attribute) that produce span/trace context objects.
_SPAN_LIKE = {"span", "trace", "trace_span", "handoff"}


def _call_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


@register(
    "R008",
    title="span/trace objects must be context-managed",
    rationale=(
        "a span(...)/trace(...)/trace_span(...)/handoff() result that is "
        "neither entered via `with` nor stored records nothing — the "
        "timing lives in __enter__/__exit__ — so a discarded call is a "
        "silent observability bug; direct __enter__ calls leak open spans"
    ),
)
def check_span_context_managers(ctx: FileContext) -> Iterator[Violation]:
    """Flag discarded span-like calls and direct ``__enter__`` invocations."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            name = _call_name(node.value)
            if name in _SPAN_LIKE:
                yield Violation(
                    path=ctx.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="R008",
                    message=(
                        f"result of `{name}(...)` is discarded; enter it with "
                        "`with` (or store the token) so the span is recorded"
                    ),
                )
        elif isinstance(node, ast.Call) and _call_name(node) == "__enter__":
            yield Violation(
                path=ctx.rel,
                line=node.lineno,
                col=node.col_offset,
                rule="R008",
                message=(
                    "direct `__enter__()` call bypasses the guaranteed "
                    "`__exit__`; use a `with` block"
                ),
            )


#: Worker commands whose request dicts must carry the trace context.
_DISPATCH_CMDS = {"search", "encode"}

#: Call names that mint a TraceContext token meant to be propagated.
_CONTEXT_LIKE = {"capture_context", "context", "to_wire"}


def _const_str(node: ast.expr) -> str:
    """The string value of a constant-str AST node, else ``""``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ""


def _dict_keys(node: ast.Dict) -> set:
    """Constant string keys of a dict literal (``**spread`` keys are None)."""
    return {_const_str(key) for key in node.keys if key is not None}


def _is_dispatch_dict(node: ast.Dict) -> bool:
    """True when the literal is a worker request: ``{"cmd": "search"|"encode"}``."""
    for key, value in zip(node.keys, node.values):
        if key is not None and _const_str(key) == "cmd":
            return _const_str(value) in _DISPATCH_CMDS
    return False


@register(
    "R010",
    title="shard dispatch sites must propagate a TraceContext",
    rationale=(
        "a worker request dict with cmd=search/encode but no trace_ctx key "
        "severs the cross-process trace — the shard's subtree is silently "
        "never stitched, so the serve.topk tree under-attributes that shard; "
        "ship trace_ctx=None rather than dropping the key, and never mint a "
        "context token (capture_context/.context()/.to_wire()) just to "
        "discard it"
    ),
)
def check_trace_context_propagation(ctx: FileContext) -> Iterator[Violation]:
    """Flag dispatch dicts missing ``trace_ctx`` and dropped context tokens."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Dict):
            if _is_dispatch_dict(node) and "trace_ctx" not in _dict_keys(node):
                yield Violation(
                    path=ctx.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="R010",
                    message=(
                        "worker request dict has cmd=search/encode but no "
                        "`trace_ctx` key; propagate the TraceContext (use "
                        "`trace_ctx=None` when untraced) so the shard's "
                        "subtree can be stitched"
                    ),
                )
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            name = _call_name(node.value)
            if name in _CONTEXT_LIKE:
                yield Violation(
                    path=ctx.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="R010",
                    message=(
                        f"result of `{name}(...)` is discarded; a trace "
                        "context token exists to be shipped with a request — "
                        "attach it or delete the call"
                    ),
                )
