"""R008 — span, trace and trace-context tokens must be consumed.

A ``span(...)`` / ``trace(...)`` / ``trace_span(...)`` call whose result
is discarded records *nothing*: the timing only happens inside
``__enter__``/``__exit__``, so a bare call is always a silent
observability bug (the author believed a section was timed when it was
not).  Likewise calling ``__enter__`` directly bypasses the guaranteed
``__exit__`` and leaks an open span on the thread-local stack.  A trace
*context* token (``capture_context(...)`` / ``Trace.context(...)`` /
``.to_wire()``) that is built and dropped means someone intended to
propagate a trace across a process and forgot.

Flagged:

- an expression statement that is a bare span-like or context-like
  call — ``trace.span("x")`` / ``tracer.trace("x")`` /
  ``trace_span("x")`` / ``trace.handoff()`` / ``capture_context(t)`` /
  ``trace.context()`` with the result dropped;
- any direct ``something.__enter__()`` call.

Not flagged: ``with trace_span(...):``, results that are stored, returned,
passed as arguments, or otherwise consumed.  ``# lint: allow(R008)``
is the escape hatch for intentional cases.  Shard requests cannot drop
their context at all: :meth:`repro.serve.shard.ProcessShard.request`
takes ``trace_ctx`` as a required keyword.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext
from ..registry import register
from ..violations import Violation

__all__ = ["check_span_context_managers"]

#: Call names (plain or attribute) that produce span/trace context objects.
_SPAN_LIKE = {"span", "trace", "trace_span", "handoff"}

#: Call names that mint a TraceContext token meant to be propagated.
_CONTEXT_LIKE = {"capture_context", "context", "to_wire"}


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
        "silent observability bug; direct __enter__ calls leak open spans; "
        "a trace context token (capture_context/.context()/.to_wire()) "
        "minted and dropped was meant to be shipped with a request"
    ),
)
def check_span_context_managers(ctx: FileContext) -> Iterator[Violation]:
    """Flag discarded span-like or context-like calls and direct ``__enter__``."""
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
            elif name in _CONTEXT_LIKE:
                yield Violation(
                    path=ctx.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="R008",
                    message=(
                        f"result of `{name}(...)` is discarded; a trace "
                        "context token exists to be shipped with a request — "
                        "attach it or delete the call"
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
