"""Opt-in autograd op profiler: per-op call counts and forward/backward time.

While enabled, every autodiff op is timed at its outer boundary:

- **Tensor methods** (``__add__``, ``__matmul__``, ``sum``, ...) are
  intercepted by patching the method on the :class:`~repro.autograd.Tensor`
  class — dunder dispatch and attribute lookup both go through the class,
  so every call site is caught and a disabled profiler costs literally
  nothing;
- **free-function ops** (``softmax``, ``concat``, ``fused_lstm_sequence``,
  ...) are bound by name at their import sites, so they instead carry the
  definition-site guard :func:`repro.autograd.profiled_op`, whose disabled
  cost is one global read per call.

Forward time is wall time of the op body (inclusive: composite ops such as
``mean`` also count their inner ``sum``).  Backward time is exact per
closure: the profiler wraps each produced node's ``_backward`` so the time
spent inside it during :meth:`Tensor.backward` is attributed to the op
that created the node.  Wrapping changes no values — gradcheck results are
bit-identical with the profiler on (covered by ``tests/test_obs.py``).

Usage::

    with OpProfiler() as prof:
        trainer.fit(...)
    print(format_op_table(prof.snapshot()))
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Dict, List

from ..autograd import tensor as _tensor_mod
from ..autograd.tensor import Tensor
from .memory import MemoryTracker

__all__ = ["OpProfiler", "OpStat", "format_op_table"]

#: Tensor methods treated as ops.  ``__radd__``/``__rmul__`` alias the same
#: underlying functions but are patched under their own names so reflected
#: dispatch is caught too.
_TENSOR_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
    "__matmul__",
    "__getitem__",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "relu",
    "leaky_relu",
    "abs",
    "sum",
    "mean",
    "max",
    "reshape",
    "transpose",
    "swapaxes",
    "expand_dims",
    "squeeze",
    "broadcast_to",
)


class OpStat:
    """Accumulated profile of one op: calls, forward/backward seconds, bytes.

    ``total_bytes`` (net Python-heap allocation attributed to the op's
    forward bodies) stays 0 unless the profiler was built with
    ``track_memory=True``.
    """

    __slots__ = (
        "name",
        "calls",
        "forward_s",
        "backward_calls",
        "backward_s",
        "total_bytes",
    )

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.forward_s = 0.0
        self.backward_calls = 0
        self.backward_s = 0.0
        self.total_bytes = 0

    def to_dict(self) -> Dict[str, float]:
        """Serialisable snapshot (goes into the run record's ``op_profile``)."""
        return {
            "calls": self.calls,
            "forward_s": self.forward_s,
            "backward_calls": self.backward_calls,
            "backward_s": self.backward_s,
            "total_bytes": self.total_bytes,
        }


class OpProfiler:
    """Times every autograd op while enabled; see the module docstring.

    Off by default: construct, then either use as a context manager or
    call :meth:`enable`/:meth:`disable` explicitly.  Re-entrant enables
    are rejected — two live profilers would double-patch the class.

    With ``track_memory=True`` the profiler owns a
    :class:`~repro.obs.memory.MemoryTracker` for its enabled lifetime and
    attributes each op's net forward-allocation delta to its stat's
    ``total_bytes`` (tracemalloc roughly doubles allocation cost — the
    same opt-in economics as the timing patch itself).
    """

    def __init__(self, track_memory: bool = False):
        self._stats: Dict[str, OpStat] = {}
        self._originals: Dict[str, object] = {}
        self._memory = MemoryTracker() if track_memory else None
        self.track_memory = track_memory
        self.enabled = False

    # ------------------------------------------------------------------
    def enable(self) -> None:
        """Patch Tensor methods and install the free-function hook."""
        if self.enabled:
            raise RuntimeError("profiler already enabled")
        if _tensor_mod._PROFILER is not None:
            raise RuntimeError("another profiler is already active")
        for name in _TENSOR_OPS:
            original = getattr(Tensor, name)
            self._originals[name] = original
            setattr(Tensor, name, self._wrap_method(name, original))
        if self._memory is not None:
            # Disable() is the paired release; R009's with/finally
            # discipline is owed by our callers, who hold *us*.
            self._memory.enable()  # lint: allow(R009)
        _tensor_mod._set_profiler(self)
        self.enabled = True

    def disable(self) -> None:
        """Restore the pristine Tensor class and remove the hook."""
        if not self.enabled:
            return
        for name, original in self._originals.items():
            setattr(Tensor, name, original)
        self._originals.clear()
        _tensor_mod._set_profiler(None)
        if self._memory is not None:
            self._memory.disable()
        self.enabled = False

    def __enter__(self) -> "OpProfiler":
        self.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.disable()

    # ------------------------------------------------------------------
    def _stat(self, name: str) -> OpStat:
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = OpStat(name)
        return stat

    def _wrap_method(self, name: str, fn):
        def method(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        method.__name__ = name
        method.__qualname__ = f"Tensor.{name}"
        method.__doc__ = fn.__doc__
        return method

    def call(self, name: str, fn, args, kwargs):
        """Run one op under timing; wrap its outputs' backward closures.

        This is the single entry point both interception mechanisms feed
        (also invoked by :func:`repro.autograd.profiled_op`).
        """
        stat = self._stat(name)
        tracing = self.track_memory and tracemalloc.is_tracing()
        if tracing:
            bytes_before, _ = tracemalloc.get_traced_memory()
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        stat.forward_s += time.perf_counter() - start
        if tracing:
            bytes_after, _ = tracemalloc.get_traced_memory()
            stat.total_bytes += bytes_after - bytes_before
        stat.calls += 1
        if isinstance(out, Tensor):
            self._wrap_backward(stat, out)
        elif isinstance(out, tuple):
            for item in out:
                if isinstance(item, Tensor):
                    self._wrap_backward(stat, item)
        return out

    def _wrap_backward(self, stat: OpStat, node: Tensor) -> None:
        original = node._backward
        if original is None:
            return

        def timed_backward(grad):
            t0 = time.perf_counter()
            try:
                return original(grad)
            finally:
                stat.backward_s += time.perf_counter() - t0
                stat.backward_calls += 1

        node._backward = timed_backward

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{op name: {calls, forward_s, backward_calls, backward_s}}``."""
        return {name: self._stats[name].to_dict() for name in sorted(self._stats)}

    def reset(self) -> None:
        """Drop accumulated stats (patching state is untouched)."""
        self._stats.clear()


def format_op_table(snapshot: Dict[str, Dict[str, float]]) -> str:
    """Render a profiler snapshot as a text table sorted by total time.

    A ``total_bytes`` column appears when memory accounting was on (any
    op carries a nonzero byte total); old snapshots without the field
    render as before.
    """
    if not snapshot:
        return "(no ops profiled)"
    rows: List[tuple] = []
    for name, s in snapshot.items():
        total = s["forward_s"] + s["backward_s"]
        rows.append((total, name, s))
    rows.sort(reverse=True)
    with_bytes = any(s.get("total_bytes", 0) for _, _, s in rows)
    header = (
        f"{'op':<20s} {'calls':>8s} {'forward_s':>10s} {'bwd_calls':>10s} "
        f"{'backward_s':>11s} {'total_s':>9s}"
    )
    if with_bytes:
        header += f" {'total_bytes':>12s}"
    lines = [header]
    for total, name, s in rows:
        line = (
            f"{name:<20s} {int(s['calls']):>8d} {s['forward_s']:>10.4f} "
            f"{int(s['backward_calls']):>10d} {s['backward_s']:>11.4f} {total:>9.4f}"
        )
        if with_bytes:
            line += f" {int(s.get('total_bytes', 0)):>12d}"
        lines.append(line)
    return "\n".join(lines)
