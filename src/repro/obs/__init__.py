"""repro.obs — structured run telemetry for the TMN reproduction.

The training loop is the part of the paper we must trust most, and
"runs as fast as the hardware allows" (ROADMAP) is only an honest claim
when the measurement layer exists first.  This package provides it:

- :mod:`repro.obs.metrics` — process-local registry of counters, gauges
  and histograms with snapshot/reset;
- :mod:`repro.obs.profile` — opt-in autograd op profiler (per-op call
  counts, forward/backward seconds), near-zero overhead when disabled;
- :mod:`repro.obs.log` — leveled structured logging, human lines on
  stderr plus an optional JSONL mirror;
- :mod:`repro.obs.run` — JSONL run records (config, seed, per-epoch
  loss/grad-norm/timing/span breakdown, final eval) written by
  ``repro-tmn train --log-json`` and rendered by ``repro-tmn report``;
- :mod:`repro.obs.trace` — the one span API: request-scoped traces
  (per-request span trees with per-path ``{seconds, count}`` totals —
  epoch → sampling / batch → forward/loss/backward/optimizer for the
  trainer — explicit cross-thread handoff and cross-process stitching
  via ``TraceContext``/``graft_subtree``, bounded recent-trace ring,
  JSONL trace log, critical-path rendering for ``repro-tmn trace``);
- :mod:`repro.obs.expo` — Prometheus-style text exposition over the
  registry (``repro-tmn metrics``), with scrape hooks for pull-time
  refresh and a ``shard`` label dimension over ``serve.shard.N.*``;
- :mod:`repro.obs.slo` — declarative SLOs (latency percentile, degraded
  rate, drop rate, per-shard imbalance and straggler rate) evaluated
  over the trace ring;
- :mod:`repro.obs.benchgate` — bench-regression gate diffing fresh bench
  JSON against committed baselines (``repro-tmn bench-diff``);
- :mod:`repro.obs.lockstats` — runtime lock sanitizer: instrumented
  ``SanitizedLock``/``SanitizedRLock`` shims behind the ``new_lock`` /
  ``new_rlock`` factories, a runtime lock-order graph that raises on
  observed cycles, and hold/wait/contention metrics per named lock
  (``REPRO_LOCK_SANITIZE=1`` or ``pytest --sanitize``);
- :mod:`repro.obs.sampler` — background wall-clock stack sampler
  (``sys._current_frames`` at a configurable hz), per-thread aggregated
  stack counts with trace-phase attribution, folded + speedscope export
  (``repro-tmn profile-serve``);
- :mod:`repro.obs.memory` — memory accounting: RSS/peak-RSS gauges,
  opt-in tracemalloc allocation spans, and exact byte audits feeding the
  ``bytes_per_trajectory`` bench gate.

Overhead policy: always-on instrumentation (registry counters, batch-level
trace spans, the free-function op guard) must stay under a few hundred
nanoseconds per event; anything heavier (per-op timing) is opt-in and
documented as such.  See DESIGN.md §9.
"""

from .benchgate import BenchDiff, compare_bench, compare_bench_files
from .expo import (
    register_scrape_hook,
    render_exposition,
    run_scrape_hooks,
    unregister_scrape_hook,
)
from .lockstats import (
    LockOrderError,
    LockStats,
    SanitizedLock,
    SanitizedRLock,
    get_lockstats,
    held_lock_names,
    new_lock,
    new_rlock,
)
from .log import Logger, configure, get_logger
from .memory import (
    AllocSpan,
    MemoryTracker,
    alloc_span,
    format_memory,
    peak_rss_bytes,
    rss_bytes,
    tracking_active,
    update_memory_gauges,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, get_registry
from .profile import OpProfiler, OpStat, format_op_table
from .run import RunRecord, RunWriter, format_run, format_spans, read_run
from .sampler import StackSampler, format_top_frames, merge_stacks, top_frames
from .slo import SLO, SLOStatus, SLOViolation, check_slos, evaluate_slos, format_slos
from .trace import (
    Handoff,
    Trace,
    TraceContext,
    Tracer,
    annotate,
    begin_remote,
    capture_context,
    current_trace,
    export_subtree,
    format_trace,
    get_tracer,
    graft_subtree,
    read_trace_log,
    trace_span,
)

__all__ = [
    "AllocSpan",
    "BenchDiff",
    "Counter",
    "Gauge",
    "Handoff",
    "Histogram",
    "LockOrderError",
    "LockStats",
    "Logger",
    "MemoryTracker",
    "MetricsRegistry",
    "OpProfiler",
    "OpStat",
    "RunRecord",
    "RunWriter",
    "SLO",
    "SLOStatus",
    "SLOViolation",
    "SanitizedLock",
    "SanitizedRLock",
    "StackSampler",
    "Trace",
    "TraceContext",
    "Tracer",
    "alloc_span",
    "annotate",
    "begin_remote",
    "capture_context",
    "check_slos",
    "compare_bench",
    "compare_bench_files",
    "configure",
    "current_trace",
    "evaluate_slos",
    "export_subtree",
    "format_memory",
    "format_op_table",
    "format_run",
    "format_slos",
    "format_spans",
    "format_top_frames",
    "format_trace",
    "get_lockstats",
    "get_logger",
    "get_registry",
    "get_tracer",
    "graft_subtree",
    "held_lock_names",
    "merge_stacks",
    "new_lock",
    "new_rlock",
    "peak_rss_bytes",
    "read_run",
    "read_trace_log",
    "register_scrape_hook",
    "render_exposition",
    "rss_bytes",
    "run_scrape_hooks",
    "top_frames",
    "trace_span",
    "tracking_active",
    "unregister_scrape_hook",
    "update_memory_gauges",
]
