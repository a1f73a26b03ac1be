"""JSONL run records: one file per training run, one event per line.

Schema (see DESIGN.md §9)::

    {"event": "run_start", "name": ..., "seed": ..., "metric": ...,
     "config": {...}, "ts": ...}
    {"event": "epoch", "epoch": 1, "loss": ..., "grad_norm": ...,
     "seconds": ..., "lr": ..., "spans": {path: {seconds, count}}}
    ...
    {"event": "run_end", "final_loss": ..., "eval": {...},
     "op_profile": {...}, "metrics": {...}, "ts": ...}

The writer appends and flushes line by line, so a crashed run still
leaves every completed epoch on disk.  :func:`read_run` parses a file
back into a :class:`RunRecord`; :func:`format_run` renders the
``repro-tmn report`` view.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .profile import format_op_table
from .sampler import format_top_frames

__all__ = ["RunRecord", "RunWriter", "format_run", "format_spans", "read_run"]


class RunWriter:
    """Writes one training run to ``path`` as JSONL, event by event.

    Usable as a context manager; :meth:`finish` (or ``__exit__``) writes
    the ``run_end`` line and closes the file.
    """

    def __init__(
        self,
        path: Union[str, Path],
        name: str,
        config: Optional[dict] = None,
        seed: Optional[int] = None,
        metric: Optional[str] = None,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "w")
        self._finished = False
        self._write(
            {
                "event": "run_start",
                "name": name,
                "seed": seed,
                "metric": metric,
                "config": config or {},
                "ts": time.time(),
            }
        )

    def _write(self, record: dict) -> None:
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()

    def write_epoch(self, record: dict) -> None:
        """Append one per-epoch record (the trainer's ``on_epoch`` payload)."""
        out = {"event": "epoch"}
        out.update(record)
        self._write(out)

    def finish(
        self,
        final_loss: Optional[float] = None,
        eval_scores: Optional[Dict[str, float]] = None,
        op_profile: Optional[dict] = None,
        metrics: Optional[dict] = None,
        sample_profile: Optional[dict] = None,
    ) -> None:
        """Write the ``run_end`` line and close the file (idempotent).

        ``sample_profile`` is a :meth:`repro.obs.sampler.StackSampler.snapshot`
        dict (aggregated wall-clock stacks from ``train --sample-hz``).
        """
        if self._finished:
            return
        self._write(
            {
                "event": "run_end",
                "final_loss": final_loss,
                "eval": eval_scores,
                "op_profile": op_profile,
                "sample_profile": sample_profile,
                "metrics": metrics,
                "ts": time.time(),
            }
        )
        self._file.close()
        self._finished = True

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.finish()


@dataclass
class RunRecord:
    """A parsed run-record file."""

    name: str
    seed: Optional[int]
    metric: Optional[str]
    config: dict
    epochs: List[dict] = field(default_factory=list)
    final: dict = field(default_factory=dict)

    @property
    def final_loss(self) -> Optional[float]:
        """Final loss from ``run_end``, falling back to the last epoch."""
        if self.final.get("final_loss") is not None:
            return self.final["final_loss"]
        if self.epochs:
            return self.epochs[-1].get("loss")
        return None


def read_run(path: Union[str, Path]) -> RunRecord:
    """Parse a JSONL run record written by :class:`RunWriter`."""
    path = Path(path)
    record: Optional[RunRecord] = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: bad JSONL line: {exc}") from None
        kind = event.get("event")
        if kind == "run_start":
            record = RunRecord(
                name=event.get("name", path.stem),
                seed=event.get("seed"),
                metric=event.get("metric"),
                config=event.get("config", {}),
            )
        elif record is None:
            raise ValueError(f"{path}: first event must be run_start, got {kind!r}")
        elif kind == "epoch":
            record.epochs.append(event)
        elif kind == "run_end":
            record.final = event
    if record is None:
        raise ValueError(f"{path}: no run_start event found")
    return record


def format_spans(totals: Dict[str, Dict[str, float]]) -> str:
    """Render span totals as an indented tree with seconds and counts."""
    if not totals:
        return "(no spans recorded)"
    lines = []
    for path in sorted(totals):
        stat = totals[path]
        depth = path.count("/")
        name = path.rsplit("/", 1)[-1]
        lines.append(
            f"{'  ' * depth}{name:<{24 - 2 * depth}s} "
            f"{stat['seconds']:10.4f}s  x{int(stat['count'])}"
        )
    return "\n".join(lines)


def format_run(record: RunRecord) -> str:
    """Pretty-print a run record (the ``repro-tmn report`` output)."""
    lines = [f"run: {record.name}"]
    if record.metric is not None:
        lines.append(f"metric: {record.metric}")
    if record.seed is not None:
        lines.append(f"seed: {record.seed}")
    if record.config:
        lines.append("config:")
        for key in sorted(record.config):
            lines.append(f"  {key} = {record.config[key]}")
    if record.epochs:
        lines.append("")
        lines.append(f"{'epoch':>5s} {'loss':>12s} {'grad_norm':>12s} {'seconds':>9s}")
        for e in record.epochs:
            grad = e.get("grad_norm")
            lines.append(
                f"{e.get('epoch', '?'):>5} "
                f"{_num(e.get('loss')):>12s} {_num(grad):>12s} "
                f"{_num(e.get('seconds'), '.2f'):>9s}"
            )
        last_spans = record.epochs[-1].get("spans")
        if last_spans:
            lines.append("")
            lines.append("last-epoch span breakdown:")
            lines.append(format_spans(last_spans))
    if record.final.get("eval"):
        lines.append("")
        lines.append("eval:")
        for key, value in record.final["eval"].items():
            lines.append(f"  {key}: {_num(value)}")
    if record.final.get("final_loss") is not None:
        lines.append(f"final loss: {_num(record.final['final_loss'])}")
    totals = _aggregate_spans(record.epochs)
    if totals:
        lines.append("")
        lines.append("run span totals (all epochs):")
        lines.append(format_spans(totals))
    if record.final.get("metrics"):
        metric_lines = _format_metrics(record.final["metrics"])
        if metric_lines:
            lines.append("")
            lines.append("metrics:")
            lines.extend(metric_lines)
    sample_profile = record.final.get("sample_profile")
    op_profile = record.final.get("op_profile")
    if sample_profile or op_profile:
        # One unified section for both profiling views: the wall-clock
        # sampler (where time went, any code) and the autograd op
        # profiler (which ops, forward vs backward).
        lines.append("")
        lines.append("hot paths:")
        if sample_profile:
            stacks = sample_profile.get("stacks", {})
            lines.append(
                f"  sampled stacks ({int(sample_profile.get('samples', 0))} "
                f"sample(s) at {sample_profile.get('hz', 0.0):g} hz):"
            )
            for line in format_top_frames(stacks).splitlines():
                lines.append(f"  {line}")
        if op_profile:
            lines.append("  op profile:")
            for line in format_op_table(op_profile).splitlines():
                lines.append(f"  {line}")
    return "\n".join(lines)


def _aggregate_spans(epochs: List[dict]) -> Dict[str, Dict[str, float]]:
    """Sum per-epoch span breakdowns into whole-run totals."""
    totals: Dict[str, Dict[str, float]] = {}
    for epoch in epochs:
        for path, stat in (epoch.get("spans") or {}).items():
            agg = totals.setdefault(path, {"seconds": 0.0, "count": 0})
            agg["seconds"] += stat.get("seconds", 0.0)
            agg["count"] += stat.get("count", 0)
    return totals


def _format_metrics(metrics: Dict[str, dict]) -> List[str]:
    """Render a registry snapshot: serve-side derived rates first, then all.

    Serve-specific derivations (cache hit rate, degraded/dropped counts,
    batch-size distribution) are surfaced explicitly because they are
    the numbers the serving SLOs are stated over; every other instrument
    renders generically by kind.
    """
    lines: List[str] = []

    def value_of(name: str) -> Optional[float]:
        data = metrics.get(name)
        return data.get("value") if isinstance(data, dict) else None

    hits = value_of("serve.cache.hits")
    misses = value_of("serve.cache.misses")
    if hits is not None or misses is not None:
        hits = hits or 0.0
        misses = misses or 0.0
        total = hits + misses
        rate = hits / total if total else 0.0
        lines.append(
            f"  serve cache: {int(hits)} hit(s) / {int(total)} lookup(s) "
            f"(hit rate {rate:.1%})"
        )
    degraded = value_of("serve.query.degraded")
    requests = value_of("serve.query.requests")
    if requests is not None:
        lines.append(
            f"  serve queries: {int(requests)} request(s), "
            f"{int(degraded or 0)} degraded, "
            f"{int(value_of('serve.query.deadline_missed') or 0)} deadline miss(es)"
        )
    batch = metrics.get("serve.batch.size")
    if isinstance(batch, dict) and batch.get("count"):
        lines.append(
            f"  serve batches: {int(batch['count'])} flush(es), size "
            f"mean {batch.get('mean', 0.0):.1f} "
            f"p50 {batch.get('p50', 0.0):.0f} max {batch.get('max', 0.0):.0f}"
        )
    for name in sorted(metrics):
        data = metrics[name]
        if not isinstance(data, dict):
            continue
        kind = data.get("type")
        if kind == "counter":
            lines.append(f"  {name} = {_num(data.get('value'), 'g')}")
        elif kind == "gauge" and data.get("value") is not None:
            lines.append(f"  {name} = {_num(data.get('value'), 'g')}")
        elif kind == "histogram" and data.get("count"):
            lines.append(
                f"  {name}: n={int(data['count'])} mean={data.get('mean', 0.0):.6g} "
                f"p50={data.get('p50', 0.0):.6g} p99={data.get('p99', 0.0):.6g}"
            )
    return lines


def _num(value, spec: str = ".6f") -> str:
    if value is None:
        return "-"
    return format(float(value), spec)
