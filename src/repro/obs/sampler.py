"""Continuous wall-clock stack sampling: which *frames* burn the time.

The trace layer (:mod:`repro.obs.trace`) attributes time to sections
the author thought to instrument.  The sampler needs no such foresight:
a background thread snapshots every thread's Python stack via
``sys._current_frames()`` at a configurable rate and aggregates
identical stacks into counts, so the hot frames of an *uninstrumented*
path — the DP-metric recurrences, an accidental
quadratic in the batcher — surface with statistical weight proportional
to the wall time they actually consumed.

Design points:

- **Per-thread aggregation.**  ``sys._current_frames()`` returns one
  frame per live thread; each thread's stack is folded and counted
  separately, so a worker pool's stacks never interleave frames from
  two threads into one impossible call path.
- **Phase attribution.**  Each sample is joined to the request-scoped
  tracing layer: when the sampled thread has an open root trace
  (``serve.topk``, ``train.epoch``), that trace's name becomes the
  synthetic root frame of the folded stack, so flamegraphs split by the
  phase that paid for the time (see :meth:`Tracer.active_phases`).
- **Export formats.**  :meth:`StackSampler.folded` emits the classic
  collapsed-stack format (``root;child;leaf count`` — flamegraph.pl /
  inferno input) and :meth:`StackSampler.to_speedscope` a
  speedscope-loadable JSON document (one sampled profile per thread,
  shared frame table).
- **Overhead.**  Work per tick is one C-level frames snapshot plus a
  Python walk of each stack; at the default ~100 hz this stays well
  under the 5% budget asserted by ``tests/test_obs_sampler.py``.  The
  sampler's own thread is excluded from its samples.

Lifecycle is context-managed (``with StackSampler(hz=50) as s: ...``);
lint rule R009 flags ``start()`` calls with no guaranteed ``stop()``.

Determinism: aggregation is exercised in tests through the injectable
``frames_fn``/``clock`` hooks — feeding a fixed frame dict produces a
byte-identical folded snapshot, no live thread needed.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from .lockstats import new_lock
from .metrics import get_registry
from .trace import Tracer, get_tracer

__all__ = [
    "StackSampler",
    "format_top_frames",
    "merge_stacks",
    "top_frames",
]

#: Aggregated stacks for one thread: folded tuple (root first) -> samples.
_StackCounts = Dict[Tuple[str, ...], int]


def _frame_label(frame) -> str:
    """``module.function`` label for one frame (stable across samples)."""
    module = frame.f_globals.get("__name__") or frame.f_code.co_filename
    return f"{module}.{frame.f_code.co_name}"


class StackSampler:
    """Background wall-clock sampler over every live thread's stack.

    Parameters
    ----------
    hz:
        Target sampling rate.  The default (97) is deliberately not a
        round number so the sampler does not phase-lock with periodic
        work scheduled on whole milliseconds.
    max_depth:
        Stacks deeper than this keep their ``max_depth`` leaf-most
        frames under a ``<truncated>`` root (and are counted).
    clock / frames_fn / tracer:
        Injectable time source, frame provider and tracer — tests feed
        fixed frames through ``frames_fn`` for deterministic snapshots.
    """

    def __init__(
        self,
        hz: float = 97.0,
        max_depth: int = 64,
        clock: Callable[[], float] = time.perf_counter,
        frames_fn: Optional[Callable[[], Dict[int, object]]] = None,
        tracer: Optional[Tracer] = None,
    ):
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz}")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.hz = float(hz)
        self.max_depth = max_depth
        self._clock = clock
        self._frames_fn = frames_fn if frames_fn is not None else sys._current_frames
        self._tracer = tracer if tracer is not None else get_tracer()
        self._lock = new_lock("obs.sampler")
        self._counts: Dict[int, _StackCounts] = {}
        self._thread_names: Dict[int, str] = {}
        self._samples = 0
        self._truncated = 0
        self._seconds = 0.0
        self._started_at: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()

    # -- lifecycle ------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the background sampling thread is currently live."""
        with self._lock:
            return self._thread is not None

    def start(self) -> None:
        """Launch the background sampling thread (error if already live)."""
        thread = threading.Thread(target=self._loop, name="obs-sampler", daemon=True)
        # The event is its own synchroniser; touch it outside the lock.
        self._stop_event.clear()
        with self._lock:
            if self._thread is not None:
                raise RuntimeError("sampler already running")
            self._started_at = self._clock()
            self._thread = thread
        thread.start()

    def stop(self) -> None:
        """Stop and join the sampling thread (idempotent)."""
        with self._lock:
            thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        # Join outside the lock: the sampling loop takes it per sample.
        thread.join()
        with self._lock:
            self._thread = None
            if self._started_at is not None:
                self._seconds += self._clock() - self._started_at
                self._started_at = None

    def __enter__(self) -> "StackSampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _loop(self) -> None:
        interval = 1.0 / self.hz
        counter = get_registry().counter("obs.sampler.samples")
        while not self._stop_event.wait(interval):
            counter.inc(self.sample_once())

    # -- sampling -------------------------------------------------------
    def sample_once(self) -> int:
        """Take one sample of every thread; returns how many were recorded.

        Normally driven by the background thread, but callable directly
        (tests, or embedding the sampler in an existing scheduler).
        """
        frames = self._frames_fn()
        phases = self._tracer.active_phases()
        with self._lock:
            own = self._thread.ident if self._thread is not None else None
        names = {t.ident: t.name for t in threading.enumerate()}
        updates: List[Tuple[int, Tuple[str, ...]]] = []
        truncated = 0
        for ident, frame in frames.items():
            if ident == own:
                continue
            stack: List[str] = []
            depth = 0
            while frame is not None:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            stack.reverse()  # root first, leaf last (folded order)
            if depth > self.max_depth:
                stack = ["<truncated>"] + stack[-self.max_depth :]
                truncated += 1
            phase = phases.get(ident)
            if phase is not None:
                stack.insert(0, phase)
            updates.append((ident, tuple(stack)))
        with self._lock:
            for ident, stack in updates:
                per_thread = self._counts.setdefault(ident, {})
                per_thread[stack] = per_thread.get(stack, 0) + 1
                name = names.get(ident)
                if name is not None:
                    self._thread_names[ident] = name
            self._samples += len(updates)
            self._truncated += truncated
        return len(updates)

    # -- reading --------------------------------------------------------
    @property
    def samples(self) -> int:
        """Total per-thread stack samples recorded so far."""
        with self._lock:
            return self._samples

    @property
    def seconds(self) -> float:
        """Wall time spent sampling across completed start/stop windows."""
        with self._lock:
            return self._seconds

    def counts(self) -> Dict[int, _StackCounts]:
        """Per-thread aggregated stacks: ``{ident: {stack tuple: n}}``."""
        with self._lock:
            return {ident: dict(stacks) for ident, stacks in self._counts.items()}

    def thread_names(self) -> Dict[int, str]:
        """Last observed thread name per sampled thread ident."""
        with self._lock:
            return dict(self._thread_names)

    def merged_stacks(self) -> Dict[str, int]:
        """Folded stacks merged across threads: ``{"a;b;c": count}``."""
        merged: Dict[str, int] = {}
        for stacks in self.counts().values():
            for stack, count in stacks.items():
                key = ";".join(stack)
                merged[key] = merged.get(key, 0) + count
        return merged

    def reset(self) -> None:
        """Drop every aggregated stack and counter (sampler keeps running)."""
        with self._lock:
            self._counts.clear()
            self._thread_names.clear()
            self._samples = 0
            self._truncated = 0
            self._seconds = 0.0

    # -- exports --------------------------------------------------------
    def folded(self) -> str:
        """Collapsed-stack text: one ``frame;frame;... count`` line per stack.

        The classic flamegraph.pl / inferno input format, merged across
        threads and sorted for deterministic output.
        """
        merged = self.merged_stacks()
        return "\n".join(f"{stack} {count}" for stack, count in sorted(merged.items()))

    def snapshot(self) -> dict:
        """JSON-ready summary persisted into run records.

        ``{"hz", "samples", "seconds", "truncated", "stacks": {fold: n},
        "threads": {ident: {"name", "samples"}}}``.
        """
        with self._lock:
            seconds = self._seconds
            if self._started_at is not None:
                seconds += self._clock() - self._started_at
            threads = {
                str(ident): {
                    "name": self._thread_names.get(ident, f"thread-{ident}"),
                    "samples": sum(stacks.values()),
                }
                for ident, stacks in self._counts.items()
            }
            truncated = self._truncated
            samples = self._samples
        return {
            "hz": self.hz,
            "samples": samples,
            "seconds": seconds,
            "truncated": truncated,
            "stacks": self.merged_stacks(),
            "threads": threads,
        }

    def to_speedscope(self, name: str = "repro-tmn profile") -> dict:
        """Speedscope file-format document: one sampled profile per thread.

        Each distinct folded stack becomes one sample whose weight is its
        count — losslessly loadable at https://www.speedscope.app (the
        temporal *order* of samples is not preserved; aggregation trades
        it for bounded memory).
        """
        frame_index: Dict[str, int] = {}
        frames: List[dict] = []

        def index_of(label: str) -> int:
            idx = frame_index.get(label)
            if idx is None:
                idx = frame_index[label] = len(frames)
                frames.append({"name": label})
            return idx

        profiles = []
        names = self.thread_names()
        for ident, stacks in sorted(self.counts().items()):
            samples = []
            weights = []
            for stack, count in sorted(stacks.items()):
                samples.append([index_of(label) for label in stack])
                weights.append(count)
            profiles.append(
                {
                    "type": "sampled",
                    "name": names.get(ident, f"thread-{ident}"),
                    "unit": "none",
                    "startValue": 0,
                    "endValue": sum(weights),
                    "samples": samples,
                    "weights": weights,
                }
            )
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "exporter": "repro-tmn",
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": profiles,
        }

    def write_speedscope(
        self, path: Union[str, Path], name: str = "repro-tmn profile"
    ) -> Path:
        """Serialise :meth:`to_speedscope` to ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_speedscope(name)) + "\n")
        return path

    def write_folded(self, path: Union[str, Path]) -> Path:
        """Write :meth:`folded` collapsed stacks to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.folded() + "\n")
        return path


# ----------------------------------------------------------------------
# Snapshot analysis: hot-frame tables over merged folded stacks.


def merge_stacks(*stack_dicts: Dict[str, int]) -> Dict[str, int]:
    """Merge several ``{fold: count}`` dicts by summing counts."""
    merged: Dict[str, int] = {}
    for stacks in stack_dicts:
        for fold, count in stacks.items():
            merged[fold] = merged.get(fold, 0) + count
    return merged


def top_frames(stacks: Dict[str, int], n: int = 10) -> List[dict]:
    """Hot frames of a ``{fold: count}`` dict, hottest self-time first.

    ``self`` counts samples where the frame was the leaf (it was
    executing); ``total`` counts samples where it appears anywhere on
    the stack (it or a callee was executing; recursion counted once).
    Works on a live :meth:`StackSampler.merged_stacks` result or on the
    ``stacks`` entry of a persisted snapshot read back from JSON.
    """
    self_counts: Dict[str, int] = {}
    total_counts: Dict[str, int] = {}
    for fold, count in stacks.items():
        frames = fold.split(";")
        leaf = frames[-1]
        self_counts[leaf] = self_counts.get(leaf, 0) + count
        for frame in set(frames):
            total_counts[frame] = total_counts.get(frame, 0) + count
    ranked = sorted(
        total_counts,
        key=lambda frame: (-self_counts.get(frame, 0), -total_counts[frame], frame),
    )
    return [
        {
            "frame": frame,
            "self": self_counts.get(frame, 0),
            "total": total_counts[frame],
        }
        for frame in ranked[:n]
    ]


def format_top_frames(stacks: Dict[str, int], n: int = 10) -> str:
    """Render :func:`top_frames` as an aligned text table."""
    rows = top_frames(stacks, n=n)
    if not rows:
        return "(no samples recorded)"
    grand_total = sum(stacks.values())
    lines = [f"{'self':>6s} {'self%':>6s} {'total':>6s}  frame"]
    for row in rows:
        share = row["self"] / grand_total if grand_total else 0.0
        lines.append(
            f"{row['self']:>6d} {share * 100:>5.1f}% {row['total']:>6d}  {row['frame']}"
        )
    return "\n".join(lines)
