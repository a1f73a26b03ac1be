"""Layer timers for the traced run.

The traced run wraps the public entry point of each layer with a timer,
from the benchmark's own files, and puts the originals back afterwards.
The program itself is not changed and its own tracing stays as shipped.

A hook names its target as ``(module, "Class.attr")`` or
``(module, "function")``.  A module-level function is replaced in every
loaded ``repro`` module that holds it, because callers bind it by
``from ... import``.  When a target no longer exists the hook is recorded
as missing: the metrics built on it are reported as ``null`` and the run
goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: Hook name -> (module, attribute path) of the wrapped layer entry point.
TARGETS: Dict[str, Tuple[str, str]] = {
    "sample": ("repro.core.sampling", "RankSampler.sample"),
    "pair_batch": ("repro.data.batching", "pair_batch"),
    "forward": ("repro.core.model", "TMN.forward_pair"),
    "point_embed": ("repro.core.model", "TMN.embed_points"),
    "cross_match": ("repro.nn", "cross_match"),
    "lstm": ("repro.nn", "LSTM.forward"),
    "mlp": ("repro.nn", "MLP.forward"),
    "backward": ("repro.autograd", "Tensor.backward"),
    "clip": ("repro.optim", "clip_grad_norm"),
    "adam": ("repro.optim", "Adam.step"),
    "cache_get": ("repro.serve.cache", "EmbeddingCache.get"),
    "hnsw_query": ("repro.index.hnsw", "HNSWIndex.query"),
    "hnsw_add": ("repro.index.hnsw", "HNSWIndex.add"),
    "degraded": ("repro.serve.engine", "exact_metric_topk"),
}


class LayerTimer:
    """Call counts and busy seconds per hook, split by benchmark phase.

    ``timed(name, fn)`` returns a wrapper that adds to the totals of the
    phase set by :meth:`phase`.  Only the outermost call of a hook on a
    thread is timed, so a recursive layer is not counted twice.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._totals: Dict[Tuple[str, str], List[float]] = {}
        self._current = "setup"
        self._restore: List[Callable[[], None]] = []
        self.missing: List[str] = []

    # -- recording ------------------------------------------------------
    def phase(self, name: str) -> None:
        self._current = name

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        key = (self._current, name)
        with self._lock:
            entry = self._totals.setdefault(key, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds

    def timed(self, name: str, fn: Callable) -> Callable:
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(local, name, False):
                return fn(*args, **kwargs)
            setattr(local, name, True)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - start)
                setattr(local, name, False)

        return wrapper

    def calls(self, name: str, *phases: str) -> int:
        return int(sum(self._totals.get((p, name), (0, 0.0))[0] for p in phases))

    def seconds(self, name: str, *phases: str) -> float:
        return float(sum(self._totals.get((p, name), (0, 0.0))[1] for p in phases))

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        for name, (module_name, path) in TARGETS.items():
            try:
                self._patch(name, importlib.import_module(module_name), path)
            except (ImportError, AttributeError):
                self.missing.append(name)

    def _patch(self, name: str, module, path: str) -> None:
        if "." in path:
            cls_name, attr = path.split(".", 1)
            cls = getattr(module, cls_name)
            original = getattr(cls, attr)
            own = attr in cls.__dict__
            saved = cls.__dict__.get(attr)
            setattr(cls, attr, self.timed(name, original))

            def restore(cls=cls, attr=attr, own=own, saved=saved):
                if own:
                    setattr(cls, attr, saved)
                else:
                    delattr(cls, attr)

            self._restore.append(restore)
            return
        original = getattr(module, path)
        wrapper = self.timed(name, original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append(
                        lambda mod=mod, attr=attr: setattr(mod, attr, original)
                    )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()
