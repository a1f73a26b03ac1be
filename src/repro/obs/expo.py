"""Prometheus-style text exposition over the metrics registry.

Renders the numeric state of a :class:`~repro.obs.metrics.MetricsRegistry`
(or a serialised ``snapshot()`` of one, e.g. the ``metrics`` field of a
JSONL run record) in the Prometheus text format version 0.0.4: one
``# TYPE`` header per metric family, counters suffixed ``_total``,
histograms as summaries with ``quantile`` labels plus ``_sum``/``_count``
series.

The renderer is pure (dict in, text out) so output is deterministic for
a fixed snapshot — the property the exposition snapshot tests pin down.
``repro-tmn metrics`` is the CLI front-end.

Two fleet-telemetry extensions on top of the plain renderer:

- **Scrape hooks**: callables registered via :func:`register_scrape_hook`
  run before a *live* registry is rendered (snapshot-dict input stays
  pure).  The sharded server registers a TTL-throttled worker-registry
  refresh here, so ``serve.shard.N.*`` mirrors track live workers on
  every scrape instead of only moving when someone calls ``stats()``.
  Hooks must never break a scrape: exceptions are swallowed and counted.
- **Shard label dimension**: instrument names shaped
  ``serve.shard.<N>.<rest>`` render as one Prometheus family
  ``<prefix>_serve_shard_<rest>{shard="N"}`` instead of N distinct
  per-shard families, so fleet dashboards can aggregate across shards.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Dict, List, Optional, Tuple, Union

from .log import get_logger
from .metrics import MetricsRegistry, get_registry

__all__ = [
    "metric_name",
    "register_scrape_hook",
    "render_exposition",
    "run_scrape_hooks",
    "unregister_scrape_hook",
]

_LOG = get_logger("repro.obs.expo")

_INVALID = re.compile(r"[^a-zA-Z0-9_]")

#: Histogram quantiles exposed per summary family.
_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))

#: Instrument names carrying a shard dimension: ``serve.shard.<N>.<rest>``.
_SHARD_SERIES = re.compile(r"^serve\.shard\.(\d+)\.(.+)$")

# Scrape hooks run unlabelled-lock-free: a plain mutex guards only the
# list itself; hooks are invoked outside it so a hook may take arbitrary
# serving-layer locks without ordering against this one.
_HOOKS_LOCK = threading.Lock()
_SCRAPE_HOOKS: List[Callable[[], None]] = []


def register_scrape_hook(hook: Callable[[], None]) -> None:
    """Run ``hook()`` before every live-registry exposition render.

    Duplicate registrations collapse to one (idempotent), so re-entrant
    construction paths cannot stack refreshes.
    """
    with _HOOKS_LOCK:
        if hook not in _SCRAPE_HOOKS:
            _SCRAPE_HOOKS.append(hook)


def unregister_scrape_hook(hook: Callable[[], None]) -> None:
    """Remove a scrape hook; unknown hooks are ignored (idempotent)."""
    with _HOOKS_LOCK:
        if hook in _SCRAPE_HOOKS:
            _SCRAPE_HOOKS.remove(hook)


def run_scrape_hooks() -> int:
    """Invoke every registered scrape hook; returns how many succeeded.

    A failing hook is logged and skipped — a worker refresh that races a
    server shutdown must cost one stale scrape, never the scrape itself.
    """
    with _HOOKS_LOCK:
        hooks = list(_SCRAPE_HOOKS)
    ok = 0
    for hook in hooks:
        try:
            hook()
            ok += 1
        except Exception as exc:  # a scrape must survive any hook fault
            _LOG.warning("scrape-hook-failed", error=type(exc).__name__)
    return ok


def metric_name(name: str, prefix: str = "repro") -> str:
    """Sanitise a dotted instrument name into a Prometheus metric name.

    ``serve.cache.hits`` → ``repro_serve_cache_hits``; characters outside
    ``[a-zA-Z0-9_]`` become underscores.
    """
    flat = _INVALID.sub("_", name)
    return f"{prefix}_{flat}" if prefix else flat


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    # Integral values render without a trailing .0 (Prometheus style).
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _labelset(
    labels: Tuple[Tuple[str, str], ...], extra: Tuple[Tuple[str, str], ...] = ()
) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(f'{key}="{_escape_label(value)}"' for key, value in pairs)
    return "{" + body + "}"


def _render_series(
    lines: List[str],
    base: str,
    kind: Optional[str],
    data: dict,
    header: bool,
    labels: Tuple[Tuple[str, str], ...] = (),
) -> bool:
    """Append one instrument's series; returns True if anything rendered.

    ``labels`` (e.g. ``(("shard", "3"),)``) apply to every emitted
    sample; ``header`` controls the one-per-family ``# TYPE`` line so
    labelled series from many instruments can share a family.
    """
    lset = _labelset(labels)
    if kind == "counter":
        if header:
            lines.append(f"# TYPE {base}_total counter")
        lines.append(f"{base}_total{lset} {_fmt(data.get('value', 0.0))}")
        return True
    if kind == "gauge":
        value = data.get("value")
        if value is None:
            return False  # never set: nothing meaningful to expose
        if header:
            lines.append(f"# TYPE {base} gauge")
        lines.append(f"{base}{lset} {_fmt(value)}")
        return True
    if kind == "histogram":
        if header:
            lines.append(f"# TYPE {base} summary")
        count = data.get("count", 0)
        if count:
            for quantile, key in _QUANTILES:
                if key in data:
                    qset = _labelset(labels, (("quantile", quantile),))
                    lines.append(f"{base}{qset} {_fmt(data[key])}")
        lines.append(f"{base}_sum{lset} {_fmt(data.get('total', 0.0))}")
        lines.append(f"{base}_count{lset} {_fmt(count)}")
        return True
    return False


def render_exposition(
    metrics: Union[MetricsRegistry, Dict[str, dict], None] = None,
    prefix: str = "repro",
) -> str:
    """Render metrics as Prometheus text.

    Parameters
    ----------
    metrics:
        A live registry or an already-serialised ``snapshot()`` dict;
        defaults to the process registry.
    prefix:
        Metric-name prefix (empty string for none).
    """
    if metrics is None:
        metrics = get_registry()
    if isinstance(metrics, MetricsRegistry):
        # Live render = a scrape: let registered producers (e.g. the
        # sharded server's worker-telemetry refresh) update first.
        run_scrape_hooks()
        snapshot = metrics.snapshot()
    else:
        snapshot = metrics

    lines: List[str] = []
    #: family rest-name -> (kind, [(shard, data), ...]) for shard series.
    sharded: Dict[str, Tuple[str, List[Tuple[int, dict]]]] = {}
    for name in sorted(snapshot):
        data = snapshot[name]
        kind = data.get("type")
        shard_match = _SHARD_SERIES.match(name)
        if shard_match is not None:
            rest = shard_match.group(2)
            family = sharded.setdefault(rest, (kind, []))
            if family[0] == kind:  # mixed-kind collisions expose verbatim
                family[1].append((int(shard_match.group(1)), data))
                continue
        base = metric_name(name, prefix)
        _render_series(lines, base, kind, data, header=True)

    for rest in sorted(sharded):
        kind, series = sharded[rest]
        base = metric_name(f"serve.shard.{rest}", prefix)
        header = True
        for shard, data in sorted(series, key=lambda item: item[0]):
            emitted = _render_series(
                lines, base, kind, data,
                header=header, labels=(("shard", str(shard)),),
            )
            header = header and not emitted
    return "\n".join(lines) + ("\n" if lines else "")
