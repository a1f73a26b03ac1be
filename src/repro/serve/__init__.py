"""repro.serve — concurrent similarity serving over learned embeddings.

The paper's efficiency argument (Table III) is that similarity queries
collapse to embedding distances once trajectories are encoded; this
package is the subsystem that actually serves those queries:

- :mod:`repro.serve.cache` — thread-safe LRU embedding cache keyed by
  trajectory content hash, with hit/miss accounting;
- :mod:`repro.serve.batcher` — micro-batching encode queue coalescing
  concurrent requests into padded model batches (flush on size or
  deadline), with a fault-isolation boundary per batch;
- :mod:`repro.serve.engine` — :class:`SimilarityServer`, the one serving
  coordinator (cache → encode → search every shard → exact merge, with
  per-request deadlines and a never-raises ``topk``), here over one
  in-process :class:`LocalShard`;
- :mod:`repro.serve.shard` — :class:`ShardedSimilarityServer`, the same
  coordinator over N :class:`ProcessShard` s (spawned workers,
  payloads as bytes in the request message, retained fallback blocks);
- :mod:`repro.serve.bench` — the ``repro-tmn serve-bench`` harness
  measuring served vs naive one-forward-per-request throughput, plus
  the sharded closed-loop bench behind ``--shards``.

See DESIGN.md §11 for the architecture and the failure-mode table.
"""

from .batcher import MicroBatcher
from .bench import (
    ServeBenchResult,
    ShardBenchResult,
    format_serve_bench,
    format_shard_bench,
    run_serve_bench,
    run_shard_bench,
)
from .cache import EmbeddingCache, trajectory_key
from .engine import (
    LocalShard,
    ServeResult,
    SimilarityServer,
    exact_metric_topk,
    merge_topk,
)
from .shard import (
    FeatureEncoder,
    ProcessShard,
    ShardDeadError,
    ShardedSimilarityServer,
    assign_shard,
)

__all__ = [
    "EmbeddingCache",
    "FeatureEncoder",
    "LocalShard",
    "MicroBatcher",
    "ProcessShard",
    "ServeBenchResult",
    "ServeResult",
    "ShardBenchResult",
    "ShardDeadError",
    "ShardedSimilarityServer",
    "SimilarityServer",
    "assign_shard",
    "exact_metric_topk",
    "format_serve_bench",
    "format_shard_bench",
    "merge_topk",
    "run_serve_bench",
    "run_shard_bench",
    "trajectory_key",
]
