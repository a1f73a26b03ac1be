"""Project-specific lint rules.

Importing this package registers every rule with
:data:`repro.analysis.registry.RULES`:

- R001 (:mod:`.rng`) — no global/unseeded numpy RNG;
- R002 (:mod:`.mutation`) — no in-place mutation of autograd buffers;
- R003 (:mod:`.coverage`) — every differentiable op has a gradcheck test;
- R004 (:mod:`.dtype`) — float64 engine discipline, no narrow-float drift;
- R005/R006 (:mod:`.api`) — ``__all__`` accuracy and public docstrings;
- R007 (:mod:`.prints`) — no bare ``print`` in library code;
- R008 (:mod:`.tracing`) — span/trace objects must be context-managed,
  and no trace-context token may be minted and discarded (a shard
  request cannot drop its context at all: ``trace_ctx`` is a required
  keyword of the one dispatch method);
- R009 (:mod:`.profiling`) — sampler/tracemalloc sessions must be
  released via ``with`` or a ``finally`` stop;
- S001 (:mod:`.wiring`) — symbolic layer-dimension checking;
- D001/D002 (:mod:`.differentiability`) — backward/gradcheck coverage and
  detach-free forward paths, audited over the cross-module call graph;
- N001–N004 (:mod:`.stability`) — numerical-stability guards for
  exp/log/sqrt/normalising divisions and float equality;
- C001–C006 (:mod:`.concurrency`) — lock-guard discipline, lock-order
  deadlock detection and thread hygiene over the serve tier;
- E001–E006 (:mod:`.exceptions`) — interprocedural exception flow: the
  never-raises serving contract, over-broad/dead handlers, swallowed
  exceptions, raising cleanup paths and exception-unsafe lock release.
"""

from . import (
    api,
    concurrency,
    coverage,
    differentiability,
    dtype,
    exceptions,
    mutation,
    prints,
    profiling,
    rng,
    stability,
    tracing,
    wiring,
)

__all__ = [
    "api",
    "concurrency",
    "coverage",
    "differentiability",
    "dtype",
    "exceptions",
    "mutation",
    "prints",
    "profiling",
    "rng",
    "stability",
    "tracing",
    "wiring",
]
