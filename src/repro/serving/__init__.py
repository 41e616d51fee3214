"""Serving layer: continuous batching, multi-worker execution, decode overlap.

The throughput side of deployment, on top of the packed storage and
streaming serving modes:

* :class:`~repro.serving.engine.ServingEngine` — N workers over a
  continuous-batching scheduler: single-sample requests of one exact shape
  fuse into one stacked forward call, newly-arrived requests join
  the next forward of an in-flight compatibility group instead of waiting
  for a drain, and per-request priorities/deadlines order admission.
  Thread and process workers share one protocol
  (:mod:`repro.serving.worker_proc`) and one dispatcher/supervisor path;
* :class:`~repro.serving.api.SubmitOptions` /
  :class:`~repro.serving.api.GenerationRequest` — the typed request surface:
  ``engine.submit(x, SubmitOptions(...))`` for one-shot forwards,
  ``engine.generate(prompt, GenerationRequest(...))`` for autoregressive
  generation (future, or token stream with ``stream=True``);
* :class:`~repro.serving.scheduler.ContinuousScheduler` — the engine-agnostic
  per-compatibility-bucket admission core (deadline-aware windows,
  :class:`~repro.serving.scheduler.DeadlineExceeded` on queue-time misses);
  its queue cap and shedding are one
  :class:`~repro.serving.scheduler.Admission` rule, shared with the
  generation tier;
* :class:`~repro.serving.scheduler.TokenScheduler` +
  :mod:`repro.serving.generation` — the token-level generation tier: one
  decode-state pool multiplexes per-request KV caches (float32 or FP8
  packed), a single driver thread co-batches prefills of new arrivals with
  single-token decode steps of every in-flight sequence, and a slot budget
  with strict-urgency preemption bounds decode-state memory;
* :class:`~repro.serving.prefetch.PipelinePrefetcher` — cross-layer pipelined
  decode: a shared pool slides a decode window across consecutive streaming
  layers, so layer *k+1*'s first blocks decode while layer *k* finishes
  (``set_serving_mode(model, "streaming", prefetch="pipeline")``).

Pair with ``load_quantized(..., mmap=True)`` for the cold-start half;
multi-worker replicas of one checkpoint alias one file mapping.
``ServingEngine.from_checkpoint(..., workers=N)`` wires mmap load, serving
mode, prefetch and the engine in one call.

Failure behaviour is part of the API: :mod:`repro.serving.errors` is the
typed exception taxonomy (:class:`~repro.serving.errors.ServingError` and
friends), and :mod:`repro.serving.faults` the deterministic fault injector
that exercises every recovery path (worker supervision and restart, retry
with backoff, queue caps and shedding, prefetch error relay, checkpoint
integrity).
"""

from repro.serving.api import WORKER_MODES, GenerationRequest, SubmitOptions
from repro.serving.engine import ServingEngine
from repro.serving.errors import (
    DeadlineExceeded,
    EngineClosed,
    EngineDraining,
    EngineFailed,
    PrefetchError,
    QueueFull,
    RequestShed,
    ServingError,
    WorkerCrashed,
)
from repro.serving.faults import FaultInjector, FaultSpec, InjectedCrash, InjectedError, injected
from repro.serving.generation import (
    DecodeStatePool,
    GenerationDriver,
    GenerationSession,
    GenerationStream,
)
from repro.serving.prefetch import PipelinePrefetcher
from repro.serving.scheduler import (
    ContinuousScheduler,
    Request,
    TokenScheduler,
    compat_key,
)

__all__ = [
    "ServingEngine",
    "SubmitOptions",
    "GenerationRequest",
    "GenerationStream",
    "GenerationSession",
    "GenerationDriver",
    "DecodeStatePool",
    "PipelinePrefetcher",
    "ContinuousScheduler",
    "TokenScheduler",
    "Request",
    "compat_key",
    "ServingError",
    "EngineClosed",
    "EngineDraining",
    "QueueFull",
    "RequestShed",
    "DeadlineExceeded",
    "WorkerCrashed",
    "EngineFailed",
    "PrefetchError",
    "WORKER_MODES",
    "FaultInjector",
    "FaultSpec",
    "InjectedCrash",
    "InjectedError",
    "injected",
]
