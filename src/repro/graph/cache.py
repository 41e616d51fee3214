"""Per-model plan cache: trace on first sight, replay thereafter, eager on doubt.

:func:`install_plan_cache` attaches a :class:`PlanCache` to a model root.
``Module.__call__`` then offers every top-level forward to
:meth:`PlanCache.dispatch`:

* **cache hit** — the stored graph replays (:meth:`~repro.graph.ir.Graph.replay`)
  with zero module dispatch and the (bit-identical) result is returned
  directly;
* **first sight** — the forward runs once under the tracer (so the call still
  produces its real result), and the traced graph is stored as the key's plan
  after a verification replay reproduces the traced output exactly;
* **eager** — keys whose trace aborted are pinned to a sentinel so later
  forwards skip straight to the eager path, which remains the bit-exactness
  oracle at all times.

Cache keys and invalidation
---------------------------
The key is the per-argument tuple ``(Tensor-or-ndarray, dtype, exact shape)``.
The serving scheduler groups requests by the same dtype and shape, so an
engine holds one plan per request shape and batch size.  Serving mode,
quantization state and parameter loads are covered by the global *state
epoch* (any bump clears the cache), and forward-hook changes by the *hook
epoch* (a bump drops plans that traced through a now-hooked module, and drops
eager sentinels so hook removal can re-enable tracing).  Both epochs live in
:mod:`repro.nn.module` and are bumped by the mutating operations themselves.

Dispatch never replays for training-mode models, under ``is_grad_enabled()``,
for keyword arguments, or for non-array inputs — those forwards take the
eager path with all semantics (tape, hooks) intact.  Lookup is thread-safe;
replay runs outside the lock and allocates its results as eager does, so
concurrent engine workers replay the same plan in parallel.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, is_grad_enabled, no_grad
from repro.graph.ir import TraceAborted
from repro.graph.tracer import trace
from repro.nn.module import (
    Module,
    hook_epoch,
    plan_dispatch_suspended,
    state_epoch,
    suspend_plan_dispatch,
)

__all__ = ["PlanCache", "install_plan_cache", "remove_plan_cache", "plan_cache_of"]

#: sentinel marking a key whose trace aborted: serve it eagerly, don't re-trace
_EAGER = object()


class PlanCache:
    """Verified traced graphs (plans) for one model root, keyed by input signature."""

    def __init__(self, max_plans: int = 32) -> None:
        self.max_plans = int(max_plans)
        self._plans: "OrderedDict" = OrderedDict()
        self._lock = threading.RLock()
        self._state_epoch = state_epoch()
        self._hook_epoch = hook_epoch()
        # counters (reported via stats()); "compiles" counts verified graphs stored
        self._hits = 0
        self._misses = 0
        self._compiles = 0
        self._trace_aborts = 0
        self._verify_failures = 0
        self._eager_hits = 0
        self._bypass = 0
        self._state_invalidations = 0
        self._hook_invalidations = 0

    # ------------------------------------------------------------------
    def key_for(self, args: tuple) -> Optional[Tuple]:
        """The cache key for a positional argument tuple, or None if unkeyable."""
        key = []
        for arg in args:
            if isinstance(arg, Tensor):
                data, tag = arg.data, "T"
            elif isinstance(arg, np.ndarray):
                data, tag = arg, "A"
            else:
                return None
            key.append((tag, data.dtype.str, data.shape))
        return tuple(key)

    def dispatch(self, model: Module, args: tuple, kwargs: dict):
        """Offer a forward to the cache; returns ``(replayed, output)``."""
        if kwargs or model.training or is_grad_enabled() or plan_dispatch_suspended():
            self._bypass += 1
            return False, None
        key = self.key_for(args)
        if key is None:
            self._bypass += 1
            return False, None
        with self._lock:
            self._revalidate_locked()
            entry = self._plans.get(key)
            if entry is not None:
                self._plans.move_to_end(key)
            if entry is _EAGER:
                self._eager_hits += 1
                return False, None
            if entry is not None:
                self._hits += 1
        if entry is None:
            return self._trace(model, key, args)
        return True, entry.replay(args)

    # ------------------------------------------------------------------
    def _trace(self, model: Module, key: Tuple, args: tuple):
        self._misses += 1
        with suspend_plan_dispatch():
            try:
                with no_grad():
                    result = trace(model, args)
            except TraceAborted:
                self._trace_aborts += 1
                self._store(key, _EAGER)
                return False, None
            try:
                replayed = result.graph.replay(args)
                verified = _outputs_match(result.output, replayed)
            except Exception:
                verified = False
            if verified:
                self._compiles += 1
                self._store(key, result.graph)
            else:
                self._verify_failures += 1
                self._store(key, _EAGER)
        # the trace executed the forward for real; its output IS the eager result
        return True, result.output

    def _store(self, key: Tuple, entry) -> None:
        with self._lock:
            if state_epoch() != self._state_epoch or hook_epoch() != self._hook_epoch:
                return  # the model mutated while we traced; drop the stale plan
            self._plans[key] = entry
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)

    def _revalidate_locked(self) -> None:
        epoch = state_epoch()
        if epoch != self._state_epoch:
            if self._plans:
                self._state_invalidations += 1
            self._plans.clear()
            self._state_epoch = epoch
            self._hook_epoch = hook_epoch()
            return
        epoch = hook_epoch()
        if epoch != self._hook_epoch:
            for key in list(self._plans):
                entry = self._plans[key]
                # eager sentinels drop too: removing a hook can re-enable tracing
                if entry is _EAGER or any(m._forward_hooks for m in entry.modules):
                    del self._plans[key]
            self._hook_epoch = epoch
            self._hook_invalidations += 1

    # ------------------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def stats(self) -> dict:
        with self._lock:
            plans = sum(1 for entry in self._plans.values() if entry is not _EAGER)
            return {
                "plans": plans,
                "eager_keys": len(self._plans) - plans,
                "hits": self._hits,
                "misses": self._misses,
                "compiles": self._compiles,
                "trace_aborts": self._trace_aborts,
                "verify_failures": self._verify_failures,
                "eager_hits": self._eager_hits,
                "bypass": self._bypass,
                "state_invalidations": self._state_invalidations,
                "hook_invalidations": self._hook_invalidations,
            }


def _outputs_match(eager_out, replayed) -> bool:
    a = eager_out.data if isinstance(eager_out, Tensor) else eager_out
    b = replayed.data if isinstance(replayed, Tensor) else replayed
    if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
        return False
    if isinstance(eager_out, Tensor) != isinstance(replayed, Tensor):
        return False
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return bool(np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))


# ----------------------------------------------------------------------
# installation helpers
# ----------------------------------------------------------------------
def install_plan_cache(model: Module, max_plans: int = 32) -> PlanCache:
    """Attach a plan cache to ``model``; idempotent (returns the existing one)."""
    cache = model.__dict__.get("_plan_cache")
    if cache is None:
        cache = PlanCache(max_plans=max_plans)
        model._plan_cache = cache
    return cache


def remove_plan_cache(model: Module) -> None:
    """Detach the plan cache; the model serves eagerly again."""
    model.__dict__.pop("_plan_cache", None)


def plan_cache_of(model: Module) -> Optional[PlanCache]:
    return model.__dict__.get("_plan_cache")
