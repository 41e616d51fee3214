"""Lazy op-graph tracing + plan cache for the serving forward.

Layers (see the per-module docstrings for the full contracts):

* :mod:`repro.graph.ir` — the op-graph representation (nodes over SSA slots);
* :mod:`repro.graph.tracer` — trace-by-execution of a model forward;
* :mod:`repro.graph.plan` — compilation into a flat executable plan whose
  every step calls the function the eager op calls;
* :mod:`repro.graph.cache` — the per-model plan cache wired into
  ``Module.__call__``, with epoch-based invalidation and the eager-oracle
  fallback.
"""

from repro.graph.cache import PlanCache, install_plan_cache, plan_cache_of, remove_plan_cache
from repro.graph.ir import Graph, Node, TraceAborted
from repro.graph.plan import Plan, compile_plan
from repro.graph.tracer import Tracer, TraceResult, trace

__all__ = [
    "Graph",
    "Node",
    "TraceAborted",
    "Tracer",
    "TraceResult",
    "trace",
    "Plan",
    "compile_plan",
    "PlanCache",
    "install_plan_cache",
    "remove_plan_cache",
    "plan_cache_of",
]
