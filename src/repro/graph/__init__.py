"""Lazy op-graph tracing + plan cache for the serving forward.

Layers (see the per-module docstrings for the full contracts):

* :mod:`repro.graph.ir` — the traced graph: nodes over SSA slots, each
  carrying the function the eager op calls, and its replay;
* :mod:`repro.graph.tracer` — trace-by-execution of a model forward;
* :mod:`repro.graph.cache` — the per-model plan cache wired into
  ``Module.__call__``: it stores each verified graph as the key's plan, with
  epoch-based invalidation and the eager-oracle fallback.
"""

from repro.graph.cache import PlanCache, install_plan_cache, plan_cache_of, remove_plan_cache
from repro.graph.ir import Graph, Node, TraceAborted
from repro.graph.tracer import Tracer, TraceResult, trace

__all__ = [
    "Graph",
    "Node",
    "TraceAborted",
    "Tracer",
    "TraceResult",
    "trace",
    "PlanCache",
    "install_plan_cache",
    "remove_plan_cache",
    "plan_cache_of",
]
