"""Cross-layer pipelined block decode for streaming serving.

Streaming mode decodes a packed weight in output-channel blocks and feeds
each float32 block to a matmul.  Run sequentially, the decode and the matmul
serialise, and every layer boundary stalls: when layer *k*'s matmul consumes
its last block, layer *k+1*'s first block has not started decoding.
:class:`PipelinePrefetcher` removes both costs.  It owns the model's
streaming layers *in execution order* and a persistent shared decode pool,
and maintains a sliding window of ``depth`` decode tasks over the
**concatenated** block sequence of all layers: as layer *k*'s tail blocks
are consumed, the window slides into layer *k+1*'s head blocks, so their
decode overlaps layer *k*'s remaining matmuls.  With a pool of
``workers >= 2`` threads, block decodes also run in parallel with each other
(the decode kernels release the GIL).

Window state is **thread-local**: concurrent forwards (e.g. a multi-worker
:class:`~repro.serving.engine.ServingEngine` sharing one model) each get
their own pipeline run over the shared pool, so runs never interleave.
Decode results, order and boundaries are identical to the sequential path —
pipelined outputs stay bit-identical to cached mode.

Decode failures propagate: an exception raised inside ``dequantize_block``
on a pool thread surfaces in the consuming layer as a
:class:`~repro.serving.errors.PrefetchError` chained ``from`` the original
exception, so the decode traceback survives the thread hop.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.serving import faults
from repro.serving.errors import PrefetchError

__all__ = ["PipelinePrefetcher"]


class _PipelineRun:
    """One thread's sliding decode window over the pipeline's block sequence."""

    __slots__ = ("_pipeline", "_source", "_pending")

    def __init__(self, pipeline: "PipelinePrefetcher", start_module) -> None:
        self._pipeline = pipeline
        self._source = pipeline.block_sequence(start_module)
        self._pending: deque = deque()
        self._fill()

    def _fill(self) -> None:
        """Keep ``depth`` decode tasks in flight, crossing layer boundaries."""
        pool = self._pipeline._ensure_pool()
        while len(self._pending) < self._pipeline.depth:
            item = next(self._source, None)
            if item is None:
                return
            module, start, stop = item
            future = pool.submit(self._pipeline._decode, module, start, stop)
            self._pending.append((module, start, stop, future))

    def expects(self, module) -> bool:
        """True if this run is positioned at ``module``'s first block."""
        if not self._pending:
            return False
        head_module, head_start = self._pending[0][0], self._pending[0][1]
        return head_module is module and head_start == 0

    def consume(self, module) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``module``'s blocks in order, refilling the window as they drain."""
        while self._pending and self._pending[0][0] is module:
            _, start, stop, future = self._pending.popleft()
            # refill before blocking on the result: this is the moment the
            # next layer's head blocks start decoding while this layer's
            # tail is still being consumed
            self._fill()
            try:
                block = future.result()
            except Exception as exc:
                raise PrefetchError(f"pipelined block decode failed: {exc}") from exc
            yield start, stop, block

    def cancel(self) -> None:
        for *_, future in self._pending:
            future.cancel()
        self._pending.clear()


class PipelinePrefetcher:
    """Cross-layer pipelined block decode over one shared background pool.

    ``modules`` are the streaming wrappers in **execution order** (each must
    expose ``weight_q`` and ``streaming_block_size()``; module definition
    order is the usual proxy — the same assumption the quantization workflow
    makes elsewhere).  A consuming layer calls :meth:`iter_blocks` and gets
    its own ``(start, stop, float32 block)`` stream; behind it, a sliding
    window of ``depth`` decode tasks runs on a persistent pool of ``workers``
    threads and crosses layer boundaries ahead of the consumer.

    A layer asked for out of expected order (dynamic control flow, a second
    forward pass, an abandoned previous pass) simply restarts the window at
    that layer — correctness never depends on the declared order, only the
    amount of overlap does.
    """

    def __init__(self, modules: Iterable, depth: int = 4, workers: int = 2) -> None:
        self.order: List = list(modules)
        if not self.order:
            raise ValueError("PipelinePrefetcher needs at least one streaming module")
        if int(depth) < 1:
            raise ValueError(f"depth must be >= 1, got {depth!r}")
        if int(workers) < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.depth = int(depth)
        self.workers = int(workers)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def block_sequence(self, start_module) -> Iterator[Tuple]:
        """``(module, start, stop)`` spans from ``start_module`` to the end.

        This is the concatenated decode order the window slides over; span
        boundaries per layer are identical to the sequential path.
        """
        try:
            index = next(i for i, m in enumerate(self.order) if m is start_module)
            modules = self.order[index:]
        except StopIteration:
            modules = [start_module]
        for module in modules:
            tensor = module.weight_q
            if tensor is None:
                continue
            block = module.streaming_block_size()
            dim = tensor.shape[0]
            for start in range(0, dim, block):
                yield module, start, min(start + block, dim)

    def iter_blocks(self, module) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Blocks of ``module`` in order, decoded ahead on the shared pool.

        Continues the calling thread's pipeline run when ``module`` is the
        expected next layer; otherwise cancels the stale window and restarts
        at ``module``.
        """
        run = getattr(self._local, "run", None)
        if run is None or not run.expects(module):
            if run is not None:
                run.cancel()
            run = _PipelineRun(self, module)
            self._local.run = run
        return run.consume(module)

    # ------------------------------------------------------------------
    def _decode(self, module, start: int, stop: int) -> np.ndarray:
        faults.fire("prefetch.decode", start=start, stop=stop)
        return module.weight_q.dequantize_block(start, stop)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-pipeline-decode"
                )
            return self._pool

    def close(self) -> None:
        """Shut the decode pool down (it is re-created lazily if used again)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
