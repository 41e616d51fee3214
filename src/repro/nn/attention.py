"""Transformer attention building blocks.

``MultiHeadSelfAttention`` exposes the two batched matrix multiplications
(QK^T and probs·V) as explicit :class:`BatchMatMul` submodules so that the
*extended* quantization scheme can target them (the paper's "BMM, MM" operator
coverage in Figure 9).

Incremental decode
------------------
:class:`KVCache` gives one attention layer a per-row key/value cache so that
autoregressive decoding consumes **one new token per step** instead of
re-running the full O(T²) prefix.  ``forward(..., cache=...)`` appends the new
tokens' K/V to the cache and attends over the whole cached prefix; rows of the
cache belong to independent sequences (or beams), so a serving tier can batch
decode steps of many in-flight requests into one forward call
(:mod:`repro.serving.generation`).  A :class:`CacheStep` carries one step's
row indices, write positions and attention mask, which are the same in every
layer, so a model resolves them once per step rather than once per layer.

The cache stores K/V either as float32 (bit-faithful to full recompute) or as
FP8 packed codes + per-(row, head, token) scales via the same fused kernels
that back :class:`~repro.fp8.quantize.QuantizedTensor` — one byte per element
at rest, decoded on attention.  A step's write is one fused FP8 encode per
layer that covers every row's new K and V.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.utils.seeding import RngLike, seeded_rng

__all__ = ["BatchMatMul", "CacheStep", "KVCache", "MultiHeadSelfAttention"]

#: index of the K/V axis of cache storage, shaped to broadcast against pair indices
_KV = np.array([[0], [1]])


def _resolve_rows(rows, count: int) -> np.ndarray:
    """``rows`` as a 1D int64 index array into ``count`` row slots (all of them when None)."""
    if rows is None:
        return np.arange(count)
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if rows.size and (rows.min() < 0 or rows.max() >= count):
        raise IndexError(f"cache row index out of range for {count} rows")
    return rows


def _resolve_new_lens(new_lens, rows: np.ndarray, s: int) -> np.ndarray:
    """``new_lens`` as one int64 per row, each in ``[0, s]``; raises otherwise."""
    if new_lens is None:
        return np.full(rows.size, s, dtype=np.int64)
    lens = np.asarray(new_lens)
    if lens.size and lens.dtype.kind not in "iu":
        raise ValueError(f"new_lens must hold integers, got dtype {lens.dtype}")
    lens = lens.astype(np.int64, copy=False).reshape(-1)
    if lens.size != rows.size:
        raise ValueError(f"expected one new length per row ({rows.size}), got {lens.size}")
    if lens.size and (lens.min() < 0 or lens.max() > s):
        i = int(np.flatnonzero((lens < 0) | (lens > s))[0])
        raise ValueError(
            f"new_lens[{i}] = {int(lens[i])} for cache row {int(rows[i])} is outside "
            f"[0, {s}], the new tokens in the block"
        )
    return lens


class CacheStep:
    """Where one step's new tokens go in a KV cache, resolved once for every layer.

    The step appends ``S`` new tokens to each row of ``rows`` (every row when
    None) after the row's current entry in ``lengths``; row ``i`` keeps its
    first ``new_lens[i]`` tokens (all ``S`` when None).  Every layer of a model
    caches the same rows to the same lengths, so
    :meth:`~repro.models.transformer.GPTStyleLM.forward_step` resolves one
    step and each layer's :meth:`KVCache.update` and attention mask reuse it.
    Construction validates ``rows`` and ``new_lens`` and raises before anything
    is written; the cache that is written checks its own capacity.

    Attributes: ``rows``, ``new_lens``, ``starts`` (row lengths before the
    step), ``ends`` (after it), ``total`` (the longest row after it),
    ``positions``, the ``(B, S)`` absolute position ``starts[i] + p`` of new
    token ``p`` of row ``i``, and ``mask``, the ``(B, 1, S, total)`` additive
    attention mask: each new token sees the positions ``j <= positions[i, p]``
    that lie within its row.
    """

    def __init__(self, lengths: np.ndarray, rows=None, new_lens=None, s: int = 1) -> None:
        self.rows = _resolve_rows(rows, lengths.size)
        self.new_lens = _resolve_new_lens(new_lens, self.rows, s)
        self.starts = lengths[self.rows]
        self.ends = self.starts + self.new_lens
        self.total = int(self.ends.max()) if self.ends.size else 0
        self.positions = self.starts[:, None] + np.arange(s)
        # every (row, token) pair that carries a new token: gathered from a
        # (B, H, S, D) block and scattered into (K/V, rows, H, capacity, D)
        # storage; the K/V index broadcasts against the pair indices, and the
        # slice between them puts those two axes first
        self.src, self.token = np.nonzero(np.arange(s) < self.new_lens[:, None])
        self.where = (_KV, self.rows[self.src], slice(None), self.starts[self.src] + self.token)
        j = np.arange(self.total)
        allowed = (j <= self.positions[:, :, None]) & (j < self.ends[:, None, None])
        mask = np.where(allowed, np.float32(0.0), np.float32(-1e9))
        self.mask = mask.reshape(self.rows.size, 1, s, self.total)


class KVCache:
    """Per-layer key/value cache for a batch of independently-decoding rows.

    Parameters
    ----------
    rows:
        Number of row slots (independent sequences or beams).
    num_heads, head_dim:
        Attention geometry of the owning layer.
    capacity:
        Maximum number of cached tokens per row (typically the model's
        ``max_seq_len``).  Appending past it raises.
    storage:
        ``"float32"`` for exact storage, or an FP8 format name (``"E4M3"``,
        ``"E5M2"``, ...) to keep K/V as packed uint8 codes plus one scale per
        (row, head, token) — quantized through the fused
        :func:`repro.fp8.kernels.fp8_quantize_channelwise` kernel, so a cached
        token costs ``head_dim + 8`` bytes per head instead of
        ``4 * head_dim``.

    K and V share each storage array, whose leading axis selects K or V:
    ``(2, rows, heads, capacity, head_dim)`` float32 values or FP8 codes, plus
    ``(2, rows, heads, capacity, 1)`` scales for FP8.  So a write stores every
    row's new K and V with one gather, one FP8 encode and one scatter.

    Rows are addressed explicitly: every mutator takes a ``rows`` index array
    so a pool can slice one big cache across many requests.  ``lengths`` holds
    the number of valid cached tokens per row; storage beyond a row's length
    is stale and masked out by the attention math.  :meth:`append` and
    :meth:`dense` validate their arguments on every call; attention instead
    calls :meth:`update` with a :class:`CacheStep` resolved once per model
    step.
    """

    def __init__(
        self,
        rows: int,
        num_heads: int,
        head_dim: int,
        capacity: int,
        storage: str = "float32",
    ) -> None:
        if rows < 1 or num_heads < 1 or head_dim < 1 or capacity < 1:
            raise ValueError("rows, num_heads, head_dim and capacity must all be >= 1")
        self.rows = int(rows)
        self.num_heads = int(num_heads)
        self.head_dim = int(head_dim)
        self.capacity = int(capacity)
        self.lengths = np.zeros(self.rows, dtype=np.int64)
        shape = (2, self.rows, self.num_heads, self.capacity, self.head_dim)
        if isinstance(storage, str) and storage.lower() == "float32":
            self.fmt = None
            self.storage = "float32"
            self._kv = np.zeros(shape, dtype=np.float32)
        else:
            # lazy import: the float path keeps repro.nn free of the fp8 package
            from repro.fp8.formats import get_format

            self.fmt = storage if not isinstance(storage, str) else get_format(storage)
            self.storage = self.fmt.name
            self._codes = np.zeros(shape, dtype=np.uint8)
            # scales default to 1 so stale storage always decodes to finite
            # values (masked to zero weight, but NaN/inf would still poison
            # the probs @ V product via 0 * inf)
            self._scales = np.ones(shape[:4] + (1,), dtype=np.float64)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _check_block(self, k: np.ndarray, v: np.ndarray, rows: int) -> None:
        s = k.shape[2] if k.ndim == 4 else -1
        expected = (rows, self.num_heads, s, self.head_dim)
        if k.shape != expected or v.shape != expected:
            raise ValueError(
                f"expected k and v of shape ({rows}, {self.num_heads}, S, "
                f"{self.head_dim}), got {k.shape} and {v.shape}"
            )

    def append(
        self,
        k: np.ndarray,
        v: np.ndarray,
        rows=None,
        new_lens: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Append up to ``S`` new tokens' K/V per row; returns pre-append lengths.

        ``k``/``v`` are ``(B, H, S, D)`` float32 blocks; row ``i`` takes its
        first ``new_lens[i]`` tokens (all ``S`` when ``new_lens`` is None), so
        prefills of different lengths can ride one padded batch.  Every row's
        new K and V are written together: one gather of the valid (row, token)
        pairs, one fused FP8 encode (absmax over ``D``, so one scale per
        (row, head, token)) and one scatter.  Bad ``new_lens`` or an overflow
        raise before anything is written.
        """
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        rows = _resolve_rows(rows, self.rows)
        self._check_block(k, v, rows.size)
        step = CacheStep(self.lengths, rows, new_lens, k.shape[2])
        self._write(k, v, step)
        return step.starts

    def update(self, k: np.ndarray, v: np.ndarray, step: CacheStep) -> Tuple[np.ndarray, np.ndarray]:
        """Write ``step``'s new K/V and return its rows' ``(K, V)`` through ``step.total``.

        :meth:`append` followed by :meth:`dense`, with the row indices,
        lengths and write positions taken from ``step`` instead of resolved
        again in every layer.
        """
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        self._check_block(k, v, step.rows.size)
        self._write(k, v, step)
        return self._read(step.rows, step.total)

    def _write(self, k: np.ndarray, v: np.ndarray, step: CacheStep) -> None:
        if step.total > self.capacity:
            raise RuntimeError(
                f"KV cache overflow: appending would need {step.total} cached tokens "
                f"but capacity is {self.capacity}"
            )
        block = np.array([k[step.src, :, step.token], v[step.src, :, step.token]])
        if self.fmt is None:
            self._kv[step.where] = block
        else:
            from repro.fp8.kernels import fp8_quantize_channelwise

            codes, scales = fp8_quantize_channelwise(block, self.fmt, axis=(0, 1, 2))
            self._codes[step.where] = codes
            self._scales[step.where] = scales
        self.lengths[step.rows] = step.ends

    def dense(self, rows=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialise ``(K, V, lengths)`` for ``rows``, trimmed to their max length.

        Returns float32 ``(B, H, T, D)`` arrays where ``T`` is the longest
        selected row; shorter rows carry stale-but-finite storage beyond their
        own length, which callers mask out.
        """
        rows = _resolve_rows(rows, self.rows)
        lens = self.lengths[rows]
        keys, values = self._read(rows, int(lens.max()) if lens.size else 0)
        return keys, values, lens

    def _read(self, rows: np.ndarray, t: int) -> Tuple[np.ndarray, np.ndarray]:
        if self.fmt is None:
            return self._kv[0, rows, :, :t], self._kv[1, rows, :, :t]
        from repro.fp8.kernels import fp8_dequantize_channelwise

        # K and V are gathered and decoded apart: each gather is then
        # C-contiguous, while one gather over both lays the row axis outermost
        # in memory and slows the decode by ~1.5x at 16 rows
        keys, values = (
            fp8_dequantize_channelwise(
                self._codes[i, rows, :, :t], self.fmt, self._scales[i, rows, :, :t]
            )
            for i in (0, 1)
        )
        return keys, values

    # ------------------------------------------------------------------
    # row management (pooling / beam search)
    # ------------------------------------------------------------------
    def _arrays(self) -> Sequence[np.ndarray]:
        if self.fmt is None:
            return (self._kv,)
        return (self._codes, self._scales)

    def permute_rows(self, rows, parents) -> None:
        """Reassign ``rows[i] <- rows[parents[i]]`` (beam reordering).

        The gather is materialised before the scatter, so overlapping
        source/destination rows are safe.
        """
        rows = _resolve_rows(rows, self.rows)
        parents = np.asarray(parents, dtype=np.int64).reshape(-1)
        src = rows[parents]
        for array in self._arrays():
            array[:, rows] = array[:, src]
        self.lengths[rows] = self.lengths[src]

    def reset_rows(self, rows=None) -> None:
        """Mark rows empty (their storage is reused on the next append)."""
        self.lengths[_resolve_rows(rows, self.rows)] = 0

    @property
    def nbytes(self) -> int:
        """Bytes held by the cache storage (all rows, full capacity)."""
        return int(sum(array.nbytes for array in self._arrays()) + self.lengths.nbytes)


class BatchMatMul(Module):
    """Batched matrix multiplication as a module (quantizable operator)."""

    def forward(self, a: Tensor, b: Tensor) -> Tensor:
        return F.matmul(a, b)


class MultiHeadSelfAttention(Module):
    """Standard multi-head self attention with optional local (Longformer-style) masking.

    Parameters
    ----------
    embed_dim:
        Model width.
    num_heads:
        Number of attention heads (must divide ``embed_dim``).
    local_window:
        If given, attention is restricted to a sliding window of this radius
        around each position — the cheap stand-in for Longformer-style sparse
        attention in the model zoo.
    """

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        dropout: float = 0.0,
        local_window: Optional[int] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        if embed_dim % num_heads:
            raise ValueError(f"embed_dim {embed_dim} not divisible by num_heads {num_heads}")
        rng = seeded_rng(rng)
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.local_window = local_window
        self.q_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.k_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.v_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.out_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.attn_matmul = BatchMatMul()
        self.value_matmul = BatchMatMul()
        self.dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x):
        """``(B, T, E)`` to ``(B, H, T, D)``, on a Tensor or (for the KV cache) an ndarray."""
        b, t, _ = x.shape
        return x.reshape(b, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor) -> Tensor:
        b, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * d)

    def _mask(self, seq_len: int, causal: bool) -> Optional[np.ndarray]:
        mask = np.zeros((seq_len, seq_len), dtype=np.float32)
        if causal:
            mask += np.triu(np.full((seq_len, seq_len), -1e9, dtype=np.float32), k=1)
        if self.local_window is not None:
            idx = np.arange(seq_len)
            outside = np.abs(idx[:, None] - idx[None, :]) > self.local_window
            mask += np.where(outside, -1e9, 0.0).astype(np.float32)
        if not causal and self.local_window is None:
            return None
        return mask

    def forward(
        self,
        x: Tensor,
        causal: bool = False,
        cache: Optional[KVCache] = None,
        step: Optional[CacheStep] = None,
    ) -> Tensor:
        if cache is not None:
            return self._forward_cached(x, cache, step)
        b, t, _ = x.shape
        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(x))
        v = self._split_heads(self.v_proj(x))

        scores = self.attn_matmul(q, k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        mask = self._mask(t, causal)
        if mask is not None:
            scores = scores + Tensor(mask.reshape(1, 1, t, t))
        probs = F.softmax(scores, axis=-1)
        probs = self.dropout(probs)
        context = self.value_matmul(probs, v)
        return self.out_proj(self._merge_heads(context))

    def _forward_cached(self, x: Tensor, cache: KVCache, step: Optional[CacheStep]) -> Tensor:
        """Incremental causal attention: append the new tokens, attend over the cache.

        ``x`` holds ``S`` new tokens for each row of ``step`` (padded; row ``i``
        owns the first ``step.new_lens[i]``); without a step, every cache row
        takes all ``S``.  The step is always causal: new token ``p`` of row
        ``i`` attends to every cached token plus new tokens ``<= p``.  Outputs
        at padded positions are garbage and must be discarded by the caller.
        """
        if self.local_window is not None:
            raise RuntimeError("KV-cache decoding does not support local_window attention")
        if step is None:
            step = CacheStep(cache.lengths, s=x.shape[1])
        q = self._split_heads(self.q_proj(x))
        # new K/V only feed the cache, which stores arrays
        k = self._split_heads(self.k_proj(x).data)
        v = self._split_heads(self.v_proj(x).data)

        keys, values = cache.update(k, v, step)
        scores = self.attn_matmul(q, Tensor(keys.transpose(0, 1, 3, 2))) * (
            1.0 / np.sqrt(self.head_dim)
        )
        scores = scores + Tensor(step.mask)
        probs = F.softmax(scores, axis=-1)
        probs = self.dropout(probs)
        context = self.value_matmul(probs, Tensor(values))
        return self.out_proj(self._merge_heads(context))

    def extra_repr(self) -> str:
        return f"embed_dim={self.embed_dim}, num_heads={self.num_heads}, local_window={self.local_window}"
