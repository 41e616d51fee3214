"""Transformer model family (BERT / GPT / Longformer / Funnel / ViT stand-ins).

The encoder layer uses pre-LayerNorm so that each LayerNorm output feeds a
Linear projection directly — the exact topology in which LLM activation
outliers appear (and in which SmoothQuant and the paper's mixed-FP8-format
recipe operate).  All batched matrix multiplications inside attention are
explicit :class:`~repro.nn.attention.BatchMatMul` modules so the extended
quantization scheme can cover them.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

import repro.nn as nn
from repro.autograd.tensor import Tensor
from repro.utils.seeding import RngLike, seeded_rng

__all__ = [
    "TransformerEncoderLayer",
    "BertStyleClassifier",
    "DecodeSearch",
    "DecodeState",
    "GPTStyleLM",
    "ViTStyleClassifier",
    "coerce_prompt",
    "ragged_step",
]


def coerce_prompt(prompt, max_seq_len: int) -> np.ndarray:
    """Normalise a generation prompt into a 1D int64 token array.

    Accepts a 1D array/sequence of token ids, a 2D single-row array, or a
    :class:`~repro.autograd.tensor.Tensor` holding either.  Raises a clear
    error for batched (multi-row) prompts and for prompts longer than
    ``max_seq_len`` — the model cannot assign valid position ids past its
    trained sequence length, so silently sliding the window would decode with
    stale positions.
    """
    if isinstance(prompt, Tensor):
        prompt = prompt.data
    prompt = np.asarray(prompt)
    if prompt.ndim == 2 and prompt.shape[0] == 1:
        prompt = prompt[0]
    if prompt.ndim != 1:
        raise ValueError(
            f"prompt must be a 1D token array (or a single-row 2D array), got shape {prompt.shape}"
        )
    if prompt.size == 0:
        raise ValueError("prompt must contain at least one token")
    prompt = prompt.astype(np.int64, copy=True)
    if prompt.size > max_seq_len:
        raise ValueError(
            f"prompt of {prompt.size} tokens exceeds max_seq_len={max_seq_len}; "
            "truncate the prompt explicitly instead of relying on a silent window slide"
        )
    return prompt


class DecodeState:
    """Per-layer KV caches for incremental decoding of a batch of row slots.

    One :class:`~repro.nn.attention.KVCache` per transformer layer; rows are
    independent sequences (or beams), addressed by index so a serving pool can
    multiplex many requests over one state (see
    :mod:`repro.serving.generation`).
    """

    def __init__(self, caches, max_seq_len: int, storage: str = "float32") -> None:
        self.caches = list(caches)
        self.max_seq_len = int(max_seq_len)
        self.storage = storage

    @property
    def rows(self) -> int:
        return self.caches[0].rows

    @property
    def lengths(self) -> np.ndarray:
        """Valid cached tokens per row (identical across layers)."""
        return self.caches[0].lengths

    def permute_rows(self, rows, parents) -> None:
        for cache in self.caches:
            cache.permute_rows(rows, parents)

    def reset_rows(self, rows=None) -> None:
        for cache in self.caches:
            cache.reset_rows(rows)

    @property
    def nbytes(self) -> int:
        return sum(cache.nbytes for cache in self.caches)

    @property
    def row_nbytes(self) -> int:
        """Bytes of cache storage one row slot costs (full capacity)."""
        return self.nbytes // max(1, self.rows)


def ragged_step(model, state: DecodeState, rows: np.ndarray, inputs) -> np.ndarray:
    """One padded ``forward_step`` over per-row token lists; each row's last logits.

    ``inputs[i]`` holds the new tokens of cache row ``rows[i]``, so prompt
    replays and single-token decode steps ride one call.  Returns
    ``(len(inputs), vocab)`` logits, row ``i`` taken at its last new token.
    """
    new_lens = np.asarray([len(ids) for ids in inputs], dtype=np.int64)
    tokens = np.zeros((len(inputs), int(new_lens.max())), dtype=np.int64)
    for i, ids in enumerate(inputs):
        tokens[i, : len(ids)] = ids
    logits = model.forward_step(tokens, state, rows=rows, new_lens=new_lens).data
    return logits[np.arange(len(inputs)), new_lens - 1]


class DecodeSearch:
    """Greedy (``beam_size=1``) or beam search over the continuation of one prompt.

    The one search behind ``GPTStyleLM.generate(use_cache=True)`` and the
    serving engine's generation tier: the caller owns the cache rows (one per
    beam) and runs each step through :func:`ragged_step`; the search says
    what every row feeds and keeps what it decoded.  ``suffixes``, ``scores``
    and ``done`` survive a preemption, so a restore that replays
    ``prompt + suffix`` per row lands exactly where the search left off.
    """

    def __init__(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        beam_size: int = 1,
        eos_token: Optional[int] = None,
    ) -> None:
        self.prompt = prompt
        self.max_new_tokens = int(max_new_tokens)
        self.width = max(1, int(beam_size))
        self.eos_token = eos_token
        self.suffixes: List[List[int]] = [[] for _ in range(self.width)]
        self.scores: List[float] = [0.0] * self.width
        self.done: List[bool] = [self.max_new_tokens <= 0] * self.width

    @property
    def finished(self) -> bool:
        return all(self.done)

    def step_inputs(self, prefill: bool) -> List[List[int]]:
        """Token ids each row feeds next: ``prompt + suffix`` on a prefill
        (fresh or restore), else the row's last decoded token."""
        if prefill:
            prompt = self.prompt.tolist()
            return [prompt + suffix for suffix in self.suffixes]
        return [[suffix[-1]] for suffix in self.suffixes]

    def advance(self, logits: np.ndarray, state: DecodeState, rows: np.ndarray) -> None:
        """Consume one step's last-position logits, one vector per beam row.

        Greedy appends the argmax.  Beam search expands row 0 alone on its
        first step (every row holds the same prompt), then every live row;
        the best ``width`` candidates survive and ``rows`` of ``state`` are
        permuted to follow their parents.  A row is done on EOS, or once it
        cannot take another step within ``max_new_tokens`` and the cache's
        ``max_seq_len``.
        """
        if self.width == 1:
            # the argmax of the raw logits, as the full-recompute oracle takes it
            chosen = [(0.0, 0, int(np.argmax(logits[0])))]
        else:
            shifted = logits - logits.max(axis=-1, keepdims=True)
            logp = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
            candidates = []  # (score, parent, token-or-None)
            for b in range(self.width if self.suffixes[0] else 1):
                if self.done[b]:
                    candidates.append((self.scores[b], b, None))
                    continue
                for token in np.argsort(logp[b])[-self.width :]:
                    candidates.append((self.scores[b] + float(logp[b, token]), b, int(token)))
            candidates.sort(key=lambda item: item[0], reverse=True)
            chosen = candidates[: self.width]
            state.permute_rows(rows, [parent for _, parent, _ in chosen])
        limit = min(self.max_new_tokens, state.max_seq_len - self.prompt.size)
        self.suffixes = [self.suffixes[p] + ([] if t is None else [t]) for _, p, t in chosen]
        self.scores = [score for score, _, _ in chosen]
        self.done = [
            t is None or t == self.eos_token or len(suffix) >= limit
            for (_, _, t), suffix in zip(chosen, self.suffixes)
        ]

    def best(self) -> np.ndarray:
        """The prompt followed by the highest-scoring row's continuation."""
        suffix = self.suffixes[int(np.argmax(self.scores))]
        return np.concatenate([self.prompt, np.asarray(suffix, dtype=np.int64)])


class TransformerEncoderLayer(nn.Module):
    """Pre-LN transformer block: LN -> MHSA -> Add, LN -> FFN -> Add."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        ffn_dim: Optional[int] = None,
        dropout: float = 0.0,
        local_window: Optional[int] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        ffn_dim = ffn_dim or 4 * embed_dim
        self.ln1 = nn.LayerNorm(embed_dim)
        self.attention = nn.MultiHeadSelfAttention(
            embed_dim, num_heads, dropout=dropout, local_window=local_window, rng=rng
        )
        self.attn_add = nn.Add()
        self.ln2 = nn.LayerNorm(embed_dim)
        self.fc1 = nn.Linear(embed_dim, ffn_dim, rng=rng)
        self.act = nn.GELU()
        self.fc2 = nn.Linear(ffn_dim, embed_dim, rng=rng)
        self.ffn_add = nn.Add()

    def forward(
        self,
        x: Tensor,
        causal: bool = False,
        cache=None,
        step=None,
    ) -> Tensor:
        if cache is None:
            attended = self.attention(self.ln1(x), causal=causal)
        else:
            attended = self.attention(self.ln1(x), causal=causal, cache=cache, step=step)
        x = self.attn_add(x, attended)
        x = self.ffn_add(x, self.fc2(self.act(self.fc1(self.ln2(x)))))
        return x


class BertStyleClassifier(nn.Module):
    """Encoder-only sequence classifier (BERT/DistilBERT/Longformer/Funnel stand-in).

    Parameters
    ----------
    funnel_pool:
        If True, the sequence length is halved (mean-pooled) between encoder
        layers, mimicking the Funnel transformer.
    local_window:
        If given, attention is restricted to a local window (Longformer-style).
    """

    def __init__(
        self,
        vocab_size: int = 64,
        max_seq_len: int = 64,
        num_classes: int = 4,
        embed_dim: int = 32,
        num_heads: int = 4,
        num_layers: int = 2,
        ffn_dim: Optional[int] = None,
        local_window: Optional[int] = None,
        funnel_pool: bool = False,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.embed_dim = embed_dim
        self.funnel_pool = funnel_pool
        self.token_embedding = nn.Embedding(vocab_size, embed_dim, rng=rng)
        self.position_embedding = nn.Embedding(max_seq_len, embed_dim, rng=rng)
        self.embed_add = nn.Add()
        self.layers = nn.ModuleList(
            [
                TransformerEncoderLayer(
                    embed_dim, num_heads, ffn_dim=ffn_dim, local_window=local_window, rng=rng
                )
                for _ in range(num_layers)
            ]
        )
        self.final_ln = nn.LayerNorm(embed_dim)
        self.classifier = nn.Linear(embed_dim, num_classes, rng=rng)

    def encode(self, tokens: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens, dtype=np.int64)
        _, seq_len = tokens.shape
        positions = np.broadcast_to(np.arange(seq_len), tokens.shape)
        x = self.embed_add(self.token_embedding(tokens), self.position_embedding(positions))
        for layer in self.layers:
            x = layer(x)
            if self.funnel_pool and x.shape[1] > 2:
                b, t, d = x.shape
                x = x.reshape(b, t // 2, 2, d).mean(axis=2)
        return self.final_ln(x)

    def forward(self, tokens: np.ndarray) -> Tensor:
        hidden = self.encode(tokens)
        pooled = hidden.mean(axis=1)
        return self.classifier(pooled)


class GPTStyleLM(nn.Module):
    """Decoder-only causal language model (Bloom/LLaMA/DialoGPT stand-in)."""

    def __init__(
        self,
        vocab_size: int = 48,
        max_seq_len: int = 64,
        embed_dim: int = 32,
        num_heads: int = 4,
        num_layers: int = 2,
        ffn_dim: Optional[int] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.vocab_size = vocab_size
        self.max_seq_len = max_seq_len
        self.token_embedding = nn.Embedding(vocab_size, embed_dim, rng=rng)
        self.position_embedding = nn.Embedding(max_seq_len, embed_dim, rng=rng)
        self.embed_add = nn.Add()
        self.layers = nn.ModuleList(
            [
                TransformerEncoderLayer(embed_dim, num_heads, ffn_dim=ffn_dim, rng=rng)
                for _ in range(num_layers)
            ]
        )
        self.final_ln = nn.LayerNorm(embed_dim)
        self.lm_head = nn.Linear(embed_dim, vocab_size, rng=rng)

    def forward(self, tokens: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens, dtype=np.int64)
        _, seq_len = tokens.shape
        positions = np.broadcast_to(np.arange(seq_len), tokens.shape)
        x = self.embed_add(self.token_embedding(tokens), self.position_embedding(positions))
        for layer in self.layers:
            x = layer(x, causal=True)
        return self.lm_head(self.final_ln(x))

    # ------------------------------------------------------------------
    # incremental decode
    # ------------------------------------------------------------------
    def new_decode_state(
        self,
        rows: int = 1,
        storage: str = "float32",
        capacity: Optional[int] = None,
    ) -> DecodeState:
        """Allocate per-layer KV caches for ``rows`` independently-decoding slots.

        ``storage="float32"`` keeps the cache exact; an FP8 format name
        (``"E4M3"``, ...) stores packed codes + per-token scales (~4x smaller).
        """
        capacity = self.max_seq_len if capacity is None else int(capacity)
        caches = [
            nn.KVCache(
                rows,
                layer.attention.num_heads,
                layer.attention.head_dim,
                capacity,
                storage=storage,
            )
            for layer in self.layers
        ]
        return DecodeState(caches, self.max_seq_len, storage=storage)

    def forward_step(
        self,
        tokens: np.ndarray,
        state: DecodeState,
        rows=None,
        new_lens=None,
    ) -> Tensor:
        """One incremental step: consume new tokens, append K/V, return logits.

        ``tokens`` is ``(B, S)`` — ``S`` new tokens per row, padded; row ``i``
        owns the first ``new_lens[i]`` (all ``S`` when None).  A prefill is
        simply a step on empty rows with ``S = prompt length``; a decode step
        is ``S = 1``.  Position ids continue from each row's cached length, so
        logits at the last valid position of each row match a full forward
        over the whole sequence.  Returns ``(B, S, vocab)`` logits; positions
        at or past a row's ``new_lens`` are padding garbage.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2:
            raise ValueError(f"forward_step expects (rows, new_tokens) ids, got {tokens.shape}")
        _, s = tokens.shape
        # rows, lengths, write positions and mask are the same in every layer
        step = nn.CacheStep(state.lengths, rows, new_lens, s)
        if step.total > self.max_seq_len:
            raise RuntimeError(
                f"decode step would reach {step.total} cached tokens, past max_seq_len="
                f"{self.max_seq_len}; the position embedding has no ids beyond it"
            )
        positions = np.minimum(step.positions, self.max_seq_len - 1)
        x = self.embed_add(self.token_embedding(tokens), self.position_embedding(positions))
        for layer, cache in zip(self.layers, state.caches):
            x = layer(x, causal=True, cache=cache, step=step)
        return self.lm_head(self.final_ln(x))

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def generate(
        self,
        prompt: np.ndarray,
        max_new_tokens: int = 32,
        beam_size: int = 1,
        use_cache: bool = True,
        kv_cache: str = "float32",
        eos_token: Optional[int] = None,
    ) -> np.ndarray:
        """Greedy (beam_size=1) or beam-search continuation of a single prompt.

        ``prompt`` may be a 1D token array, a single-row 2D array, or a
        :class:`~repro.autograd.tensor.Tensor` of either; the full sequence
        including the prompt is returned.  With ``use_cache`` (default) the
        prompt is prefilled once and each new token costs one single-token
        step against the per-layer KV cache (``kv_cache="float32"`` exact, or
        an FP8 format name for a packed quantized cache); without it every
        step re-runs the full O(T²) forward — kept as the bit-exactness
        oracle and for continuations that must slide past ``max_seq_len``.
        ``eos_token`` stops a sequence early after emitting it.
        """
        from repro.autograd.tensor import no_grad

        prompt = coerce_prompt(prompt, self.max_seq_len)
        if prompt.size + max_new_tokens > self.max_seq_len:
            # the cache cannot slide; preserve the historical sliding-window
            # behaviour for continuations past the trained sequence length
            use_cache = False
        with no_grad():
            if not use_cache:
                return self._generate_full_recompute(prompt, max_new_tokens, beam_size, eos_token)
            search = DecodeSearch(prompt, max_new_tokens, beam_size, eos_token)
            state = self.new_decode_state(search.width, storage=kv_cache)
            rows = np.arange(search.width)
            prefill = True
            while not search.finished:
                logits = ragged_step(self, state, rows, search.step_inputs(prefill))
                search.advance(logits, state, rows)
                prefill = False
            return search.best()

    def _generate_full_recompute(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        beam_size: int,
        eos_token: Optional[int],
    ) -> np.ndarray:
        """The pre-cache O(T²) loop (sliding window past max_seq_len)."""
        if beam_size <= 1:
            seq = prompt.copy()
            for _ in range(max_new_tokens):
                window = seq[-self.max_seq_len :]
                logits = self.forward(window[None, :]).data[0, -1]
                token = int(np.argmax(logits))
                seq = np.append(seq, token)
                if eos_token is not None and token == eos_token:
                    break
            return seq
        beams = [(prompt.copy(), 0.0, False)]
        for _ in range(max_new_tokens):
            candidates = []
            for seq, score, done in beams:
                if done:
                    candidates.append((seq, score, True))
                    continue
                window = seq[-self.max_seq_len :]
                logits = self.forward(window[None, :]).data[0, -1]
                logp = logits - np.log(np.sum(np.exp(logits - logits.max()))) - logits.max()
                top = np.argsort(logp)[-beam_size:]
                for token in top:
                    finished = eos_token is not None and int(token) == eos_token
                    candidates.append(
                        (np.append(seq, int(token)), score + float(logp[token]), finished)
                    )
            candidates.sort(key=lambda item: item[1], reverse=True)
            beams = candidates[:beam_size]
            if all(done for _, _, done in beams):
                break
        return beams[0][0]


class ViTStyleClassifier(nn.Module):
    """Vision transformer: patch embedding + encoder layers + mean-pool classifier."""

    def __init__(
        self,
        num_classes: int = 8,
        image_size: int = 16,
        patch_size: int = 4,
        in_channels: int = 3,
        embed_dim: int = 32,
        num_heads: int = 4,
        num_layers: int = 2,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        if image_size % patch_size:
            raise ValueError("image_size must be divisible by patch_size")
        self.patch_size = patch_size
        num_patches = (image_size // patch_size) ** 2
        self.patch_embed = nn.Conv2d(in_channels, embed_dim, patch_size, stride=patch_size, rng=rng)
        self.position_embedding = nn.Embedding(num_patches, embed_dim, rng=rng)
        self.embed_add = nn.Add()
        self.layers = nn.ModuleList(
            [TransformerEncoderLayer(embed_dim, num_heads, rng=rng) for _ in range(num_layers)]
        )
        self.final_ln = nn.LayerNorm(embed_dim)
        self.classifier = nn.Linear(embed_dim, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        patches = self.patch_embed(x)
        n, d, h, w = patches.shape
        seq = patches.reshape(n, d, h * w).transpose(0, 2, 1)
        positions = np.broadcast_to(np.arange(h * w), (n, h * w))
        seq = self.embed_add(seq, self.position_embedding(positions))
        for layer in self.layers:
            seq = layer(seq)
        pooled = self.final_ln(seq).mean(axis=1)
        return self.classifier(pooled)
