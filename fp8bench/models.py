"""Model factories and seeded inputs for the three workloads.

The factories are module-level functions so that a spawned worker process
can import them by name (``ServingEngine.from_checkpoint(...,
worker_mode="process")`` pickles the factory).  Weights come from a fixed
seeded initialisation, never from training, so set-up costs the same on
every run; the workload seed only drives the generated inputs.
"""

from __future__ import annotations

import numpy as np

import repro.nn as nn
from repro.autograd.tensor import Tensor
from repro.models.transformer import BertStyleClassifier, GPTStyleLM

#: weight initialisation seed, shared by every run
INIT_SEED = 0

ENCODER_VOCAB = 256
ENCODER_MAX_LEN = 64
#: token sequence lengths of the encoder traffic: short and long requests
ENCODER_LENGTHS = (8, 16, 32, 48)

MLP_IN = 512

LM_VOCAB = 128
LM_MAX_LEN = 64
#: prompt lengths and output lengths (inclusive ranges) of the generation traffic
LM_PROMPT_LENGTHS = (4, 16)
LM_NEW_TOKENS = (8, 24)


class TokenAdapter(nn.Module):
    """Hands a token-id model the raw id array the engine wraps in a ``Tensor``.

    ``ServingEngine`` wraps every stacked batch in ``Tensor`` before calling
    the model, and ``BertStyleClassifier.encode`` then fails on
    ``np.asarray(tokens, dtype=np.int64)``.  The adapter unwraps the batch;
    see NOTES.md for the defect record.
    """

    def __init__(self, inner: nn.Module) -> None:
        super().__init__()
        self.inner = inner

    def forward(self, tokens) -> Tensor:
        return self.inner(tokens.data if isinstance(tokens, Tensor) else tokens)


def make_encoder() -> nn.Module:
    model = TokenAdapter(
        BertStyleClassifier(
            vocab_size=ENCODER_VOCAB,
            max_seq_len=ENCODER_MAX_LEN,
            num_classes=8,
            embed_dim=64,
            num_heads=4,
            num_layers=2,
            rng=INIT_SEED,
        )
    )
    # a root left in training mode bypasses plan dispatch
    model.eval()
    return model


def make_mlp() -> nn.Module:
    """The ``bench_serving_path`` MLP: 512 -> 1024 -> 1024 -> 256."""
    rng = np.random.default_rng(INIT_SEED)
    model = nn.Sequential(
        nn.Linear(MLP_IN, 1024, rng=rng),
        nn.ReLU(),
        nn.Linear(1024, 1024, rng=rng),
        nn.ReLU(),
        nn.Linear(1024, 256, rng=rng),
    )
    model.eval()
    return model


def make_lm() -> nn.Module:
    model = GPTStyleLM(
        vocab_size=LM_VOCAB,
        max_seq_len=LM_MAX_LEN,
        embed_dim=64,
        num_heads=4,
        num_layers=2,
        rng=INIT_SEED,
    )
    model.eval()
    return model


def identity(batch):
    """Calibration input preparation for token models: keep the id array."""
    return batch


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def spread(rng: np.random.Generator, values, count: int) -> np.ndarray:
    """``count`` draws covering ``values`` evenly, in a seeded order.

    Every seed gets the same mix of values (request lengths), so the work in
    a phase does not move with the seed; only the order and contents do.
    """
    values = np.asarray(values)
    picks = values[np.arange(count) * len(values) // max(count, 1)]
    rng.shuffle(picks)
    return picks


def encoder_requests(rng: np.random.Generator, count: int) -> list:
    lengths = spread(rng, ENCODER_LENGTHS, count)
    return [rng.integers(0, ENCODER_VOCAB, int(n), dtype=np.int64) for n in lengths]


def mlp_requests(rng: np.random.Generator, count: int) -> list:
    batch = rng.normal(0.0, 1.0, (count, MLP_IN)).astype(np.float32)
    return list(batch)


def lm_requests(rng: np.random.Generator, count: int) -> list:
    """``(prompt, max_new_tokens)`` pairs; no EOS, so the work per request is fixed."""
    low, high = LM_PROMPT_LENGTHS
    new_low, new_high = LM_NEW_TOKENS
    prompt_lengths = spread(rng, np.arange(low, high + 1), count)
    new_tokens = spread(rng, np.arange(new_low, new_high + 1), count)
    return [
        (rng.integers(0, LM_VOCAB, int(n), dtype=np.int64), int(new))
        for n, new in zip(prompt_lengths, new_tokens)
    ]


def encoder_calibration(rng: np.random.Generator) -> list:
    return [rng.integers(0, ENCODER_VOCAB, (8, n), dtype=np.int64) for n in ENCODER_LENGTHS]


def mlp_calibration(rng: np.random.Generator) -> list:
    return [rng.normal(0.0, 1.0, (32, MLP_IN)).astype(np.float32) for _ in range(4)]


def lm_calibration(rng: np.random.Generator) -> list:
    return [rng.integers(0, LM_VOCAB, (8, n), dtype=np.int64) for n in (8, 16, 32, 48)]
