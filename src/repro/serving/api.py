"""Typed request API for the serving engine.

Two small request dataclasses describe everything a caller can ask of the
engine:

* :class:`SubmitOptions` — scheduling attributes of a one-shot forward
  (priority, queue-time deadline).  ``engine.submit(x, SubmitOptions(...))``.
* :class:`GenerationRequest` — everything describing an autoregressive
  generation: decode budget (``max_new_tokens``), search (``beam_size``),
  termination (``eos_token``), delivery (``stream``), KV-cache storage
  (``kv_cache``: ``"float32"`` or an FP8 format name), plus the same
  scheduling attributes.  ``engine.generate(prompt, GenerationRequest(...))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "SubmitOptions",
    "GenerationRequest",
    "WORKER_MODES",
    "validate_worker_mode",
]

#: execution tiers for engine workers — ``"thread"`` (N driver threads over
#: shared/replicated models, GIL-bound, supports generation) or ``"process"``
#: (N worker processes over one re-mapped checkpoint, crash-isolated,
#: GIL-free; one-shot forwards only)
WORKER_MODES = ("thread", "process")


def validate_worker_mode(worker_mode: str) -> str:
    """Normalise and validate an engine ``worker_mode`` value."""
    if worker_mode not in WORKER_MODES:
        raise ValueError(
            f"worker_mode must be one of {WORKER_MODES}, got {worker_mode!r}"
        )
    return worker_mode


@dataclass(frozen=True)
class SubmitOptions:
    """Scheduling options for one submitted request.

    Parameters
    ----------
    priority:
        Higher values are served first.  Under overload with
        ``shed_policy="priority"`` the lowest priority class is shed first.
    deadline_ms:
        Queue-time budget: the admission window closes early to start the
        forward before the deadline, and a request still queued past it fails
        with :class:`~repro.serving.errors.DeadlineExceeded`.
    max_retries:
        How many times the engine may *requeue* this request after a worker
        crash or a transient forward error before failing the future with
        :class:`~repro.serving.errors.WorkerCrashed` (crashes) or the
        original exception (forward errors).  One budget covers every crash
        flavour: thread-worker deaths and — under ``worker_mode="process"``
        — worker-*process* deaths (``SIGKILL``/segfault/OOM-kill) count
        against the same ``max_retries``.  Only meaningful for idempotent
        forwards — a retried request re-runs the whole forward.  Default 0:
        fail fast on the first error, exactly the pre-retry behaviour.
    retry_backoff_ms:
        Base of the exponential backoff between retry attempts: attempt *k*
        is requeued after ``retry_backoff_ms * 2**(k-1)`` milliseconds.
    """

    priority: int = 0
    deadline_ms: Optional[float] = None
    max_retries: int = 0
    retry_backoff_ms: float = 25.0

    def validated(self) -> "SubmitOptions":
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {self.deadline_ms!r}")
        if int(self.max_retries) < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.retry_backoff_ms < 0:
            raise ValueError(f"retry_backoff_ms must be >= 0, got {self.retry_backoff_ms!r}")
        return self


@dataclass(frozen=True)
class GenerationRequest:
    """Everything describing one autoregressive generation request.

    Parameters
    ----------
    max_new_tokens:
        Decode budget; generation also stops at the model's ``max_seq_len``.
    beam_size:
        1 for greedy decoding, larger for beam search.
    stream:
        Return a token iterator instead of a future (greedy only).
    eos_token:
        Stop a sequence early after emitting this token id.
    kv_cache:
        Decode-state storage: ``"float32"`` (exact) or an FP8 format name
        (``"E4M3"``, ``"E5M2"``, ...) for a packed quantized cache.
    priority / deadline_ms:
        Scheduling attributes; the deadline bounds queue time until the
        prefill is admitted (a running generation is never killed by it).
    """

    max_new_tokens: int = 32
    beam_size: int = 1
    stream: bool = False
    eos_token: Optional[int] = None
    kv_cache: str = "float32"
    priority: int = 0
    deadline_ms: Optional[float] = None

    def validated(self) -> "GenerationRequest":
        if int(self.max_new_tokens) < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens!r}")
        if int(self.beam_size) < 1:
            raise ValueError(f"beam_size must be >= 1, got {self.beam_size!r}")
        if self.stream and int(self.beam_size) > 1:
            raise ValueError("stream=True requires beam_size=1 (beam tokens are not final)")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {self.deadline_ms!r}")
        if not isinstance(self.kv_cache, str) or not self.kv_cache:
            raise ValueError(
                f"kv_cache must be 'float32' or an FP8 format name, got {self.kv_cache!r}"
            )
        return self
