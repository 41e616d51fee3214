"""repro — reproduction of "Efficient Post-training Quantization with FP8 Formats" (MLSys 2024).

The package is organised as:

``repro.fp8``
    Bit-exact emulation of the E5M2/E4M3/E3M4 FP8 formats and the INT8 baseline.
``repro.autograd`` / ``repro.nn`` / ``repro.optim``
    A pure-numpy neural network substrate (tensors, layers, optimizers).
``repro.data`` / ``repro.models`` / ``repro.training``
    Synthetic datasets and a trained-from-scratch model zoo that stands in for
    the paper's 75 pretrained architectures.
``repro.quantization``
    The paper's contribution: the post-training quantization workflow
    (standard & extended schemes, calibration, BatchNorm calibration,
    SmoothQuant, mixed FP8 formats, dynamic quantization, auto-tuning).
``repro.evaluation``
    The experiment harness that regenerates every table and figure.
``repro.serialization``
    Packed single-file checkpoints: save/load converted models without ever
    materialising float32 weights — including zero-copy mmap loads where
    codes are paged in on first touch.
``repro.serving``
    The throughput layer: a batched request engine over one served model and
    cross-layer pipelined block prefetch for the streaming weight path.
"""

from repro import fp8
from repro.fp8 import E3M4, E4M3, E5M2, get_format

__version__ = "0.1.0"

__all__ = ["fp8", "E5M2", "E4M3", "E3M4", "get_format", "__version__"]
