"""BatchNorm calibration (paper Section 3 / Figure 7).

Quantizing the convolutions that feed a BatchNorm shifts the distribution of
its inputs, so the running mean/variance collected during FP32 training no
longer match.  The fix (following Sun et al., 2019) is to *recompute* the
running statistics on calibration data after conversion — without touching the
learnable affine parameters.  The paper additionally studies how the number of
calibration samples and the choice of data augmentation (training-style vs
inference-style transforms) affect the recovered accuracy; both knobs are
exposed here and swept by ``benchmarks/bench_figure7_bn_calibration.py``.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.data.augmentation import get_transform
from repro.data.synthetic import ArrayDataset
from repro.nn.module import Module, bump_state_epoch
from repro.nn.norm import _BatchNorm
from repro.utils.logging import get_logger
from repro.utils.seeding import seeded_rng

__all__ = ["calibrate_batchnorm", "bn_calibration_pool"]

logger = get_logger("quantization.bn_calibration")


def bn_calibration_pool(
    calibration_data: Union[ArrayDataset, np.ndarray, Sequence[np.ndarray]],
) -> np.ndarray:
    """The raw sample array BatchNorm calibration draws (and augments) from.

    Accepts an ``ArrayDataset``, one ndarray of samples, or a list/tuple of
    ndarray batches (concatenated).  Anything else — notably batches already
    passed through ``prepare_inputs`` (Tensors, tuples) — raises
    ``TypeError``: augmentation needs the raw image arrays.
    """
    if isinstance(calibration_data, ArrayDataset):
        return calibration_data.inputs
    if isinstance(calibration_data, np.ndarray):
        return calibration_data
    if (
        isinstance(calibration_data, (list, tuple))
        and calibration_data
        and all(isinstance(batch, np.ndarray) for batch in calibration_data)
    ):
        return np.concatenate(calibration_data)
    got = type(calibration_data).__name__
    if isinstance(calibration_data, (list, tuple)):
        got += f" of {sorted({type(batch).__name__ for batch in calibration_data})}"
    raise TypeError(
        "BatchNorm calibration augments raw samples, so it takes an ArrayDataset, one "
        f"ndarray of samples, or a sequence of ndarray batches; got {got}"
    )


def calibrate_batchnorm(
    model: Module,
    calibration_data: Union[ArrayDataset, np.ndarray, Sequence[np.ndarray]],
    prepare_inputs: Callable[[np.ndarray], object] = lambda x: Tensor(x),
    num_samples: int = 3000,
    transform: str = "training",
    batch_size: int = 32,
    reset_stats: bool = True,
    seed: int = 0,
) -> int:
    """Recompute BatchNorm running statistics on (augmented) calibration data.

    Parameters
    ----------
    model:
        A (typically already quantized) model containing BatchNorm modules.
    calibration_data:
        Source images: an ``ArrayDataset``, one array of samples, or a
        sequence of ndarray batches (pooled into one array; see
        :func:`bn_calibration_pool`).  Sampled with
        replacement up to ``num_samples`` so the paper's 300 / 3000 / 10000
        sample-size sweep works even from a small calibration pool.
    transform:
        ``"training"`` (random shift/flip/noise, the paper's recommendation) or
        ``"inference"`` (no augmentation).
    reset_stats:
        Reset the running statistics first so the result is a clean cumulative
        average over the calibration batches.

    Returns
    -------
    int
        The number of BatchNorm modules that were recalibrated (0 means the
        model has none and nothing was done).
    """
    bn_modules = [m for _, m in model.named_modules() if isinstance(m, _BatchNorm)]
    if not bn_modules:
        return 0

    pool = bn_calibration_pool(calibration_data)
    rng = seeded_rng(seed)
    idx = rng.choice(len(pool), size=num_samples, replace=num_samples > len(pool))
    samples = pool[idx]
    transform_fn = get_transform(transform)

    for bn in bn_modules:
        if reset_stats:
            bn.reset_running_stats()
        bn.calibrating = True

    model.eval()
    try:
        with no_grad():
            for start in range(0, len(samples), batch_size):
                batch = transform_fn(samples[start : start + batch_size], rng)
                model(prepare_inputs(batch))
    finally:
        for bn in bn_modules:
            bn.calibrating = False
        # running stats changed under any compiled plans — invalidate them
        bump_state_epoch()

    logger.debug(
        "recalibrated %d BatchNorm modules on %d samples (%s transform)",
        len(bn_modules),
        len(samples),
        transform,
    )
    return len(bn_modules)
