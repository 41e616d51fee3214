"""Post-training quantization framework (the paper's core contribution).

The public entry point is :func:`repro.quantization.workflow.quantize_model`,
which implements the Figure 2 workflow:

1. build a recipe (:class:`~repro.quantization.qconfig.QuantizationRecipe`) —
   either the *standard scheme* (Conv/Linear/Embedding, per-channel weights,
   per-tensor activations, max calibration, first & last convolution-network
   operators kept in FP32) or the *extended scheme* (adds LayerNorm, BatchNorm,
   MatMul/BMM and element-wise operators, mixed FP8 formats, dynamic
   quantization);
2. optionally apply SmoothQuant to NLP models;
3. insert observers, run calibration data, convert modules to quantized
   emulation;
4. optionally recalibrate BatchNorm statistics on augmented data;
5. evaluate, and (via :mod:`repro.quantization.tuning`) iterate recipes until
   the accuracy target is met.
"""

from repro.quantization.qconfig import (
    QuantFormat,
    Granularity,
    Approach,
    TensorQuantConfig,
    OperatorQuantConfig,
    QuantizationRecipe,
    standard_recipe,
    extended_recipe,
    int8_recipe,
)
from repro.quantization.observers import (
    Observer,
    MinMaxObserver,
    MovingAverageMinMaxObserver,
    PercentileObserver,
    MSEObserver,
    KLObserver,
    build_observer,
)
from repro.quantization.qmodules import (
    QuantizedModule,
    QuantizedLinear,
    QuantizedConv2d,
    QuantizedEmbedding,
    QuantizedLayerNorm,
    QuantizedBatchNorm2d,
    QuantizedBatchMatMul,
    QuantizedAdd,
    QuantizedMul,
)
from repro.quantization.workflow import (
    QuantizationResult,
    prepare_model,
    calibrate_model,
    convert_model,
    quantize_model,
    deploy_model,
    set_serving_mode,
    storage_report,
    resident_report,
    clone_module,
)
from repro.quantization.bn_calibration import calibrate_batchnorm
from repro.quantization.smoothquant import apply_smoothquant
from repro.quantization.mixed import assign_mixed_formats, classify_tensor
from repro.quantization.tuning import AutoTuner, TuningResult
from repro.quantization.metrics import (
    mse,
    sqnr,
    relative_accuracy_loss,
    meets_accuracy_target,
)

__all__ = [
    "QuantFormat",
    "Granularity",
    "Approach",
    "TensorQuantConfig",
    "OperatorQuantConfig",
    "QuantizationRecipe",
    "standard_recipe",
    "extended_recipe",
    "int8_recipe",
    "Observer",
    "MinMaxObserver",
    "MovingAverageMinMaxObserver",
    "PercentileObserver",
    "MSEObserver",
    "KLObserver",
    "build_observer",
    "QuantizedModule",
    "QuantizedLinear",
    "QuantizedConv2d",
    "QuantizedEmbedding",
    "QuantizedLayerNorm",
    "QuantizedBatchNorm2d",
    "QuantizedBatchMatMul",
    "QuantizedAdd",
    "QuantizedMul",
    "QuantizationResult",
    "prepare_model",
    "calibrate_model",
    "convert_model",
    "quantize_model",
    "deploy_model",
    "set_serving_mode",
    "storage_report",
    "resident_report",
    "clone_module",
    "calibrate_batchnorm",
    "apply_smoothquant",
    "assign_mixed_formats",
    "classify_tensor",
    "AutoTuner",
    "TuningResult",
    "mse",
    "sqnr",
    "relative_accuracy_loss",
    "meets_accuracy_target",
]
