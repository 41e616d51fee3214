"""A minimal neural-network module library (the PyTorch ``nn`` stand-in).

Modules own :class:`~repro.nn.module.Parameter` tensors, support named
traversal, submodule replacement (used by the quantization converter to swap
float modules for quantized ones), train/eval modes and state dicts.
"""

from repro.nn.module import Module, Parameter
from repro.nn.containers import Sequential, ModuleList
from repro.nn.layers import Linear, Conv2d, Embedding, EmbeddingBag, Dropout, Flatten, Identity
from repro.nn.norm import BatchNorm1d, BatchNorm2d, LayerNorm, GroupNorm
from repro.nn.activations import ReLU, GELU, SiLU, Sigmoid, Tanh, Softmax
from repro.nn.pooling import MaxPool2d, AvgPool2d, AdaptiveAvgPool2d
from repro.nn.attention import CacheStep, KVCache, MultiHeadSelfAttention, BatchMatMul
from repro.nn.elementwise import Add, Mul
from repro.nn import functional, init

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "Linear",
    "Conv2d",
    "Embedding",
    "EmbeddingBag",
    "Dropout",
    "Flatten",
    "Identity",
    "BatchNorm1d",
    "BatchNorm2d",
    "LayerNorm",
    "GroupNorm",
    "ReLU",
    "GELU",
    "SiLU",
    "Sigmoid",
    "Tanh",
    "Softmax",
    "MaxPool2d",
    "AvgPool2d",
    "AdaptiveAvgPool2d",
    "CacheStep",
    "KVCache",
    "MultiHeadSelfAttention",
    "BatchMatMul",
    "Add",
    "Mul",
    "functional",
    "init",
]
