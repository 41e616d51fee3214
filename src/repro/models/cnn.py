"""Convolutional model family (ImageNet-style classifiers, scaled to 16x16 inputs).

Each class mirrors the characteristic structure of a well-known architecture
family evaluated in the paper:

* :class:`TinyVGG` — plain conv/ReLU/pool stacks (VGG-13 without BatchNorm).
* :class:`TinyResNet` — residual BasicBlocks with BatchNorm and explicit
  residual :class:`~repro.nn.elementwise.Add` modules (ResNet-18/50 stand-in).
* :class:`TinyDenseNet` — dense blocks with feature concatenation; its
  BatchNorms cannot be folded into a preceding convolution, which is exactly
  why the paper's extended scheme needs BatchNorm quantization support.
* :class:`TinyMobileNet` — depthwise-separable convolutions (MobileNetV2/V3).
* :class:`TinyShuffleNet` — grouped convolutions + channel shuffle.
* :class:`TinyEfficientNet` — MBConv blocks with SiLU and squeeze-excitation,
  the family the paper calls out as difficult for INT8.
* :class:`TinyInception` — parallel multi-branch blocks (GoogleNet).
"""

from __future__ import annotations

from typing import List, Sequence

import repro.nn as nn
from repro.autograd.tensor import Tensor
from repro.utils.seeding import RngLike, seeded_rng

__all__ = [
    "TinyVGG",
    "TinyResNet",
    "TinyDenseNet",
    "TinyMobileNet",
    "TinyShuffleNet",
    "TinyEfficientNet",
    "TinyInception",
]


def _conv_bn_relu(cin: int, cout: int, k: int, stride: int, rng, groups: int = 1) -> nn.Sequential:
    return nn.Sequential(
        nn.Conv2d(cin, cout, k, stride=stride, padding=k // 2, groups=groups, bias=False, rng=rng),
        nn.BatchNorm2d(cout),
        nn.ReLU(),
    )


class TinyVGG(nn.Module):
    """VGG-style plain convolutional classifier (optionally with BatchNorm)."""

    def __init__(
        self,
        num_classes: int = 8,
        in_channels: int = 3,
        widths: Sequence[int] = (16, 32, 64),
        batch_norm: bool = False,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        layers: List[nn.Module] = []
        cin = in_channels
        for width in widths:
            layers.append(nn.Conv2d(cin, width, 3, padding=1, rng=rng))
            if batch_norm:
                layers.append(nn.BatchNorm2d(width))
            layers.append(nn.ReLU())
            layers.append(nn.Conv2d(width, width, 3, padding=1, rng=rng))
            if batch_norm:
                layers.append(nn.BatchNorm2d(width))
            layers.append(nn.ReLU())
            layers.append(nn.MaxPool2d(2))
            cin = width
        self.features = nn.Sequential(*layers)
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.classifier = nn.Linear(cin, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.features(x)
        x = self.flatten(self.pool(x))
        return self.classifier(x)


class BasicBlock(nn.Module):
    """ResNet basic block: two 3x3 convs with BatchNorm and a residual Add."""

    def __init__(self, cin: int, cout: int, stride: int = 1, rng: RngLike = None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.conv1 = nn.Conv2d(cin, cout, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(cout)
        self.relu1 = nn.ReLU()
        self.conv2 = nn.Conv2d(cout, cout, 3, padding=1, bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(cout)
        self.relu2 = nn.ReLU()
        self.residual_add = nn.Add()
        if stride != 1 or cin != cout:
            self.downsample = nn.Sequential(
                nn.Conv2d(cin, cout, 1, stride=stride, bias=False, rng=rng),
                nn.BatchNorm2d(cout),
            )
        else:
            self.downsample = nn.Identity()

    def forward(self, x: Tensor) -> Tensor:
        identity = self.downsample(x)
        out = self.relu1(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        return self.relu2(self.residual_add(out, identity))


class TinyResNet(nn.Module):
    """ResNet-style classifier with a configurable number of stages/blocks."""

    def __init__(
        self,
        num_classes: int = 8,
        in_channels: int = 3,
        widths: Sequence[int] = (16, 32, 64),
        blocks_per_stage: int = 1,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.stem = _conv_bn_relu(in_channels, widths[0], 3, 1, rng)
        stages: List[nn.Module] = []
        cin = widths[0]
        for stage_idx, width in enumerate(widths):
            for block_idx in range(blocks_per_stage):
                stride = 2 if (stage_idx > 0 and block_idx == 0) else 1
                stages.append(BasicBlock(cin, width, stride=stride, rng=rng))
                cin = width
        self.stages = nn.Sequential(*stages)
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.fc = nn.Linear(cin, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        x = self.stages(x)
        return self.fc(self.flatten(self.pool(x)))


class DenseBlockLayer(nn.Module):
    """One DenseNet layer: BN -> ReLU -> Conv, output concatenated with the input."""

    def __init__(self, cin: int, growth: int, rng: RngLike = None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.bn = nn.BatchNorm2d(cin)
        self.relu = nn.ReLU()
        self.conv = nn.Conv2d(cin, growth, 3, padding=1, bias=False, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        new = self.conv(self.relu(self.bn(x)))
        return Tensor.concatenate([x, new], axis=1)


class TinyDenseNet(nn.Module):
    """DenseNet-style classifier; BatchNorm layers are *not* foldable into convs."""

    def __init__(
        self,
        num_classes: int = 8,
        in_channels: int = 3,
        growth: int = 8,
        layers_per_block: int = 3,
        num_blocks: int = 2,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        width = 2 * growth
        self.stem = nn.Conv2d(in_channels, width, 3, padding=1, rng=rng)
        blocks: List[nn.Module] = []
        for b in range(num_blocks):
            for _ in range(layers_per_block):
                blocks.append(DenseBlockLayer(width, growth, rng=rng))
                width += growth
            if b != num_blocks - 1:
                blocks.append(_conv_bn_relu(width, width // 2, 1, 1, rng))
                width //= 2
                blocks.append(nn.AvgPool2d(2))
        self.blocks = nn.Sequential(*blocks)
        self.final_bn = nn.BatchNorm2d(width)
        self.relu = nn.ReLU()
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.classifier = nn.Linear(width, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        x = self.blocks(x)
        x = self.relu(self.final_bn(x))
        return self.classifier(self.flatten(self.pool(x)))


class DepthwiseSeparable(nn.Module):
    """Depthwise 3x3 + pointwise 1x1 convolution block (MobileNet building block)."""

    def __init__(self, cin: int, cout: int, stride: int = 1, rng: RngLike = None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.depthwise = _conv_bn_relu(cin, cin, 3, stride, rng, groups=cin)
        self.pointwise = _conv_bn_relu(cin, cout, 1, 1, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.pointwise(self.depthwise(x))


class TinyMobileNet(nn.Module):
    """MobileNet-style classifier built from depthwise-separable convolutions."""

    def __init__(
        self,
        num_classes: int = 8,
        in_channels: int = 3,
        widths: Sequence[int] = (16, 32, 64),
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.stem = _conv_bn_relu(in_channels, widths[0], 3, 1, rng)
        blocks: List[nn.Module] = []
        cin = widths[0]
        for width in widths:
            blocks.append(
                DepthwiseSeparable(cin, width, stride=1 if width == widths[0] else 2, rng=rng)
            )
            cin = width
        self.blocks = nn.Sequential(*blocks)
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.classifier = nn.Linear(cin, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        x = self.blocks(x)
        return self.classifier(self.flatten(self.pool(x)))


class ChannelShuffle(nn.Module):
    """Shuffle channels across groups (ShuffleNet)."""

    def __init__(self, groups: int) -> None:
        super().__init__()
        self.groups = groups

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        g = self.groups
        return x.reshape(n, g, c // g, h, w).transpose(0, 2, 1, 3, 4).reshape(n, c, h, w)


class TinyShuffleNet(nn.Module):
    """ShuffleNet-style classifier with grouped 1x1 convolutions and channel shuffles."""

    def __init__(
        self,
        num_classes: int = 8,
        in_channels: int = 3,
        width: int = 32,
        groups: int = 4,
        num_blocks: int = 3,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.stem = _conv_bn_relu(in_channels, width, 3, 1, rng)
        blocks: List[nn.Module] = []
        for i in range(num_blocks):
            blocks.append(_conv_bn_relu(width, width, 1, 1, rng, groups=groups))
            blocks.append(ChannelShuffle(groups))
            blocks.append(
                _conv_bn_relu(width, width, 3, 2 if i == num_blocks - 1 else 1, rng, groups=width)
            )
            blocks.append(_conv_bn_relu(width, width, 1, 1, rng, groups=groups))
        self.blocks = nn.Sequential(*blocks)
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.classifier = nn.Linear(width, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        x = self.blocks(x)
        return self.classifier(self.flatten(self.pool(x)))


class SqueezeExcite(nn.Module):
    """Squeeze-and-excitation gate with a multiplicative (quantizable) Mul."""

    def __init__(self, channels: int, reduction: int = 4, rng: RngLike = None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        hidden = max(channels // reduction, 4)
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.fc1 = nn.Conv2d(channels, hidden, 1, rng=rng)
        self.act = nn.SiLU()
        self.fc2 = nn.Conv2d(hidden, channels, 1, rng=rng)
        self.gate = nn.Sigmoid()
        self.scale_mul = nn.Mul()

    def forward(self, x: Tensor) -> Tensor:
        s = self.gate(self.fc2(self.act(self.fc1(self.pool(x)))))
        return self.scale_mul(x, s)


class MBConv(nn.Module):
    """EfficientNet MBConv block: expand -> depthwise -> SE -> project (+ residual)."""

    def __init__(
        self, cin: int, cout: int, expand: int = 2, stride: int = 1, rng: RngLike = None
    ) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        hidden = cin * expand
        self.expand_conv = nn.Sequential(
            nn.Conv2d(cin, hidden, 1, bias=False, rng=rng), nn.BatchNorm2d(hidden), nn.SiLU()
        )
        self.depthwise = nn.Sequential(
            nn.Conv2d(
                hidden, hidden, 3, stride=stride, padding=1, groups=hidden, bias=False, rng=rng
            ),
            nn.BatchNorm2d(hidden),
            nn.SiLU(),
        )
        self.se = SqueezeExcite(hidden, rng=rng)
        self.project = nn.Sequential(
            nn.Conv2d(hidden, cout, 1, bias=False, rng=rng), nn.BatchNorm2d(cout)
        )
        self.use_residual = stride == 1 and cin == cout
        if self.use_residual:
            # only a block that adds has the module: an unreached Add would be
            # wrapped by the extended recipe and never see calibration data
            self.residual_add = nn.Add()

    def forward(self, x: Tensor) -> Tensor:
        out = self.project(self.se(self.depthwise(self.expand_conv(x))))
        if self.use_residual:
            out = self.residual_add(out, x)
        return out


class TinyEfficientNet(nn.Module):
    """EfficientNet-style classifier (SiLU activations + squeeze-excitation)."""

    def __init__(
        self,
        num_classes: int = 8,
        in_channels: int = 3,
        widths: Sequence[int] = (16, 24, 40),
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.stem = nn.Sequential(
            nn.Conv2d(in_channels, widths[0], 3, padding=1, bias=False, rng=rng),
            nn.BatchNorm2d(widths[0]),
            nn.SiLU(),
        )
        blocks: List[nn.Module] = []
        cin = widths[0]
        for i, width in enumerate(widths):
            blocks.append(MBConv(cin, width, stride=2 if i > 0 else 1, rng=rng))
            blocks.append(MBConv(width, width, stride=1, rng=rng))
            cin = width
        self.blocks = nn.Sequential(*blocks)
        self.head = nn.Sequential(
            nn.Conv2d(cin, cin * 2, 1, bias=False, rng=rng), nn.BatchNorm2d(cin * 2), nn.SiLU()
        )
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.classifier = nn.Linear(cin * 2, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.head(self.blocks(self.stem(x)))
        return self.classifier(self.flatten(self.pool(x)))


class InceptionBlock(nn.Module):
    """Parallel 1x1 / 3x3 / 5x5 / pool branches concatenated along channels."""

    def __init__(self, cin: int, branch_width: int, rng: RngLike = None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.branch1 = _conv_bn_relu(cin, branch_width, 1, 1, rng)
        self.branch3 = nn.Sequential(
            _conv_bn_relu(cin, branch_width, 1, 1, rng), _conv_bn_relu(
                branch_width, branch_width, 3, 1, rng
            )
        )
        self.branch5 = nn.Sequential(
            _conv_bn_relu(cin, branch_width, 1, 1, rng), _conv_bn_relu(
                branch_width, branch_width, 5, 1, rng
            )
        )
        self.branch_pool = nn.Sequential(
            nn.AvgPool2d(3, stride=1), _conv_bn_relu(cin, branch_width, 1, 1, rng)
        )

    def forward(self, x: Tensor) -> Tensor:
        pooled_in = x.pad2d((1, 1))
        branches = [
            self.branch1(x),
            self.branch3(x),
            self.branch5(x),
            self.branch_pool(pooled_in),
        ]
        return Tensor.concatenate(branches, axis=1)


class TinyInception(nn.Module):
    """GoogleNet-style classifier built from Inception blocks."""

    def __init__(
        self,
        num_classes: int = 8,
        in_channels: int = 3,
        branch_width: int = 8,
        num_blocks: int = 2,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.stem = _conv_bn_relu(in_channels, 4 * branch_width, 3, 1, rng)
        blocks: List[nn.Module] = []
        cin = 4 * branch_width
        for _ in range(num_blocks):
            blocks.append(InceptionBlock(cin, branch_width, rng=rng))
            cin = 4 * branch_width
            blocks.append(nn.MaxPool2d(2))
        self.blocks = nn.Sequential(*blocks)
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.classifier = nn.Linear(cin, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        x = self.blocks(x)
        return self.classifier(self.flatten(self.pool(x)))
