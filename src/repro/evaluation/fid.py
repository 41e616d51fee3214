"""Fréchet-distance image-quality proxy (the FID stand-in for Figure 6).

Real FID embeds images with an Inception-V3 network pretrained on ImageNet.
Offline we use the same mathematical construction — the Fréchet distance
between Gaussian fits of image features — but the feature extractor is a fixed,
randomly-initialised convolutional network (random projections preserve
distributional differences well enough to rank generators, which is all the
paper's Figure 6 comparison needs: FP32 < FP8 < INT8 distortion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import linalg

import repro.nn as nn
from repro.autograd.tensor import Tensor, no_grad
from repro.utils.seeding import RngLike, seeded_rng

__all__ = ["FeatureStatistics", "RandomFeatureExtractor", "frechet_distance", "fid_proxy"]


class RandomFeatureExtractor(nn.Module):
    """A small fixed random CNN used as the feature embedding for the FID proxy."""

    def __init__(self, in_channels: int = 3, feature_dim: int = 64, rng: RngLike = None) -> None:
        super().__init__()
        rng = seeded_rng(rng if rng is not None else 1234)
        self.net = nn.Sequential(
            nn.Conv2d(in_channels, 16, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(16, 32, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(32, feature_dim, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.AdaptiveAvgPool2d(1),
            nn.Flatten(),
        )
        self.eval()

    def forward(self, images: np.ndarray) -> np.ndarray:
        with no_grad():
            out = self.net(Tensor(np.asarray(images, dtype=np.float32)))
        return out.data


@dataclass
class FeatureStatistics:
    """Gaussian fit (mean, covariance) of a set of feature vectors."""

    mean: np.ndarray
    cov: np.ndarray

    @classmethod
    def from_features(cls, features: np.ndarray) -> "FeatureStatistics":
        features = np.asarray(features, dtype=np.float64)
        mean = features.mean(axis=0)
        cov = np.cov(features, rowvar=False)
        return cls(mean=mean, cov=np.atleast_2d(cov))


def frechet_distance(
    stats_a: FeatureStatistics, stats_b: FeatureStatistics, eps: float = 1e-6
) -> float:
    """Fréchet distance between two Gaussians (the FID formula)."""
    mu1, sigma1 = stats_a.mean, stats_a.cov
    mu2, sigma2 = stats_b.mean, stats_b.cov
    diff = mu1 - mu2
    offset = np.eye(sigma1.shape[0]) * eps
    covmean = linalg.sqrtm((sigma1 + offset) @ (sigma2 + offset))
    if np.iscomplexobj(covmean):
        covmean = covmean.real
    return float(diff @ diff + np.trace(sigma1 + sigma2 - 2.0 * covmean))


_default_extractor: Optional[RandomFeatureExtractor] = None


def _extractor(in_channels: int) -> RandomFeatureExtractor:
    global _default_extractor
    if _default_extractor is None or _default_extractor.net[0].in_channels != in_channels:
        _default_extractor = RandomFeatureExtractor(in_channels=in_channels)
    return _default_extractor


def fid_proxy(
    reference_images: np.ndarray,
    generated_images: np.ndarray,
    extractor: Optional[RandomFeatureExtractor] = None,
    batch_size: int = 64,
) -> float:
    """FID-style score between a reference image set and a generated image set (lower is better)."""
    reference_images = np.asarray(reference_images, dtype=np.float32)
    generated_images = np.asarray(generated_images, dtype=np.float32)
    extractor = extractor or _extractor(reference_images.shape[1])

    def embed(images: np.ndarray) -> np.ndarray:
        chunks = [
            extractor(images[start : start + batch_size])
            for start in range(0, len(images), batch_size)
        ]
        return np.concatenate(chunks, axis=0)

    stats_ref = FeatureStatistics.from_features(embed(reference_images))
    stats_gen = FeatureStatistics.from_features(embed(generated_images))
    return frechet_distance(stats_ref, stats_gen)
