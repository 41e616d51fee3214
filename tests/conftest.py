"""Shared pytest fixtures.

Zoo models are trained on first use and cached (in memory and on disk), so the
model fixtures here are session-scoped: the first test that needs e.g. the
BERT-style bundle pays the ~3s training cost and every other test reuses it.
``decode`` and ``mask_compiler`` pick the FP8 decode path a test runs on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fp8.native import runtime
from repro.models.registry import build_task


@pytest.fixture
def mask_compiler(monkeypatch):
    """A function that masks the C compiler for the rest of the test.

    Every later FP8 decode then takes the numpy path, the way a host without
    a compiler decodes.  The runtime's memoised compiler and kernels are
    forgotten on each call and after the test, so nothing leaks into the
    next one.
    """

    def mask():
        monkeypatch.setenv(runtime.CC_ENV_VAR, "/nonexistent/no-such-cc")
        runtime.reset()

    yield mask
    runtime.reset()


@pytest.fixture(params=["native", "numpy"])
def decode(request, mask_compiler):
    """Run a test once per FP8 decode path: the compiled kernel, then numpy.

    ``native`` needs a C compiler and is skipped without one.
    """
    if request.param == "numpy":
        mask_compiler()
    elif not runtime.native_available():
        pytest.skip("no C compiler available")
    return request.param


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def bert_bundle():
    """A small trained NLP task bundle (with injected activation outliers)."""
    return build_task("distilbert-mrpc")


@pytest.fixture(scope="session")
def cnn_bundle():
    """A small trained CV task bundle with BatchNorm."""
    return build_task("resnet18-imagenet")


@pytest.fixture(scope="session")
def lm_bundle():
    """A trained causal-LM task bundle."""
    return build_task("dialogpt-wikitext")
