"""Concurrent plan dispatch: one shared model, many threads, zero cross-talk.

Replay allocates its results as eager does and plan lookup holds the cache
lock only for the dictionary access, so concurrent forwards on a shared model
must be both safe (no shared intermediates) and bit-exact (every thread sees
the eager answer).
"""

import threading

import numpy as np

from repro import nn
from repro.autograd.tensor import Tensor, no_grad
from repro.graph import install_plan_cache, remove_plan_cache
from repro.nn.module import suspend_plan_dispatch

WIDTH = 24
THREADS = 8
ROUNDS = 30


def build_model():
    rng = np.random.default_rng(17)
    return nn.Sequential(
        nn.Linear(WIDTH, WIDTH, rng=rng),
        nn.ReLU(),
        nn.Linear(WIDTH, WIDTH, rng=rng),
        nn.Softmax(axis=-1),
    )


def test_concurrent_replay_is_bit_exact():
    model = build_model()
    model.eval()
    rng = np.random.default_rng(5)
    # distinct per-thread inputs, all the same shape -> all threads share ONE
    # plan and race on its lookup; no thread may see another's intermediates
    inputs = [rng.normal(0.0, 1.0, (3, WIDTH)).astype(np.float32) for _ in range(THREADS)]
    with no_grad():
        expected = [model(Tensor(x)).data.copy() for x in inputs]

    cache = install_plan_cache(model)
    barrier = threading.Barrier(THREADS)
    failures = []

    def worker(index):
        x = Tensor(inputs[index])
        barrier.wait()
        try:
            for _ in range(ROUNDS):
                with no_grad():
                    out = model(x)
                if not np.array_equal(out.data, expected[index]):
                    failures.append(index)
                    return
        except Exception as exc:  # noqa: BLE001 - surfaced via the failures list
            failures.append((index, repr(exc)))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    stats = cache.stats()
    remove_plan_cache(model)
    assert not failures, failures
    assert stats["plans"] == 1  # everyone converged on the single shared plan
    assert stats["hits"] + stats["misses"] == THREADS * ROUNDS


def test_concurrent_distinct_shapes_compile_independent_plans():
    model = build_model()
    model.eval()
    rng = np.random.default_rng(9)
    shapes = [(1, WIDTH), (2, WIDTH), (3, WIDTH), (4, WIDTH)]
    inputs = [rng.normal(0.0, 1.0, shape).astype(np.float32) for shape in shapes]
    with no_grad():
        expected = [model(Tensor(x)).data.copy() for x in inputs]

    cache = install_plan_cache(model)
    barrier = threading.Barrier(len(shapes))
    failures = []

    def worker(index):
        x = Tensor(inputs[index])
        barrier.wait()
        for _ in range(ROUNDS):
            with no_grad():
                out = model(x)
            if not np.array_equal(out.data, expected[index]):
                failures.append(index)
                return

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(shapes))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    stats = cache.stats()
    remove_plan_cache(model)
    assert not failures, failures
    assert stats["plans"] == len(shapes)
    assert stats["compiles"] == len(shapes)


def test_suspended_thread_coexists_with_replaying_threads():
    model = build_model()
    model.eval()
    rng = np.random.default_rng(13)
    x_np = rng.normal(0.0, 1.0, (2, WIDTH)).astype(np.float32)
    with no_grad():
        expected = model(Tensor(x_np)).data.copy()

    cache = install_plan_cache(model)
    barrier = threading.Barrier(2)
    failures = []

    def replayer():
        barrier.wait()
        for _ in range(ROUNDS):
            with no_grad():
                out = model(Tensor(x_np))
            if not np.array_equal(out.data, expected):
                failures.append("replayer")
                return

    def eager_runner():
        barrier.wait()
        for _ in range(ROUNDS):
            with no_grad(), suspend_plan_dispatch():
                out = model(Tensor(x_np))
            if not np.array_equal(out.data, expected):
                failures.append("eager")
                return

    threads = [threading.Thread(target=replayer), threading.Thread(target=eager_runner)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    remove_plan_cache(model)
    assert not failures, failures
    assert cache.stats()["plans"] <= 1
