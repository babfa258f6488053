import os
import warnings

import numpy as np
import pytest

# hypothesis imports this module only when it reports a failing example, and
# the import raises a DeprecationWarning (from mypy_extensions), which the
# `filterwarnings = error` setting turns into an INTERNALERROR that ends the
# session.  Imported once here with that warning ignored, it is cached.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from swstream.info_core import JointDistribution
from swstream.verify import random_joint


@pytest.fixture
def two_cpus(monkeypatch):
    """`os.cpu_count` at 2: a run at 2 threads starts a real pool of 2
    workers, even on a 1-CPU host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture
def fake_pool(two_cpus, monkeypatch):
    """`concurrent.futures.ProcessPoolExecutor` replaced by a pool that maps
    in this process, with `os.cpu_count` at 2; a submitted task runs when
    its result is asked for.  Returns a list that gets [max_workers, task
    count] of each pool, and no process is started."""
    import concurrent.futures
    import types

    pools = []

    class Pool:
        def __init__(self, max_workers):
            self.record = [max_workers, 0]
            pools.append(self.record)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            results = list(map(fn, *iterables))
            self.record[1] += len(results)
            return results

        def submit(self, fn, *args):
            self.record[1] += 1
            return types.SimpleNamespace(result=lambda: fn(*args))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return pools


@pytest.fixture
def example1():
    """Symmetric binary pair with uniform marginals."""
    return JointDistribution.from_matrix([[0.45, 0.05], [0.05, 0.45]])


@pytest.fixture
def example2():
    """Skewed binary pair."""
    return JointDistribution.from_matrix([[0.1, 0.05], [0.05, 0.8]])


def random_corpus(seed, count, max_size=3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        ax = int(rng.integers(2, max_size + 1))
        ay = int(rng.integers(2, max_size + 1))
        out.append(random_joint(rng, ax, ay))
    return out
