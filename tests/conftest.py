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
