"""Shared test fixtures."""

import zlib

import numpy as np
import pytest


@pytest.fixture
def rng(request):
    """A random generator of the test's own, seeded by the test's name (with
    its parameters), so a test draws the same inputs whichever tests run,
    and in whatever order."""
    return np.random.default_rng(zlib.crc32(request.node.name.encode()))
