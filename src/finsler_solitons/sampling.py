"""Seeded flag sampling over fixture domains.

Directions are uniform on the Euclidean unit sphere of the chart (positive
homogeneity makes the ray direction the only degree of freedom); flags that
trip a domain guard or land on a nearly degenerate F are rejected and redrawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import FlagPoint

MIN_F = 1e-6
MAX_TRIES = 50          # draws per requested flag before sampling gives up


def unit_direction(rng, dim) -> np.ndarray:
    while True:
        v = rng.normal(size=dim)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return v / norm


@dataclass(frozen=True, eq=False)
class SampledFlag(FlagPoint):
    """A sampled flag and the float F(x, y) of the fixture's metric that
    accepted it, kept for the suites' F^2 normalisers."""

    F: float


def sample_flags(fixture, count, rng) -> list[SampledFlag]:
    flags = []
    tries = 0
    while len(flags) < count:
        if tries > MAX_TRIES * count:
            raise RuntimeError(f"flag sampling failed on fixture {fixture.name!r}")
        tries += 1
        x = fixture.sample_x(rng)
        y = unit_direction(rng, fixture.dim)
        try:
            F = fixture.metric.value(x, y)
        except ArithmeticError:             # jets.EvaluationError included
            continue
        if F < MIN_F:
            continue
        flags.append(SampledFlag(x, y, F))
    return flags
