"""Seeded flag sampling over fixture domains.

Directions are uniform on the Euclidean unit sphere of the chart (positive
homogeneity makes the ray direction the only degree of freedom); flags that
trip a domain guard or land on a nearly degenerate F are rejected and redrawn.

`sample_flags` draws in batches: each batch is as many (x, y) draws as flags
are still wanted, in the rng order of one draw at a time, and reads their F
as one stack (one stage laned over the batch's x, the stacked float path of
`FinslerMetric.value`).  A batch with a refused draw or an F below `MIN_F`,
and every batch of a metric that is not lane-safe, reads one `value` per
draw instead, so each rejection is one `value` call.  No batch draws more
than the one-at-a-time loop would, so the flags, their F and the rng state
afterwards are that loop's, and `MAX_TRIES` gives up at the same draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import FlagPoint, scalar_value
from .riemann import coordinates

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


def _stacked_F(metric, draws):
    """The F of every draw of a batch as one stack, or None where the batch
    goes back to one `value` per draw: a refused draw, an F below MIN_F, or
    a metric that is not lane-safe."""
    if not metric.lane_safe:
        return None
    X, Y = (np.array(v) for v in zip(*draws))
    try:
        F = scalar_value(metric.F(coordinates(X), coordinates(Y)))
    except ArithmeticError:             # jets.EvaluationError included
        return None
    return None if np.any(F < MIN_F) else F


def sample_flags(fixture, count, rng) -> list[SampledFlag]:
    flags = []
    tries = 0
    while len(flags) < count:
        if tries > MAX_TRIES * count:
            raise RuntimeError(f"flag sampling failed on fixture {fixture.name!r}")
        size = min(count - len(flags), MAX_TRIES * count + 1 - tries)
        tries += size
        draws = [(fixture.sample_x(rng), unit_direction(rng, fixture.dim))
                 for _ in range(size)]
        F = _stacked_F(fixture.metric, draws)
        if F is not None:
            flags.extend(SampledFlag(x, y, float(f)) for (x, y), f in zip(draws, F))
            continue
        for x, y in draws:
            try:
                f = fixture.metric.value(x, y)
            except ArithmeticError:
                continue
            if f < MIN_F:
                continue
            flags.append(SampledFlag(x, y, f))
    return flags
