"""Residual aggregation: per-check statistics with a pass/fail verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PASS = "pass"
FAIL = "fail"


@dataclass
class ResidualReport:
    """Summary statistics of one residual check over a sample set.

    max_abs and mean_abs refer to the (scale-normalized) residual magnitudes.
    The verdict gates on max_abs <= tol.
    """

    name: str
    samples: int
    max_abs: float
    mean_abs: float
    tol: float
    verdict: str
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict != FAIL

    def to_dict(self) -> dict:
        """The fields by name, in field order: the instance's attributes are
        exactly its fields, and each is a str or a number, so no deep copy
        (`dataclasses.asdict`) is needed."""
        return dict(vars(self))


def report_from_values(name, values, tol, detail="") -> ResidualReport:
    """The report of a non-empty sequence of residuals.  The mean of finite
    residuals whose sum overflows is taken of the residuals scaled down by a
    power of two no smaller than their count (an exact scaling), so it is
    finite; every other mean is `np.mean`'s."""
    values = np.abs(np.asarray(list(values), float))
    max_abs = float(np.max(values))
    mean_abs = float(np.mean(values))
    if not math.isfinite(mean_abs) and np.isfinite(values).all():
        scale = 2.0 ** math.ceil(math.log2(values.size))
        mean_abs = float(np.mean(values / scale) * scale)
    verdict = PASS if max_abs <= tol else FAIL
    return ResidualReport(name=name, samples=int(values.size), max_abs=max_abs,
                          mean_abs=mean_abs, tol=tol,
                          verdict=verdict, detail=detail)


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


def worst(reports) -> ResidualReport | None:
    failing = [r for r in reports if not r.passed]
    if not failing:
        return None
    return max(failing, key=lambda r: r.max_abs / max(r.tol, 1e-300))
