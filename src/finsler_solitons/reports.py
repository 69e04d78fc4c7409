"""Residual aggregation: per-check statistics with a pass/fail verdict."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


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
        return {
            "name": self.name,
            "samples": self.samples,
            "max_abs": self.max_abs,
            "mean_abs": self.mean_abs,
            "tol": self.tol,
            "verdict": self.verdict,
            "detail": self.detail,
        }


def report_from_values(name, values, tol, detail="", applicable=True) -> ResidualReport:
    values = np.abs(np.asarray(list(values), float))
    if values.size == 0 or not applicable:
        return ResidualReport(name=name, samples=int(values.size), max_abs=0.0,
                              mean_abs=0.0, tol=tol,
                              verdict=NOT_APPLICABLE, detail=detail)
    max_abs = float(np.max(values))
    mean_abs = float(np.mean(values))
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
