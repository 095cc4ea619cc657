"""Deterministic sample plans over chart domains.

A plan is a tensor grid pulled in from the boundary by a margin fraction
(boundary behavior is noise for the residual sweeps) plus a fixed number of
seeded uniform points inside the same margin box. Ordering is reproducible:
grid points in lexicographic axis order, then the random points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrthonetError
from .scalar_fields import Chart

__all__ = ["SamplePlan", "sample_points"]

# the most points a plan may draw: every tape holds a row per point, so a
# larger plan would exhaust memory before it is refused
MAX_POINTS = 100_000


@dataclass(frozen=True)
class SamplePlan:
    grid: int = 5
    margin: float = 0.1
    random: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.grid < 1:
            raise ValueError("grid must have at least one point per axis")
        if not 0.0 <= self.margin < 0.5:
            raise ValueError("margin fraction must lie in [0, 0.5)")
        if self.random < 0:
            raise ValueError("random point count must be nonnegative")


def _margin_box(chart: Chart, margin: float):
    lows, highs = [], []
    for lo, hi in chart.domain:
        pad = margin * (hi - lo)
        lows.append(lo + pad)
        highs.append(hi - pad)
    return np.array(lows), np.array(highs)


def sample_points(chart: Chart, plan: SamplePlan | None = None) -> np.ndarray:
    """(m, dim) array of sample points for the plan, at most MAX_POINTS."""
    plan = plan or SamplePlan()
    if int(plan.grid) ** chart.dim + int(plan.random) > MAX_POINTS:
        raise OrthonetError(
            f"sample plan of grid {plan.grid} over {chart.dim} axes and {plan.random} "
            f"random points exceeds {MAX_POINTS} points"
        )
    lows, highs = _margin_box(chart, plan.margin)
    pts = _mesh([np.linspace(lows[i], highs[i], plan.grid) for i in range(chart.dim)])
    if plan.random:
        rng = np.random.default_rng(plan.seed)
        u = rng.uniform(size=(plan.random, chart.dim))
        pts = np.concatenate([pts, lows + u * (highs - lows)])
    return pts


def _mesh(axes) -> np.ndarray:
    """(m, len(axes)) points of the tensor grid, in itertools.product order."""
    if not axes:
        return np.zeros((1, 0))
    out = np.empty([len(a) for a in axes] + [len(axes)])
    for i, column in enumerate(np.ix_(*axes)):
        out[..., i] = column
    return out.reshape(-1, len(axes))


def grid_axes(chart: Chart, grid: int, margin: float = 0.0):
    """Per-axis coordinate arrays for a tensor grid (no random points)."""
    lows, highs = _margin_box(chart, margin)
    return [np.linspace(lows[i], highs[i], grid) for i in range(chart.dim)]
