"""Shared generators for the seeded-loop tests.

Expressions are built so that every sample stays smooth and bounded on the
chart: exp only sees affine arguments with small coefficients, powers use
bases bounded away from zero, and division never appears. That keeps finite
difference oracles meaningful at fixed step sizes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from orthonet.codazzi import SymTensorField
from orthonet.product_metrics import FactorSpec, ProductSpec
from orthonet.scalar_fields import (
    Chart,
    ONE,
    ZERO,
    add,
    apply_unary,
    const,
    mul,
    powc,
    sub,
    var,
)

# fixed examples and no deadline: the suite gives the same verdict on every
# run and on a slow or busy host
settings.register_profile("orthonet", derandomize=True, deadline=None, database=None)
settings.load_profile("orthonet")


def random_expr(rng: np.random.Generator, dim: int, depth: int = 3):
    """Random smooth expression in dim variables, bounded on [0, 2]^dim."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return var(int(rng.integers(dim)))
        return const(round(float(rng.uniform(0.4, 1.6)), 3))
    r = rng.random()
    if r < 0.25:
        return add(random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1))
    if r < 0.45:
        return sub(random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1))
    if r < 0.70:
        return mul(random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1))
    if r < 0.80:
        name = "sin" if rng.random() < 0.5 else "cos"
        return apply_unary(name, mul(const(0.7), random_expr(rng, dim, depth - 1)))
    if r < 0.90:
        return apply_unary("exp", mul(const(0.3), random_expr(rng, dim, 1)))
    base = add(const(2.0), apply_unary("sin", random_expr(rng, dim, 1)))
    return powc(base, float(rng.choice([2.0, 3.0, 0.5])))


def random_point(rng: np.random.Generator, chart: Chart, margin: float = 0.05):
    """Uniform point strictly inside the chart box."""
    out = []
    for lo, hi in chart.domain:
        pad = margin * (hi - lo)
        out.append(float(rng.uniform(lo + pad, hi - pad)))
    return tuple(out)


def _factor(offset: int, d: int, rng: np.random.Generator) -> FactorSpec:
    chart = Chart.box(
        [(0.25, 1.25)] * d, names=tuple(f"x{offset + a}" for a in range(d))
    )
    entries = []
    for a in range(d):
        row = []
        for b in range(d):
            if a == b:
                c = round(float(rng.uniform(0.1, 0.6)), 3)
                row.append(add(ONE, mul(const(c), powc(var(a), 2.0))))
            else:
                row.append(ZERO)
        entries.append(tuple(row))
    return FactorSpec(chart, tuple(entries))


def random_twisted_spec(rng: np.random.Generator) -> ProductSpec:
    """Twisted product with 2 or 3 diagonal factors, total dimension <= 4."""
    while True:
        dims = [int(rng.integers(1, 3)) for _ in range(int(rng.integers(2, 4)))]
        if sum(dims) <= 4:
            break
    factors = []
    offset = 0
    for d in dims:
        factors.append(_factor(offset, d, rng))
        offset += d
    n = sum(dims)
    twists = [ONE]
    for _ in range(1, len(dims)):
        j = int(rng.integers(n))
        k = int(rng.integers(n))
        c = round(float(rng.uniform(0.2, 0.8)), 3)
        if rng.random() < 0.5:
            twists.append(add(ONE, mul(const(c), mul(var(j), var(k)))))
        else:
            twists.append(apply_unary("exp", mul(const(0.5 * c), mul(var(j), var(k)))))
    return ProductSpec("twisted", tuple(factors), twists=tuple(twists))


def random_positive_scale(rng: np.random.Generator, chart: Chart):
    """Random conformal factor exp(small smooth expression), always positive."""
    n = chart.dim
    i = int(rng.integers(n))
    j = int(rng.integers(n))
    a = round(float(rng.uniform(-0.5, 0.5)), 3)
    b = round(float(rng.uniform(-0.4, 0.4)), 3)
    body = add(mul(const(a), var(i)), mul(const(b), mul(var(i), var(j))))
    return apply_unary("exp", body)


def off_diagonal(phi: SymTensorField, entry=None) -> SymTensorField:
    """phi with entry, by default x0 - x0, in every off-diagonal slot. x0 - x0
    evaluates to 0 but is not the folded zero, so codazzi reads the
    eigenstructure of the result by its closed form and the projector
    frame, not off its diagonal."""
    entry = sub(var(0), var(0)) if entry is None else entry
    rows = [[e if i == j else entry for j, e in enumerate(row)]
            for i, row in enumerate(phi.components)]
    return SymTensorField(phi.chart, rows, phi.metric)
