"""Built-in example geometries shared by the test battery and the self-test.

Each fixture is small enough to verify by hand and exercises one structure:
a flat chart, a warped product (polar coordinates), a surface of revolution
with its shape operator (torus), a cone-like pair with a vanishing
eigenvalue, a twisted product that is not conformally warped (the standard
negative control), three-factor warped and quasi-warped products, a
conformally flat metric whose factor splits additively, and the canonical
two-eigenvalue constructions.

Specs are returned where the structure has one, so provenance survives into
factorization; plain metrics are returned where only the chart data matters.
"""

from __future__ import annotations

from .chart_calculus import MetricField
from .codazzi import CodazziCandidate, SymTensorField, build_codazzi_candidate
from .product_metrics import FactorSpec, ProductSpec, build_metric, conformal_scale
from .scalar_fields import Chart, Expr, ONE, ZERO, parse_expr, var

__all__ = [
    "euclidean",
    "polar_spec",
    "polar",
    "torus",
    "polar_cone",
    "twisted_flat_spec",
    "twisted_flat",
    "warped_three_spec",
    "warped_three",
    "qw_three_spec",
    "qw_three",
    "exp_sum_spec",
    "exp_sum_conformal",
    "cqw_three",
    "sum_reciprocal",
    "conformal_product_pair",
]


def _interval(lo: float, hi: float, name: str) -> Chart:
    return Chart.box([(lo, hi)], names=(name,))


def euclidean(dim: int = 2, blocks=None) -> MetricField:
    """Flat metric on the unit box, one coordinate per axis."""
    if blocks is None:
        blocks = tuple((i,) for i in range(dim))
    chart = Chart.box([(0.0, 1.0)] * dim, blocks=blocks)
    return MetricField.diagonal(chart, [ONE] * dim)


def polar_spec() -> ProductSpec:
    """Polar coordinates on an annulus as a warped product: dt^2 + t^2 dtheta^2."""
    f0 = FactorSpec(_interval(0.5, 2.5, "t"), ((ONE,),))
    f1 = FactorSpec(_interval(0.0, 2.0, "theta"), ((ONE,),))
    return ProductSpec("warped", (f0, f1), twists=(ONE, var(0)))


def polar() -> MetricField:
    return build_metric(polar_spec())


def torus() -> tuple[MetricField, SymTensorField]:
    """Torus of revolution with radii 2 and 1, away from the flat parallels:
    g = du^2 + (2 + cos u)^2 dv^2 with its shape operator, whose eigenvalues
    are 1 (meridian) and cos u / (2 + cos u) (parallel)."""
    chart = Chart.box(
        [(0.0, 1.4), (0.0, 2.0)], names=("u", "v"), blocks=((0,), (1,))
    )
    g = MetricField.diagonal(chart, [ONE, parse_expr("(2 + cos(u))^2", chart)])
    phi = SymTensorField.diagonal(
        chart, [ONE, parse_expr("cos(u) / (2 + cos(u))", chart)], metric=g
    )
    return g, phi


def polar_cone() -> tuple[MetricField, SymTensorField]:
    """Polar metric with the tensor diag(0, 1/t); the zero eigenvalue rides
    the radial direction, the other solves the warping relation with h = 0."""
    chart = Chart.box(
        [(0.5, 2.5), (0.0, 2.0)], names=("t", "theta"), blocks=((0,), (1,))
    )
    g = MetricField.diagonal(chart, [ONE, parse_expr("t^2", chart)])
    phi = SymTensorField.diagonal(
        chart, [ZERO, parse_expr("1/t", chart)], metric=g
    )
    return g, phi


def twisted_flat_spec() -> ProductSpec:
    """Twisted product whose twist 1 + x0^2 x1 depends on both factors in a
    non-separable way; the standard negative control for conformally-warped
    classification."""
    f0 = FactorSpec(_interval(0.2, 1.2, "x0"), ((ONE,),))
    f1 = FactorSpec(_interval(0.2, 1.2, "x1"), ((ONE,),))
    chart = Chart.box([(0.2, 1.2), (0.2, 1.2)], names=("x0", "x1"))
    rho = parse_expr("1 + x0^2 * x1", chart)
    return ProductSpec("twisted", (f0, f1), twists=(ONE, rho))


def twisted_flat() -> MetricField:
    return build_metric(twisted_flat_spec())


def warped_three_spec() -> ProductSpec:
    """Warped product with a 1-dim base and two warped lines:
    diag(1, e^{2 x0}, e^{4 x0}) on the unit cube."""
    f0 = FactorSpec(_interval(0.0, 1.0, "x0"), ((ONE,),))
    f1 = FactorSpec(_interval(0.0, 1.0, "x1"), ((ONE,),))
    f2 = FactorSpec(_interval(0.0, 1.0, "x2"), ((ONE,),))
    chart = Chart.box([(0.0, 1.0)] * 3, names=("x0", "x1", "x2"))
    return ProductSpec(
        "warped",
        (f0, f1, f2),
        twists=(ONE, parse_expr("exp(x0)", chart), parse_expr("exp(2*x0)", chart)),
    )


def warped_three() -> MetricField:
    return build_metric(warped_three_spec())


def qw_three_spec() -> ProductSpec:
    """Quasi-warped product whose middle twist e^{x0 x1} mixes the base with
    its own block: diag(1, e^{2 x0 x1}, 1)."""
    f0 = FactorSpec(_interval(0.0, 1.0, "x0"), ((ONE,),))
    f1 = FactorSpec(_interval(0.0, 1.0, "x1"), ((ONE,),))
    f2 = FactorSpec(_interval(0.0, 1.0, "x2"), ((ONE,),))
    chart = Chart.box([(0.0, 1.0)] * 3, names=("x0", "x1", "x2"))
    return ProductSpec(
        "quasi_warped",
        (f0, f1, f2),
        twists=(ONE, parse_expr("exp(x0 * x1)", chart), ONE),
    )


def qw_three() -> MetricField:
    return build_metric(qw_three_spec())


def exp_sum_spec() -> ProductSpec:
    """Conformally flat metric e^{2(x0 + x1)} (dx0^2 + dx1^2) with the factor
    attached as provenance, so factorization can cross-check it."""
    f0 = FactorSpec(_interval(0.0, 1.0, "x0"), ((ONE,),))
    f1 = FactorSpec(_interval(0.0, 1.0, "x1"), ((ONE,),))
    chart = Chart.box([(0.0, 1.0), (0.0, 1.0)], names=("x0", "x1"))
    return ProductSpec(
        "product",
        (f0, f1),
        twists=(ONE, ONE),
        conformal_factor=parse_expr("exp(x0 + x1)", chart),
    )


def exp_sum_conformal() -> MetricField:
    return build_metric(exp_sum_spec())


def cqw_three() -> MetricField:
    """Conformal scaling of the quasi-warped three-block metric; each block
    and complement stays umbilical, so the base mean curvature must equal
    the sum of the complements' normals."""
    g = qw_three()
    phi = parse_expr("exp(x0 + x1 + x2)", g.chart)
    return conformal_scale(g, phi)


def sum_reciprocal() -> tuple[ProductSpec, Expr, Expr]:
    """Flat 1+1 product on [0.15, 1]^2 with two conformal factors: one whose
    reciprocal splits as x0 + x1 (spherical factors) and a control whose
    reciprocal x0 x1 does not split additively."""
    f0 = FactorSpec(_interval(0.15, 1.0, "x0"), ((ONE,),))
    f1 = FactorSpec(_interval(0.15, 1.0, "x1"), ((ONE,),))
    spec = ProductSpec("product", (f0, f1), twists=(ONE, ONE))
    chart = spec.chart
    phi_sum = parse_expr("1 / (x0 + x1)", chart)
    phi_control = parse_expr("1 / (x0 * x1)", chart)
    return spec, phi_sum, phi_control


def conformal_product_pair() -> CodazziCandidate:
    """Canonical conformal-product pair with phi0 = x0 and phi1 = x1 on
    [0.15, 1]^2, so the reciprocal factor x0 + x1 stays positive."""
    f0 = FactorSpec(_interval(0.15, 1.0, "x0"), ((ONE,),))
    f1 = FactorSpec(_interval(0.15, 1.0, "x1"), ((ONE,),))
    return build_codazzi_candidate(
        "conformal_product", factors=(f0, f1), phi0=var(0), phi1=var(0)
    )
