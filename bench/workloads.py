"""Seeded workloads for the orthonet benchmark.

Each workload is a fixed cycle of operations ("ops") against the public API.
An op builds its metric fresh from expression text, runs one library call
or one in-process CLI invocation, checks the verdicts that the construction
implies, and returns the number of sample points it verified. A wrong
verdict raises ``Mismatch``.

The seed draws every constant in the generated expressions from ranges that
exclude 0 and 1, so constant folding never changes an expression's shape,
and it sets ``SamplePlan.seed``. Shapes and point counts are fixed per
workload: the work per op does not depend on the seed.

Every cycle has an odd number of ops. Ops of one family take about the same
time, so with an odd count the median and the tail percentiles fall inside
one family's cluster of times instead of on the gap between two clusters.
Op sizes are chosen so that a run of ``run_seconds`` times between 100 and
1000 ops on every workload, even when the host runs 1.4 times faster or
slower than usual; the tail percentile is then p90 everywhere.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from orthonet import cli
from orthonet.chart_calculus import MetricField
from orthonet.codazzi import SymTensorField, build_codazzi_candidate, classify_codazzi
from orthonet.nets import FLAG_NAMES, OrthogonalNet, classify_net
from orthonet.product_metrics import (
    PATH_ORDER_TOL,
    FactorSpec,
    ProductSpec,
    build_metric,
    factorize_cwp,
)
from orthonet.sampling import SamplePlan
from orthonet.scalar_fields import ONE, Chart, parse_expr

TOL = 1e-8


class Mismatch(Exception):
    """An op returned a verdict that its construction rules out."""


@dataclass
class Op:
    label: str
    run: Callable[[], int]


def _expect(cond: bool, label: str, what: str):
    if not cond:
        raise Mismatch(f"{label}: {what}")


def _flags_ok(label: str, flags: dict, passing: set):
    got = {k: f.status for k, f in flags.items()}
    want = {k: "pass" if k in passing else "fail" for k in FLAG_NAMES}
    _expect(got == want, label, f"flags {got} != {want}")


def _num(rng: random.Random, lo: float, hi: float) -> str:
    """A constant in [lo, hi] as expression text; callers keep 0 and 1 out."""
    return f"{rng.uniform(lo, hi):.6f}"


def _metric(names, domain, blocks, rows) -> MetricField:
    chart = Chart.box(domain, names=names, blocks=blocks)
    return MetricField(chart, [[parse_expr(t, chart) for t in row] for row in rows])


def _diagonal(diag):
    n = len(diag)
    return [[diag[i] if i == j else "0" for j in range(n)] for i in range(n)]


# --- classify_sweep -------------------------------------------------------------


def _cqw_op(rng: random.Random, plan: SamplePlan) -> Op:
    """Conformal scaling of a three-block quasi-warped product, like the
    cqw_three fixture: diag(1, exp(a x0 x1)^2, 1) times exp(c . x)^2."""
    a = _num(rng, 1.2, 1.8)
    c = [_num(rng, 0.3, 0.7) for _ in range(3)]
    phi2 = f"exp({c[0]}*x0 + {c[1]}*x1 + {c[2]}*x2)^2"
    rows = _diagonal([phi2, f"{phi2} * exp({a}*x0*x1)^2", phi2])
    label = "cqw3"

    def run() -> int:
        g = _metric(("x0", "x1", "x2"), [(0.0, 1.0)] * 3, ((0,), (1,), (2,)), rows)
        rep = classify_net(g, OrthogonalNet.coordinate(g.chart), plan, TOL)
        _flags_ok(label, rep.flags, {"TP", "CQW"})
        _expect(rep.h0_sum_residual <= 1e-9, label,
                f"h0 sum residual {rep.h0_sum_residual:.3e}")
        return rep.n_samples

    return Op(label, run)


def _twisted4_op(rng: random.Random, plan: SamplePlan) -> Op:
    """Conformal scaling of a 2+1+1 twisted product: a dense 2x2 block in
    (x0, x1) and two lines whose twists depend on other blocks."""
    a0, b0, p2, p3 = (_num(rng, 1.3, 1.7) for _ in range(4))
    c, q2, q3 = (_num(rng, 0.2, 0.5) for _ in range(3))
    e = [_num(rng, 0.2, 0.5) for _ in range(3)]
    phi2 = f"exp({e[0]}*x0 - {e[1]}*x2 + {e[2]}*x3)^2"
    off = f"{phi2} * {c}*x0*x1"
    rows = [
        [f"{phi2} * ({a0} + x1^2)", off, "0", "0"],
        [off, f"{phi2} * ({b0} + x0^2)", "0", "0"],
        ["0", "0", f"{phi2} * ({p2} + x0^2*x2 + {q2}*x3)^2", "0"],
        ["0", "0", "0", f"{phi2} * ({p3} + x1*x3^2 + {q3}*x2)^2"],
    ]
    label = "twisted4"

    def run() -> int:
        g = _metric(("x0", "x1", "x2", "x3"), [(0.2, 1.2)] * 4,
                    ((0, 1), (2,), (3,)), rows)
        rep = classify_net(g, OrthogonalNet.coordinate(g.chart), plan, TOL)
        _flags_ok(label, rep.flags, {"TP"})
        return rep.n_samples

    return Op(label, run)


def classify_sweep(rng: random.Random, seed: int, workdir: Path) -> list[Op]:
    return [
        _cqw_op(rng, SamplePlan(grid=4, seed=seed)),
        _twisted4_op(rng, SamplePlan(grid=2, seed=seed)),
        _cqw_op(rng, SamplePlan(grid=4, seed=seed)),
    ]


# --- oneshot_build --------------------------------------------------------------

_ALL_PASS = set(FLAG_NAMES)
_TWISTED_PASS = {"TP", "QW", "CQW", "CQW0"}


def _dense_manifest(rng: random.Random, seed: int, twisted: bool) -> dict:
    """4-dim metric with two dense 2x2 blocks. The second block is scaled by
    a twist of the first block's coordinates (a warped product) or of both
    blocks' coordinates (a twisted product)."""
    a = [_num(rng, 1.2, 1.8) for _ in range(4)]
    c = [_num(rng, 0.2, 0.5) for _ in range(2)]
    k = [_num(rng, 0.3, 0.7) for _ in range(2)]
    if twisted:
        tw = f"({a[0]} + x0*x2 + {k[0]}*x1*x3^2)^2"
    else:
        tw = f"exp({k[0]}*x0 - {k[1]}*x1)^2"
    rows = [
        [f"{a[0]} + x1^2", f"{c[0]}*x0*x1", "0", "0"],
        [f"{c[0]}*x0*x1", f"{a[1]} + x0^2", "0", "0"],
        ["0", "0", f"{tw} * ({a[2]} + x3^2)", f"{tw} * {c[1]}*x2*x3"],
        ["0", "0", f"{tw} * {c[1]}*x2*x3", f"{tw} * ({a[3]} + x2^2)"],
    ]
    return {
        "chart": {
            "names": ["x0", "x1", "x2", "x3"],
            "domain": [[0.2, 1.2]] * 4,
            "blocks": [[0, 1], [2, 3]],
        },
        "metric": {"components": rows},
        "sampling": {"grid": 2, "random": 4, "seed": seed},
        "tolerance": TOL,
    }


def _count_leaves(x) -> int:
    if isinstance(x, list):
        return sum(_count_leaves(v) for v in x)
    return 1


def _report_points(rep: dict) -> int:
    """Sample points verified by one CLI report, read from the report."""
    res = rep["results"]
    cmd = rep["command"]
    if cmd == "classify":
        return sum(net["n_samples"] for net in res["nets"])
    if cmd == "verify-product":
        return res["n_samples"]
    if cmd == "codazzi":
        return sum(body.get("n_samples", 0) for body in res.values())
    if cmd == "factorize":
        s = rep["sampling"]
        plan_points = s["grid"] ** len(res["axes"]) + s["random"]
        return plan_points + _count_leaves(res["phi"])
    raise Mismatch(f"unexpected command {cmd}")


def _cli_op(label: str, path: Path, command: str, code: int, verdicts: dict,
            extra: Callable[[dict], None] | None = None) -> Op:
    argv = ["--command", command, "--manifest", str(path), "--format", "json"]
    first: list[str] = []

    def run() -> int:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            got_code = cli.main(argv)
        out = buf.getvalue()
        _expect(got_code == code, label, f"exit code {got_code} != {code}")
        rep = json.loads(out)
        got = {k: v["status"] for k, v in rep["verdicts"].items()}
        _expect(got == verdicts, label, f"verdicts {got} != {verdicts}")
        if extra is not None:
            extra(rep)
        if first:
            _expect(out == first[0], label, "JSON report differs from the first emission")
        else:
            first.append(out)
        return _report_points(rep)

    return Op(label, run)


def _torus_case(rep: dict):
    case = rep["results"]["shape_operator"]["relation_case"]
    _expect(case == "warped_rank_one", "torus_codazzi", f"relation case {case}")


def oneshot_build(rng: random.Random, seed: int, workdir: Path) -> list[Op]:
    shipped = Path(__file__).resolve().parent.parent / "manifests"
    paths = {}
    for name in ("polar", "twisted_control", "factorize_scaled_polar", "torus_codazzi"):
        doc = json.loads((shipped / f"{name}.json").read_text(encoding="utf-8"))
        doc["sampling"] = {"seed": seed}
        if name == "torus_codazzi":
            # a 7-point grid makes this op about as long as the factorize op,
            # so p90 falls inside one cluster of op times
            doc["sampling"]["grid"] = 7
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    for name, twisted in (("dense_warped", False), ("dense_twisted", True)):
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(
            json.dumps(_dense_manifest(rng, seed, twisted)), encoding="utf-8"
        )

    def net_verdicts(passing):
        return {f"net0.{k}": "pass" if k in passing else "fail" for k in FLAG_NAMES}

    codazzi_verdicts = {
        f"shape_operator.{k}": "pass"
        for k in ("codazzi", "conformal_product", "spherical_eigenbundles")
    }
    return [
        _cli_op("dense_warped", paths["dense_warped"], "classify", 0,
                net_verdicts(_ALL_PASS)),
        _cli_op("polar", paths["polar"], "classify", 0, net_verdicts(_ALL_PASS)),
        _cli_op("twisted_control", paths["twisted_control"], "classify", 2,
                net_verdicts(_TWISTED_PASS)),
        _cli_op("twisted_control.verify", paths["twisted_control"], "verify-product",
                0, {"connection_identity": "pass"}),
        _cli_op("factorize_scaled_polar", paths["factorize_scaled_polar"],
                "factorize", 0, {"path_order": "pass", "reconstruction": "pass"}),
        _cli_op("torus_codazzi", paths["torus_codazzi"], "codazzi", 0,
                codazzi_verdicts, _torus_case),
        _cli_op("dense_twisted", paths["dense_twisted"], "classify", 2,
                net_verdicts(_TWISTED_PASS)),
    ]


# --- codazzi_eigen --------------------------------------------------------------

_H_CHART = Chart.box([(-1e9, 1e9)], names=("mu",))


def _check_codazzi(label: str, rep, case):
    _expect(rep.codazzi_residual <= 1e-10, label,
            f"Codazzi residual {rep.codazzi_residual:.3e}")
    _expect(all(f.status == "pass" for f in rep.flags.values()), label,
            f"flags {({k: f.status for k, f in rep.flags.items()})}")
    two_path = max(rep.residuals["eta_two_path"], rep.residuals["zeta_two_path"])
    _expect(two_path <= 1e-9, label, f"two-path residual {two_path:.3e}")
    _expect(rep.relation_case == case, label, f"relation case {rep.relation_case}")
    if case == "warped_rank_one":
        _expect(rep.warping_ode_residual <= 1e-9, label,
                f"warping ODE residual {rep.warping_ode_residual:.3e}")


def _revolution_op(label, plan, names, domain, g_diag, phi_diag, h_text, case):
    def run() -> int:
        chart = Chart.box(domain, names=names, blocks=((0,), (1,)))
        g = MetricField.diagonal(chart, [parse_expr(t, chart) for t in g_diag])
        phi = SymTensorField.diagonal(
            chart, [parse_expr(t, chart) for t in phi_diag], metric=g
        )
        h = parse_expr(h_text, _H_CHART)
        rep = classify_codazzi(g, phi, h=h, plan=plan, tol=TOL)
        _check_codazzi(label, rep, case)
        return rep.n_samples

    return Op(label, run)


def _torus_op(rng: random.Random, plan: SamplePlan) -> Op:
    """Torus of revolution with tube radius 1 and a seeded centre radius R:
    g = du^2 + (R + cos u)^2 dv^2 with its shape operator, so lambda = 1 = h."""
    R = _num(rng, 1.6, 2.8)
    return _revolution_op(
        "torus", plan, ("u", "v"), [(0.0, 1.4), (0.0, 2.0)],
        ["1", f"({R} + cos(u))^2"], ["1", f"cos(u) / ({R} + cos(u))"],
        "1", "warped_rank_one",
    )


def _cone_op(rng: random.Random, plan: SamplePlan) -> Op:
    """Cone dt^2 + (k t)^2 dtheta^2 with the tensor diag(0, c/t), which solves
    the warping relation with h = 0."""
    k = _num(rng, 1.2, 1.8)
    c = _num(rng, 0.4, 0.8)
    return _revolution_op(
        "cone", plan, ("t", "theta"), [(0.5, 2.5), (0.0, 2.0)],
        ["1", f"({k}*t)^2"], ["0", f"{c}/t"], "0", "warped_rank_one",
    )


def _conformal_pair_op(rng: random.Random, plan: SamplePlan) -> Op:
    """Canonical conformal-product pair with phi0 = a x0 + b, phi1 = c x1 + d."""
    phi0_text = f"{_num(rng, 1.2, 1.8)}*x0 + {_num(rng, 0.2, 0.6)}"
    phi1_text = f"{_num(rng, 1.2, 1.8)}*x1 + {_num(rng, 0.2, 0.6)}"
    label = "conformal_pair"

    def run() -> int:
        f0 = FactorSpec(Chart.box([(0.15, 1.0)], names=("x0",)), ((ONE,),))
        f1 = FactorSpec(Chart.box([(0.15, 1.0)], names=("x1",)), ((ONE,),))
        cand = build_codazzi_candidate(
            "conformal_product",
            factors=(f0, f1),
            phi0=parse_expr(phi0_text, f0.chart),
            phi1=parse_expr(phi1_text, f1.chart),
        )
        rep = classify_codazzi(cand.metric, cand.tensor, plan=plan, tol=TOL)
        _check_codazzi(label, rep, None)
        return rep.n_samples

    return Op(label, run)


def codazzi_eigen(rng: random.Random, seed: int, workdir: Path) -> list[Op]:
    plan = SamplePlan(grid=6, seed=seed)
    return [_torus_op(rng, plan), _cone_op(rng, plan), _conformal_pair_op(rng, plan)]


# --- factorize_quad -------------------------------------------------------------

FACTOR_GRID = 17


def _factor(lo: float, hi: float, name: str) -> FactorSpec:
    return FactorSpec(Chart.box([(lo, hi)], names=(name,)), ((ONE,),))


def _factorize_op(label, factors, twist_texts, conformal_text, plan) -> Op:
    def run() -> int:
        fs = tuple(_factor(*f) for f in factors)
        joint = Chart.box([(lo, hi) for lo, hi, _ in factors],
                          names=tuple(n for _, _, n in factors))
        spec = ProductSpec(
            "warped", fs,
            twists=tuple(parse_expr(t, joint) for t in twist_texts),
            conformal_factor=(
                None if conformal_text is None else parse_expr(conformal_text, joint)
            ),
        )
        fac = factorize_cwp(build_metric(spec), tol=TOL, plan=plan, grid=FACTOR_GRID)
        _expect(fac.reconstruction_residual <= 1e-6, label,
                f"reconstruction residual {fac.reconstruction_residual:.3e}")
        _expect(fac.path_order_residual <= PATH_ORDER_TOL, label,
                f"path-order residual {fac.path_order_residual:.3e}")
        _expect(fac.report.flags["CWP"].status == "pass", label, "CWP flag")
        _expect(fac.phi_expr is not None, label, "closed-form factor not recovered")
        return fac.report.n_samples + fac.phi.size

    return Op(label, run)


def _warped_three_op(rng: random.Random, plan: SamplePlan) -> Op:
    """Warped product diag(1, exp(a x0)^2, exp(b x0)^2) on the unit cube."""
    a, b = _num(rng, 1.2, 1.8), _num(rng, 1.2, 1.8)
    return _factorize_op(
        "warped3",
        [(0.0, 1.0, "x0"), (0.0, 1.0, "x1"), (0.0, 1.0, "x2")],
        ["1", f"exp({a}*x0)", f"exp({b}*x0)"], None, plan,
    )


def _scaled_polar_op(rng: random.Random, plan: SamplePlan) -> Op:
    """Polar warped product dt^2 + t^2 dtheta^2 scaled by exp(a t + b theta)^2."""
    a, b = _num(rng, 0.3, 0.7), _num(rng, 0.3, 0.7)
    return _factorize_op(
        "scaled_polar",
        [(0.5, 2.5, "t"), (0.0, 2.0, "theta")],
        ["1", "t"], f"exp({a}*t + {b}*theta)", plan,
    )


def factorize_quad(rng: random.Random, seed: int, workdir: Path) -> list[Op]:
    plan = SamplePlan(seed=seed)
    return [
        _warped_three_op(rng, plan),
        _scaled_polar_op(rng, plan),
        _scaled_polar_op(rng, plan),
    ]


CYCLES = {
    "classify_sweep": classify_sweep,
    "oneshot_build": oneshot_build,
    "codazzi_eigen": codazzi_eigen,
    "factorize_quad": factorize_quad,
}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """The op cycle of one workload. Files go under workdir."""
    return CYCLES[name](random.Random(f"{name}:{seed}"), seed, workdir)
