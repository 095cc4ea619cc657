"""Command line runner: load a manifest, run one command, emit a report.

Commands
--------
classify        flag report for every declared net of the metric
verify-product  sampled residual of the twisted connection identity
factorize       gauge-fixed factor recovery for a conformally warped metric
codazzi         two-eigenvalue analysis of each declared tensor
selftest        deterministic battery over the built-in fixtures

Exit codes: 0 when every verdict passes, 2 when at least one fails, 3 when
nothing fails but at least one verdict is inconclusive, 1 on bad input or an
internal error.

JSON output is canonical: keys sorted, floats rounded to 12 significant
digits, no timing data. Identical manifests and seeds therefore produce
byte-identical reports. The text format appends wall-clock time, which the
JSON format omits on purpose.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import fixtures
from .chart_calculus import MetricField, _lc_axioms
from .codazzi import SymTensorField, classify_codazzi
from .errors import (
    ConstraintError,
    ManifestError,
    NotCodazziError,
    OrthonetError,
    ParseError,
)
from .nets import Flag, OrthogonalNet, _status, _worst, classify_net
from .product_metrics import (
    PATH_ORDER_TOL,
    FactorSpec,
    ProductSpec,
    _connection_residuals,
    _spherical_residuals,
    build_metric,
    conformal_scale,
    factorize_cwp,
)
from .sampling import SamplePlan, sample_points
from .scalar_fields import (
    Chart,
    Expr,
    ONE,
    ZERO,
    const,
    eval_jet2,
    fd_oracle,
    format_expr,
    parse_expr,
)

COMMANDS = ("classify", "verify-product", "factorize", "codazzi", "selftest")

DEFAULT_TOLERANCE = 1e-8

# selftest expectations are structural, so a coarse plan keeps it quick
_SELFTEST_PLAN = SamplePlan(grid=3, margin=0.1, random=4, seed=0)


# --- manifest loading -----------------------------------------------------------


@dataclass
class Manifest:
    """Validated manifest contents, ready to run."""

    chart: Chart
    metric: MetricField
    spec: ProductSpec | None
    nets: tuple
    tensors: tuple
    functions: dict
    plan: SamplePlan
    tolerance: float


# --- manifest schema ------------------------------------------------------------
#
# manifest.schema.json is checked by the draft-7 keywords it uses and no
# others: a keyword missing from _KEYWORDS raises at its first use. A "type"
# is one name from _TYPES, with draft-7 meaning: a bool is neither an
# integer nor a number, and 1.0 is an integer. Messages are jsonschema's,
# except that a oneOf over key sets names the keys present (_one_of), and of
# all violations the one reported is the one jsonschema's best_match picks
# (see _relevance).


@functools.cache
def _schema() -> dict:
    text = resources.files("orthonet").joinpath("manifest.schema.json").read_text()
    return json.loads(text)


@dataclass(frozen=True)
class _Violation:
    path: tuple  # keys and indices from the manifest root
    keyword: str
    message: str
    schema: dict  # the schema node that holds the keyword
    instance: object
    context: tuple = ()  # for oneOf: the violations under its branches


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
}


def _check(node: dict, x, path: tuple, out: list) -> None:
    """Append to out the violations of the value x at path against a schema
    node, in the order jsonschema's iter_errors yields them. Each keyword's
    check appends what it finds below the node and returns the message of
    its own violation at the node, if any; required and oneOf append theirs."""
    if "$ref" in node:  # draft 7: a $ref hides its siblings
        ref = node["$ref"]
        if not ref.startswith("#/definitions/"):
            raise NotImplementedError(f"manifest schema $ref {ref!r} is not supported")
        _check(_schema()["definitions"][ref[len("#/definitions/"):]], x, path, out)
        return
    for key, value in node.items():
        check = _KEYWORDS.get(key)
        if check is None:
            if key in _ANNOTATIONS:
                continue
            raise NotImplementedError(f"manifest schema keyword {key!r} is not supported")
        message = check(value, node, x, path, out)
        if message is not None:
            out.append(_Violation(path, key, message, node, x))


def _properties(props, node, x, path, out):
    if isinstance(x, dict):
        for key, sub in props.items():
            if key in x:
                _check(sub, x[key], path + (key,), out)


def _required(keys, node, x, path, out):
    if isinstance(x, dict):
        for key in keys:
            if key not in x:
                out.append(_Violation(path, "required", f"{key!r} is a required property", node, x))


def _no_additional(allowed, node, x, path, out):
    if allowed is not False:
        raise NotImplementedError("only additionalProperties: false is supported")
    if isinstance(x, dict):
        extras = sorted({k for k in x if k not in node.get("properties", {})}, key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            names = ", ".join(map(repr, extras))
            return f"Additional properties are not allowed ({names} {verb} unexpected)"


def _items(sub, node, x, path, out):
    if not isinstance(sub, dict):
        raise NotImplementedError("only a single items schema is supported")
    if isinstance(x, list):
        for i, item in enumerate(x):
            _check(sub, item, path + (i,), out)


def _one_of(branches, node, x, path, out):
    context, valid = [], []
    for sub in branches:
        errs: list = []
        _check(sub, x, path, errs)
        if errs and not valid:
            context += errs
        elif not errs:
            valid.append(sub)
    if len(valid) == 1:
        return None
    if isinstance(x, dict) and all(set(sub) == {"required"} for sub in branches):
        # a choice of key sets, such as the manifest's two top-level branches:
        # name the keys the object has rather than repeat the object
        sets = ", or ".join(" and ".join(sub["required"]) for sub in branches)
        message = f"set either {sets}, not both (found: {', '.join(sorted(map(str, x)))})"
    elif valid:
        message = f"{x!r} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}"
    else:
        message = f"{x!r} is not valid under any of the given schemas"
    if valid:
        return message
    out.append(_Violation(path, "oneOf", message, node, x, tuple(context)))


def _enum(values, node, x, path, out):
    # a string equals only itself, as in JSON; other values would need
    # JSON equality (True is not 1, 1.0 is 1)
    if not all(isinstance(v, str) for v in values):
        raise NotImplementedError("only an enum of strings is supported")
    if x not in values:
        return f"{x!r} is not one of {values!r}"


def _bound(fails, words):
    def check(limit, node, x, path, out):
        if _TYPES["number"](x) and fails(x, limit):
            return f"{x!r} is {words} {limit!r}"

    return check


_KEYWORDS = {
    "type": lambda t, node, x, path, out: None if _TYPES[t](x) else f"{x!r} is not of type {t!r}",
    "properties": _properties,
    "required": _required,
    "additionalProperties": _no_additional,
    "items": _items,
    "minItems": lambda n, node, x, path, out: (
        f"{x!r} {'should be non-empty' if n == 1 else 'is too short'}"
        if isinstance(x, list) and len(x) < n else None
    ),
    "maxItems": lambda n, node, x, path, out: (
        f"{x!r} {'is expected to be empty' if n == 0 else 'is too long'}"
        if isinstance(x, list) and len(x) > n else None
    ),
    "minimum": _bound(lambda x, m: x < m, "less than the minimum of"),
    "maximum": _bound(lambda x, m: x > m, "greater than the maximum of"),
    "exclusiveMinimum": _bound(lambda x, m: x <= m, "less than or equal to the minimum of"),
    "enum": _enum,
    "oneOf": _one_of,
}

# keywords that constrain nothing ($ref is handled before the others)
_ANNOTATIONS = frozenset({"$schema", "title", "description", "definitions"})


def _relevance(v: _Violation, base: int):
    """jsonschema's by_relevance key, for paths taken below the first base
    entries: the larger key is the better match. Shallower beats deeper, then
    the path whose keys or indices sort last wins, oneOf is weak, and a value
    that fails its node's own "type" beats one that passes it."""
    rel = v.path[base:]
    t = v.schema.get("type")
    return -len(rel), rel, v.keyword != "oneOf", t is None or not _TYPES[t](v.instance)


def _schema_violation(data) -> tuple | None:
    """(message, JSON pointer) of the violation of the manifest schema that
    jsonschema's best_match would report, or None when data is valid."""
    found: list = []
    _check(_schema(), data, (), found)
    if not found:
        return None
    best = max(found, key=lambda v: _relevance(v, 0))
    # from a oneOf that fails, best_match goes on to the least relevant (the
    # deepest) violation under its branches, unless two of them tie
    while best.context:
        key = functools.partial(_relevance, base=len(best.path))
        first, *second = sorted(best.context, key=key)[:2]
        if second and key(first) == key(second[0]):
            break
        best = first
    return best.message, "/" + "/".join(map(str, best.path))


def _parse(text: str, chart: Chart, pointer: str) -> Expr:
    try:
        return parse_expr(text, chart)
    except ParseError as e:
        raise ManifestError(f"bad expression {text!r}: {e}", pointer) from e


def _parse_matrix(rows, chart: Chart, pointer: str, symmetric: bool = False):
    """The expressions of a dim x dim matrix of strings. A symmetric matrix,
    as a metric's must be, is refused at its first lower entry that does not
    read as the upper one: only the upper triangle of a metric is kept. A
    lower entry whose text is the upper one's takes the upper one's
    expression, which was parsed first, so errors come in the same order."""
    n = chart.dim
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ManifestError(f"components must form a {n} by {n} matrix", pointer)
    m = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if symmetric and b < a and rows[a][b] == rows[b][a]:
                m[a][b] = m[b][a]
            else:
                m[a][b] = _parse(rows[a][b], chart, f"{pointer}/{a}/{b}")
    if symmetric:
        for a in range(n):
            for b in range(a):
                if rows[a][b] == rows[b][a]:
                    continue
                lower, upper = (format_expr(e, chart.names) for e in (m[a][b], m[b][a]))
                if lower != upper:
                    raise ManifestError(
                        f"metric components must be symmetric: {lower!r} differs from "
                        f"{upper!r} at {pointer}/{b}/{a}", f"{pointer}/{a}/{b}")
    return tuple(tuple(r) for r in m)


def _build_chart(cdata: dict, pointer: str) -> Chart:
    domain = [tuple(float(x) for x in iv) for iv in cdata["domain"]]
    dim = len(domain)
    if "dim" in cdata and cdata["dim"] != dim:
        raise ManifestError(
            f"dim {cdata['dim']} disagrees with {dim} domain intervals",
            f"{pointer}/dim",
        )
    names = cdata.get("names")
    if names is not None and len(names) != dim:
        raise ManifestError(
            f"expected {dim} names, got {len(names)}", f"{pointer}/names"
        )
    blocks = cdata.get("blocks")
    if blocks is not None:
        blocks = tuple(tuple(int(i) for i in b) for b in blocks)
    try:
        return Chart.box(domain, names=names, blocks=blocks)
    except (OrthonetError, ValueError) as e:
        raise ManifestError(str(e), pointer) from e


def _build_product(pdata: dict) -> ProductSpec:
    factors = []
    all_domain: list = []
    all_names: list = []
    offset = 0
    for fi, fdata in enumerate(pdata["factors"]):
        ptr = f"/product/factors/{fi}"
        domain = [tuple(float(x) for x in iv) for iv in fdata["domain"]]
        d = len(domain)
        names = fdata.get("names")
        if names is None:
            names = [f"x{offset + a}" for a in range(d)]
        elif len(names) != d:
            raise ManifestError(
                f"expected {d} names, got {len(names)}", f"{ptr}/names"
            )
        try:
            fchart = Chart.box(domain, names=tuple(names))
        except (OrthonetError, ValueError) as e:
            raise ManifestError(str(e), ptr) from e
        repeated = next((nm for nm in names if nm in all_names), None)
        if repeated is not None:
            raise ManifestError(
                f"coordinate name {repeated!r} repeats a name of an earlier factor",
                f"{ptr}/names" if "names" in fdata else ptr,
            )
        comps = fdata.get("components")
        if comps is None:
            metric = tuple(
                tuple(ONE if a == b else ZERO for b in range(d)) for a in range(d)
            )
        else:
            metric = _parse_matrix(comps, fchart, f"{ptr}/components", symmetric=True)
        factors.append(FactorSpec(fchart, metric))
        all_domain.extend(domain)
        all_names.extend(names)
        offset += d

    joint = Chart.box(all_domain, names=tuple(all_names))
    twist_texts = pdata.get("twists")
    if twist_texts is None:
        twist_texts = ["1"] * len(factors)
    if len(twist_texts) != len(factors):
        raise ManifestError(
            f"expected {len(factors)} twists, got {len(twist_texts)}",
            "/product/twists",
        )
    twists = tuple(
        _parse(t, joint, f"/product/twists/{i}") for i, t in enumerate(twist_texts)
    )
    cf = None
    if "conformal" in pdata:
        cf = _parse(pdata["conformal"], joint, "/product/conformal")
    try:
        return ProductSpec(
            pdata["kind"], tuple(factors), twists=twists, conformal_factor=cf
        )
    except OrthonetError as e:
        raise ManifestError(str(e), "/product") from e


def load_manifest(path) -> Manifest:
    """Read, validate, and compile a manifest file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ManifestError(
            f"invalid JSON: {e.msg} (line {e.lineno} column {e.colno})", ""
        ) from e

    violation = _schema_violation(data)
    if violation is not None:
        raise ManifestError(*violation)
    tolerance = float(data.get("tolerance", DEFAULT_TOLERANCE))
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ManifestError(f"tolerance must be finite and > 0, got {tolerance}", "/tolerance")

    if "product" in data:
        spec = _build_product(data["product"])
        try:
            metric = build_metric(spec)
        except OrthonetError as e:
            raise ManifestError(str(e), "/product") from e
        chart = metric.chart
        if "chart" in data:
            declared = _build_chart(data["chart"], "/chart")
            same = declared.dim == chart.dim and all(
                abs(a[0] - b[0]) <= 1e-12 and abs(a[1] - b[1]) <= 1e-12
                for a, b in zip(declared.domain, chart.domain)
            )
            if not same:
                raise ManifestError(
                    "chart does not match the product factors", "/chart"
                )
    else:
        spec = None
        chart = _build_chart(data["chart"], "/chart")
        entries = _parse_matrix(
            data["metric"]["components"], chart, "/metric/components", symmetric=True
        )
        try:
            metric = MetricField(chart, entries)
        except OrthonetError as e:
            raise ManifestError(str(e), "/metric") from e

    nets = []
    for ni, ndata in enumerate(data.get("nets", [])):
        blocks = tuple(tuple(int(i) for i in b) for b in ndata["blocks"])
        try:
            nets.append(OrthogonalNet.coordinate(chart, blocks))
        except OrthonetError as e:
            raise ManifestError(str(e), f"/nets/{ni}/blocks") from e
    if not nets:
        default_blocks = chart.blocks or tuple((i,) for i in range(chart.dim))
        try:
            nets.append(OrthogonalNet.coordinate(chart, default_blocks))
        except OrthonetError as e:
            raise ManifestError(str(e), "/chart/blocks") from e

    tensors = []
    for ti, tdata in enumerate(data.get("tensors", [])):
        comps = _parse_matrix(
            tdata["components"], chart, f"/tensors/{ti}/components"
        )
        try:
            tensors.append((tdata["name"], SymTensorField(chart, comps, metric=metric)))
        except OrthonetError as e:
            raise ManifestError(str(e), f"/tensors/{ti}") from e

    functions: dict = {}
    for fi, fdata in enumerate(data.get("functions", [])):
        name = fdata["name"]
        if name in functions:
            raise ManifestError(
                f"duplicate function name {name!r}", f"/functions/{fi}/name"
            )
        fchart = Chart.box([(-1e9, 1e9)], names=(fdata["var"],))
        functions[name] = _parse(fdata["body"], fchart, f"/functions/{fi}/body")

    sdata = data.get("sampling", {})
    try:
        plan = SamplePlan(
            grid=int(sdata.get("grid", 5)),
            margin=float(sdata.get("margin", 0.1)),
            random=int(sdata.get("random", 16)),
            seed=int(sdata.get("seed", 0)),
        )
    except ValueError as e:
        raise ManifestError(str(e), "/sampling") from e

    return Manifest(
        chart=chart,
        metric=metric,
        spec=spec,
        nets=tuple(nets),
        tensors=tuple(tensors),
        functions=functions,
        plan=plan,
        tolerance=tolerance,
    )


# --- commands -------------------------------------------------------------------


def _cmd_classify(man: Manifest, tol: float, plan: SamplePlan):
    results: dict = {"nets": []}
    verdicts: dict = {}
    for idx, net in enumerate(man.nets):
        rep = classify_net(man.metric, net, plan, tol)
        d = rep.to_dict()
        d["blocks"] = [list(b) for b in net.blocks]
        results["nets"].append(d)
        for k, f in rep.flags.items():
            verdicts[f"net{idx}.{k}"] = f.to_dict()
    return results, verdicts


def _draw_pairs(seed: int, count: int, dim: int):
    """count pairs of random constant fields (X, Y), each (count, dim), drawn
    pair by pair, X before Y, with components uniform in [-1, 1]."""
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, 2, dim))
    return draws[:, 0], draws[:, 1]


def _cmd_verify_product(man: Manifest, tol: float, plan: SamplePlan):
    if man.spec is None:
        raise ConstraintError("verify-product requires a product manifest")
    if man.spec.conformal_factor is not None:
        raise ConstraintError(
            "verify-product applies to unscaled products; drop the conformal factor"
        )
    pairs = 4
    pts = sample_points(man.chart, plan)
    X, Y = _draw_pairs(plan.seed, len(pts) * pairs, man.chart.dim)
    shape = (len(pts), pairs, man.chart.dim)
    per_point = _connection_residuals(man.spec, pts, X.reshape(shape), Y.reshape(shape)).max(axis=1)
    worst = _worst("connection_identity", per_point, pts)
    rows = [{"point": p, "residual": r} for p, r in zip(pts.tolist(), per_point.tolist())]
    results = {
        "kind": man.spec.kind,
        "max_residual": worst,
        "pairs_per_point": pairs,
        "n_samples": len(rows),
        "table": rows,
    }
    return results, {"connection_identity": Flag(_status(worst, tol), worst).to_dict()}


def _cmd_factorize(man: Manifest, tol: float, plan: SamplePlan):
    fac = factorize_cwp(man.metric, tol=tol, plan=plan)
    results = fac.to_dict()
    rec, order = fac.reconstruction_residual, fac.path_order_residual
    flags = {
        "reconstruction": Flag(_status(rec, tol), rec),
        "path_order": Flag(_status(order, PATH_ORDER_TOL), order),
    }
    return results, {k: f.to_dict() for k, f in flags.items()}


def _cmd_codazzi(man: Manifest, tol: float, plan: SamplePlan):
    if not man.tensors:
        raise ConstraintError("codazzi requires at least one tensor in the manifest")
    h = man.functions.get("h")
    results: dict = {}
    verdicts: dict = {}
    for name, phi in man.tensors:
        try:
            rep = classify_codazzi(man.metric, phi, h=h, plan=plan, tol=tol)
        except NotCodazziError as e:
            results[name] = {"error": str(e)}
            flags = {"codazzi": Flag("fail", float(getattr(e, "residual", math.inf)))}
        else:
            results[name] = rep.to_dict()
            worst = rep.codazzi_residual
            flags = {"codazzi": Flag(_status(worst, tol), worst), **rep.flags}
        for k, f in flags.items():
            verdicts[f"{name}.{k}"] = f.to_dict()
    return results, verdicts


# --- selftest battery -----------------------------------------------------------


def _flag_pattern_ok(rep, expected_pass):
    for k, f in rep.flags.items():
        want = "pass" if k in expected_pass else "fail"
        if f.status != want:
            return False
    return True


def _cmd_selftest(tol: float, plan: SamplePlan):
    checks: dict = {}

    def put(name, residual, ok):
        checks[name] = Flag("pass" if ok else "fail", float(residual)).to_dict()

    chart = Chart.box([(0.0, 1.0), (0.0, 1.0)], names=("x0", "x1"))
    e = parse_expr("exp(x0*x1) + sin(x0)^2", chart)
    p = (0.3, 0.7)
    jet = eval_jet2(e, p)
    gfd, hfd = fd_oracle(e, p, 1e-4)
    errors = np.concatenate([np.abs(jet.grad - gfd).ravel(), np.abs(jet.hess - hfd).ravel()])
    worst = _worst("derivative_fd", errors.max(keepdims=True), [p])
    put("derivative_fd", worst, worst <= 1e-5)

    worst = 0.0
    for g in (
        fixtures.euclidean(),
        fixtures.polar(),
        fixtures.torus()[0],
        fixtures.exp_sum_conformal(),
    ):
        pts = sample_points(g.chart, plan)
        worst = max(worst, _worst("levi_civita", np.maximum(*_lc_axioms(g, pts)), pts))
    put("levi_civita", worst, worst <= 1e-10)

    g = fixtures.polar()
    rep = classify_net(g, OrthogonalNet.coordinate(g.chart), plan, tol)
    put(
        "net_polar",
        max(f.residual for f in rep.flags.values()),
        _flag_pattern_ok(rep, {"TP", "WP", "QW", "CQW", "CQW0", "CWP", "CP"}),
    )

    g = fixtures.twisted_flat()
    rep = classify_net(g, OrthogonalNet.coordinate(g.chart), plan, tol)
    cwp = rep.flags["CWP"].residual
    put(
        "net_twisted_control",
        cwp,
        _flag_pattern_ok(rep, {"TP", "QW", "CQW", "CQW0"}) and cwp > 1e-3,
    )

    g = fixtures.warped_three()
    rep = classify_net(g, OrthogonalNet.coordinate(g.chart), plan, tol)
    put(
        "net_warped_three",
        max(f.residual for f in rep.flags.values() if f.status == "pass"),
        _flag_pattern_ok(rep, {"TP", "WP", "QW", "CQW", "CWP"}),
    )

    g = fixtures.exp_sum_conformal()
    rep = classify_net(g, OrthogonalNet.coordinate(g.chart), plan, tol)
    put(
        "net_exp_sum",
        rep.flags["CP"].residual,
        _flag_pattern_ok(rep, {"TP", "CQW", "CQW0", "CWP", "CP"}),
    )

    g = fixtures.cqw_three()
    rep = classify_net(g, OrthogonalNet.coordinate(g.chart), plan, tol)
    put("h0_sum_three_block", rep.h0_sum_residual, rep.h0_sum_residual <= 1e-9)

    spec = fixtures.twisted_flat_spec()
    pts = np.array([(0.4, 0.5), (0.8, 0.3), (1.0, 1.0)])
    X, Y = _draw_pairs(plan.seed, 4 * len(pts), 2)
    worst = _worst("connection_identity",
                   _connection_residuals(spec, pts, X.reshape(3, 4, 2), Y.reshape(3, 4, 2)).max(axis=1), pts)
    put("connection_identity", worst, worst <= 1e-9)

    g = fixtures.polar()
    fac = factorize_cwp(conformal_scale(g, parse_expr("exp(t + theta)", g.chart)))
    put(
        "factorize_scaled_polar",
        max(fac.reconstruction_residual, fac.path_order_residual),
        fac.reconstruction_residual <= 1e-6
        and fac.path_order_residual <= PATH_ORDER_TOL,
    )

    spec, phi_sum, phi_ctl = fixtures.sum_reciprocal()
    pts = ((0.3, 0.4), (0.5, 0.9), (0.85, 0.2))
    w_sum = _worst("spherical_factor_split", _spherical_residuals(spec, phi_sum, 1, pts).max(axis=1), pts)
    # the control must fail at every point; a nan there propagates and fails
    w_ctl = _spherical_residuals(spec, phi_ctl, 1, pts).max(axis=1).min()
    put("spherical_factor_split", w_sum, w_sum <= 1e-9 and w_ctl > 1e-3)

    g, phi = fixtures.torus()
    rep = classify_codazzi(g, phi, h=const(1.0), plan=plan, tol=tol)
    put(
        "codazzi_torus",
        max(rep.codazzi_residual, rep.warping_ode_residual or 0.0),
        rep.relation_case == "warped_rank_one"
        and rep.codazzi_residual <= 1e-10
        and (rep.warping_ode_residual or 0.0) <= 1e-9,
    )

    g, phi = fixtures.polar_cone()
    rep = classify_codazzi(g, phi, h=const(0.0), plan=plan, tol=tol)
    put(
        "codazzi_cone",
        max(rep.codazzi_residual, rep.warping_ode_residual or 0.0),
        rep.relation_case == "warped_rank_one"
        and rep.codazzi_residual <= 1e-10
        and (rep.warping_ode_residual or 0.0) <= 1e-9,
    )

    cand = fixtures.conformal_product_pair()
    rep = classify_codazzi(cand.metric, cand.tensor, plan=plan, tol=tol)
    two_path = max(
        rep.residuals["eta_two_path"], rep.residuals["zeta_two_path"]
    )
    put(
        "codazzi_conformal_pair",
        max(rep.codazzi_residual, two_path),
        all(f.status == "pass" for f in rep.flags.values()) and two_path <= 1e-9,
    )

    verdicts = {k: dict(v) for k, v in checks.items()}
    results = {"checks": checks, "n_checks": len(checks)}
    return results, verdicts


# --- report assembly and emission -------------------------------------------------


def _exit_code(verdicts: dict) -> int:
    statuses = {v["status"] for v in verdicts.values()}
    if "fail" in statuses:
        return 2
    if "inconclusive" in statuses:
        return 3
    return 0


def run(command: str, manifest: Manifest | None, tolerance=None, plan=None):
    """Run one command and return (report dict, exit code)."""
    if command not in COMMANDS:
        raise ConstraintError(f"unknown command {command!r}")
    if command == "selftest":
        tol = DEFAULT_TOLERANCE if tolerance is None else float(tolerance)
        plan = plan or _SELFTEST_PLAN
        results, verdicts = _cmd_selftest(tol, plan)
    else:
        if manifest is None:
            raise ConstraintError(f"{command} requires a manifest")
        tol = manifest.tolerance if tolerance is None else float(tolerance)
        plan = plan or manifest.plan
        handler = {
            "classify": _cmd_classify,
            "verify-product": _cmd_verify_product,
            "factorize": _cmd_factorize,
            "codazzi": _cmd_codazzi,
        }[command]
        results, verdicts = handler(manifest, tol, plan)
    report = {
        "command": command,
        "tolerance": tol,
        "sampling": {
            "grid": plan.grid,
            "margin": plan.margin,
            "random": plan.random,
            "seed": plan.seed,
        },
        "results": results,
        "verdicts": verdicts,
    }
    return report, _exit_code(verdicts)


_quote = json.encoder.encode_basestring_ascii


def _write_json(obj, out: list, pad: str) -> None:
    """Append the canonical JSON text of obj to out, one pass, in the layout
    of json.dumps(sort_keys=True, indent=2); pad is the newline and indent of
    obj's line. numpy scalars are read by .item(), floats are rounded to 12
    significant digits (one that is not finite is written as the string of
    its repr), keys are str(key), arrays and tuples are lists, and any other
    object is the string str(obj)."""
    if isinstance(obj, str):
        out.append(_quote(obj))
        return
    if isinstance(obj, bool):
        out.append("true" if obj else "false")
        return
    if obj is None:
        out.append("null")
        return
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        out.append(repr(float(f"{obj:.12e}")) if math.isfinite(obj) else _quote(repr(obj)))
        return
    if isinstance(obj, int):
        out.append(int.__repr__(obj))
        return
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{"
        for k, v in sorted({str(k): v for k, v in obj.items()}.items()):
            out += (sep, inner, _quote(k), ": ")
            _write_json(v, out, inner)
            sep = ","
        out += (pad, "}")
        return
    if isinstance(obj, np.ndarray):
        obj = list(obj.tolist())
    elif not isinstance(obj, (list, tuple)):
        out.append(_quote(str(obj)))
        return
    if not obj:
        out.append("[]")
        return
    sep = "["
    for v in obj:
        out += (sep, inner)
        _write_json(v, out, inner)
        sep = ","
    out += (pad, "]")


_TAGS = {
    "pass": "PASS",
    "fail": "FAIL",
    "inconclusive": "INCONCLUSIVE",
    "not_applicable": "N/A",
}


def emit(report: dict, fmt: str = "text", elapsed=None) -> str:
    """Render a report. JSON is canonical and timing-free; text is for eyes."""
    if fmt == "json":
        out: list = []
        _write_json(report, out, "\n")
        out.append("\n")
        return "".join(out)
    s = report["sampling"]
    lines = [
        f"command: {report['command']}",
        f"tolerance: {report['tolerance']:.12e}",
        "sampling: grid={grid} margin={margin} random={random} seed={seed}".format(**s),
    ]
    res = report["results"]
    cmd = report["command"]
    if cmd == "classify":
        for i, nd in enumerate(res["nets"]):
            lines.append(
                f"net{i}: blocks={nd['blocks']} "
                f"h0_sum={nd['h0_sum_residual']:.12e} samples={nd['n_samples']}"
            )
    elif cmd == "verify-product":
        lines.append(
            f"kind={res['kind']} samples={res['n_samples']} "
            f"pairs_per_point={res['pairs_per_point']}"
        )
    elif cmd == "factorize":
        lines.append(f"base={res['base']} blocks={res['blocks']}")
        if "phi_expr" in res:
            lines.append(f"conformal factor: {res['phi_expr']}")
    elif cmd == "codazzi":
        for name in sorted(res):
            body = res[name]
            if "error" in body:
                lines.append(f"{name}: {body['error']}")
            else:
                lines.append(
                    f"{name}: ranks=({body['rank_lambda']}, {body['rank_mu']}) "
                    f"case={body['relation_case']}"
                )
    elif cmd == "selftest":
        lines.append(f"checks: {res['n_checks']}")
    lines.append("verdicts:")
    verdicts = report["verdicts"]
    for k in sorted(verdicts):
        v = verdicts[k]
        tag = _TAGS.get(v["status"], v["status"])
        r = v.get("residual")
        suffix = "" if r is None else f"  residual {r:.12e}"
        lines.append(f"  [{tag}] {k}{suffix}")
    word = {0: "pass", 2: "fail", 3: "inconclusive"}[_exit_code(verdicts)]
    lines.append(f"summary: {word}")
    if elapsed is not None:
        lines.append(f"elapsed: {elapsed:.2f}s")
    return "\n".join(lines) + "\n"


# --- entry point ----------------------------------------------------------------


class _UsageError(OrthonetError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes an argument for a value only if it looks like a
        # negative number, and its pattern has no exponent: without this,
        # "--tolerance -1e-3" reads -1e-3 as an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


def _bounded(kind, ok, need: str):
    """An argparse type: kind(text), rejected unless ok(value). The bounds
    are those the manifest schema sets for the same fields."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="orthonet",
        description="Classify, verify, and factor structured Riemannian metrics "
        "described by a JSON manifest.",
    )
    p.add_argument("--command", choices=COMMANDS, required=True)
    p.add_argument("--manifest", help="path to a manifest JSON file")
    p.add_argument(
        "--tolerance",
        type=_bounded(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
        default=None,
        help=f"residual tolerance (default {DEFAULT_TOLERANCE:g} or manifest value)",
    )
    p.add_argument(
        "--samples",
        type=_bounded(int, lambda v: v >= 2, ">= 2"),
        default=None,
        help="grid points per axis override",
    )
    p.add_argument(
        "--seed",
        type=_bounded(int, lambda v: v >= 0, ">= 0"),
        default=None,
        help="sampling seed override",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    return p


def main(argv=None) -> int:
    t0 = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    stage = "load"
    try:
        if args.command == "selftest":
            manifest = None
            plan = dataclasses.replace(
                _SELFTEST_PLAN,
                grid=args.samples if args.samples is not None else _SELFTEST_PLAN.grid,
                seed=args.seed if args.seed is not None else _SELFTEST_PLAN.seed,
            )
        else:
            if not args.manifest:
                raise ManifestError(
                    f"--manifest is required for {args.command}", ""
                )
            manifest = load_manifest(args.manifest)
            plan = manifest.plan
            if args.samples is not None:
                plan = dataclasses.replace(plan, grid=args.samples)
            if args.seed is not None:
                plan = dataclasses.replace(plan, seed=args.seed)
        stage = "run"
        report, code = run(
            args.command, manifest, tolerance=args.tolerance, plan=plan
        )
        stage = "emit"
        elapsed = time.perf_counter() - t0
        out = emit(report, args.fmt, elapsed=elapsed if args.fmt == "text" else None)
    except (OrthonetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - no input may end in a traceback
        print(f"error: internal error in {stage}: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
