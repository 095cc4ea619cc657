"""Manifest loading, command plumbing, exit codes, and output formats."""

import ast
import contextlib
import copy
import importlib
import io
import itertools
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthonet
from orthonet import cli
from orthonet.cli import (
    COMMANDS,
    DEFAULT_TOLERANCE,
    build_parser,
    emit,
    load_manifest,
    main,
    run,
)
from orthonet import codazzi, sampling, scalar_fields
from orthonet.errors import ConstraintError, ManifestError, OrthonetError, ParseError
from orthonet.sampling import SamplePlan, sample_points
from orthonet.scalar_fields import Chart, Tape, parse_expr

MANIFESTS = Path(__file__).resolve().parents[1] / "manifests"
SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports orthonet from this tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, check=False)


def write_manifest(tmp_path, data, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def flat_manifest(**extra):
    data = {
        "chart": {"domain": [[0.0, 1.0], [0.0, 1.0]], "names": ["x0", "x1"]},
        "metric": {"components": [["1", "0"], ["0", "1"]]},
    }
    data.update(extra)
    return data


def test_load_shipped_polar_manifest():
    man = load_manifest(MANIFESTS / "polar.json")
    assert man.chart.names == ("t", "theta")
    assert man.tolerance == 1e-8
    assert man.spec is None
    # the chart blocks become the default coordinate net
    assert len(man.nets) == 1
    assert man.nets[0].blocks == ((0,), (1,))


def test_load_shipped_product_manifest():
    man = load_manifest(MANIFESTS / "twisted_control.json")
    assert man.spec is not None
    assert man.spec.kind == "twisted"
    assert man.chart.dim == 2
    assert man.metric.provenance is man.spec


def test_default_net_without_blocks(tmp_path):
    man = load_manifest(write_manifest(tmp_path, flat_manifest()))
    assert man.nets[0].blocks == ((0,), (1,))


def test_manifest_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json", encoding="utf-8")
    with pytest.raises(ManifestError, match="invalid JSON.*line 1"):
        load_manifest(path)


def test_manifest_schema_violations(tmp_path):
    with pytest.raises(ManifestError):
        load_manifest(write_manifest(tmp_path, {"chart": {"domain": []}}))
    data = flat_manifest()
    data["metric"]["components"] = [["1", 2], ["0", "1"]]
    with pytest.raises(ManifestError, match="/metric/components"):
        load_manifest(write_manifest(tmp_path, data))
    data = flat_manifest(sampling={"margin": 0.9})
    with pytest.raises(ManifestError, match="/sampling/margin"):
        load_manifest(write_manifest(tmp_path, data))


# --- the schema validator against jsonschema ---------------------------------------

SHIPPED = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(MANIFESTS.glob("*.json"))]
# no shipped manifest sets a sampling plan, so each is also taken with one
SEEDS = SHIPPED + [{**m, "sampling": {"grid": 5, "margin": 0.1, "random": 4, "seed": 0}}
                   for m in SHIPPED]

# values that break, or sit on, a bound or a type of the schema
ODD_VALUES = [True, False, None, -1, 0, 1, 2, 1.0, 2.0, 2.5, -1e-9, 0.45, 0.45 + 1e-9,
              1e300, math.inf, math.nan, "", "x", [], [1.0], [0.0, 1.0, 2.0], [[0.0, 1.0]],
              [["1"]], {}, {"domain": [[0.0, 1.0]]}]
EXTRA_KEYS = ["chart", "metric", "product", "dim", "names", "domain", "blocks", "kind",
              "grid", "extra"]


def jsonschema_verdict(data, schema=None):
    """(message, pointer) of jsonschema's best_match under draft 7, or None;
    the schema defaults to the manifest schema."""
    jsonschema = pytest.importorskip("jsonschema")
    if schema is None:
        schema = json.loads((SRC / "orthonet" / "manifest.schema.json").read_text(encoding="utf-8"))
    best = jsonschema.exceptions.best_match(jsonschema.Draft7Validator(schema).iter_errors(data))
    if best is None:
        return None
    return best.message, "/" + "/".join(str(x) for x in best.absolute_path)


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def places(node, path=()):
    """The path of every value in a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from places(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from places(v, path + (i,))


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# the values an edit of each kind may touch
EDIT_TARGETS = {
    "drop": lambda path, v: bool(path),
    "replace": lambda path, v: bool(path),
    "bound": lambda path, v: is_number(v),
    "float": lambda path, v: type(v) is int,
    "add": lambda path, v: isinstance(v, dict),
    "append": lambda path, v: isinstance(v, list),
}
BOUND_VALUES = [-1, -1e-9, 0, 1, 2, 0.45, 0.45 + 1e-9]


@st.composite
def mutated_manifests(draw):
    """A shipped manifest, with or without a sampling plan, after one to
    three edits: a key or item dropped, a value replaced by one of
    ODD_VALUES (bools for integers, wrong types), a number set on or past a
    bound of the schema, an integer written as a float, a key added (an
    extra one, or the other branch of the top-level oneOf), or an item
    appended."""
    doc = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(sorted(EDIT_TARGETS)))
        paths = [p for p in places(doc) if EDIT_TARGETS[edit](p, value_at(doc, p))]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        value = value_at(doc, path)
        parent = value_at(doc, path[:-1]) if path else None
        if edit == "drop":
            del parent[path[-1]]
        elif edit == "replace":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif edit == "bound":
            parent[path[-1]] = draw(st.sampled_from(BOUND_VALUES))
        elif edit == "float":
            parent[path[-1]] = float(value)
        elif edit == "add":
            other = draw(st.sampled_from(SHIPPED))
            key = draw(st.sampled_from(EXTRA_KEYS))
            value[key] = copy.deepcopy(other.get(key, draw(st.sampled_from(ODD_VALUES))))
        else:
            value.append(copy.deepcopy(value[-1] if value else draw(st.sampled_from(ODD_VALUES))))
    return doc


# jsonschema's messages for the top-level oneOf, which repeat the manifest;
# the validator names the keys present there instead
ROOT_ONEOF = (" is valid under each of ", " is not valid under any of the given schemas")


@settings(max_examples=400)
@given(mutated_manifests())
def test_schema_validator_agrees_with_jsonschema(data):
    got, want = cli._schema_violation(data), jsonschema_verdict(data)
    if want is not None and want[1] == "/" and any(t in want[0] for t in ROOT_ONEOF):
        assert got == ("set either chart and metric, or product, not both "
                       f"(found: {', '.join(sorted(data))})", "/")
    else:
        assert got == want


@pytest.mark.parametrize("data, want", [
    # draft-7 types: a bool is no integer, 1.0 is one, nan is a number but no integer
    (flat_manifest(sampling={"grid": True}), ("True is not of type 'integer'", "/sampling/grid")),
    (flat_manifest(sampling={"grid": 3.0}), None),
    (flat_manifest(tolerance=math.nan), None),
    (flat_manifest(sampling={"seed": math.nan}), ("nan is not of type 'integer'", "/sampling/seed")),
    (flat_manifest(tolerance=0), ("0 is less than or equal to the minimum of 0", "/tolerance")),
    # of sibling violations, the one whose key sorts last wins
    (flat_manifest(sampling={"margin": 0.46, "grid": 1}),
     ("0.46 is greater than the maximum of 0.45", "/sampling/margin")),
    # the shallowest violation wins over a deeper one
    (flat_manifest(extra=1, sampling={"grid": 0}),
     ("Additional properties are not allowed ('extra' was unexpected)", "/")),
    (flat_manifest(zeta=1, alpha=2),
     ("Additional properties are not allowed ('alpha', 'zeta' were unexpected)", "/")),
])
def test_schema_validator_fixed_cases(data, want):
    assert cli._schema_violation(data) == want
    assert jsonschema_verdict(data) == want


@pytest.mark.parametrize("data, ending", [
    (flat_manifest(product=SHIPPED[-1]["product"]),
     " is valid under each of {'required': ['product']}, {'required': ['chart', 'metric']}"),
    ({"chart": {"domain": [[0.0, 1.0]]}}, " is not valid under any of the given schemas"),
])
def test_schema_validator_names_both_or_neither_branch_at_the_root(data, ending):
    # jsonschema repeats the whole manifest at the root; the validator names
    # the keys present instead, at the same pointer
    assert jsonschema_verdict(data) == (repr(data) + ending, "/")
    found = "chart, metric, product" if "product" in data else "chart"
    assert cli._schema_violation(data) == (
        f"set either chart and metric, or product, not both (found: {found})", "/")


# oneOfs whose branches fail at different depths, or at one depth by a value
# that does or does not match the branch's type, where best_match goes on
# into the branches; the manifest schema's branches always tie
BRANCHING = {"oneOf": [{"type": "array", "items": {"type": "integer"}},
                       {"type": "string"},
                       {"type": "object", "properties": {"a": {"oneOf": [{"type": "integer"},
                                                                         {"type": "array"}]}}}]}
TYPED = {"oneOf": [{"type": "object", "required": ["b"]}, {"type": "string"}]}


@pytest.mark.parametrize("schema, data", [
    *[(BRANCHING, d) for d in ([1, "x"], [1, 2.5, 3], 5, True, {"a": "x"}, {"a": []}, "s")],
    *[(TYPED, d) for d in ({}, {"c": 1}, 5)],
])
def test_schema_validator_descends_a_failing_oneof_as_best_match_does(schema, data, monkeypatch):
    monkeypatch.setattr(cli, "_schema", lambda: schema)
    assert cli._schema_violation(data) == jsonschema_verdict(data, schema)


def schema_nodes(node):
    yield node
    for key in ("definitions", "properties"):
        for sub in node.get(key, {}).values():
            yield from schema_nodes(sub)
    if "items" in node:
        yield from schema_nodes(node["items"])
    for sub in node.get("oneOf", ()):
        yield from schema_nodes(sub)


def test_schema_validator_implements_exactly_the_keywords_the_schema_uses():
    nodes = list(schema_nodes(cli._schema()))
    used = set().union(*nodes) - cli._ANNOTATIONS
    assert used == set(cli._KEYWORDS) | {"$ref"}
    assert {node["type"] for node in nodes if "type" in node} <= set(cli._TYPES)
    # an unknown keyword raises where it is met; it never passes silently
    with pytest.raises(NotImplementedError, match="'pattern'"):
        cli._check({"pattern": "^x"}, "y", (), [])
    with pytest.raises(NotImplementedError, match="additionalProperties: false"):
        cli._check({"additionalProperties": {"type": "string"}}, {"a": "b"}, (), [])
    with pytest.raises(NotImplementedError, match="enum of strings"):
        cli._check({"enum": ["a", 1]}, "a", (), [])


def test_manifest_bad_expression_pointer(tmp_path):
    data = flat_manifest()
    data["metric"]["components"][0][0] = "1 +"
    with pytest.raises(ManifestError, match="/metric/components"):
        load_manifest(write_manifest(tmp_path, data))
    data = flat_manifest()
    data["metric"]["components"][0][0] = "1 + zz"
    with pytest.raises(ManifestError, match="/metric/components"):
        load_manifest(write_manifest(tmp_path, data))


def test_manifest_metric_must_be_symmetric(tmp_path):
    # only the upper triangle of a metric is read, so a lower one that
    # differs is refused at the lower entry, in either form of manifest
    data = json.loads((MANIFESTS / "polar.json").read_text())
    data["metric"]["components"] = [["1", "0"], ["5", "t^2"]]
    with pytest.raises(ManifestError, match="'5' differs from '0'.*at /metric/components/1/0"):
        load_manifest(write_manifest(tmp_path, data))
    factors = [{"names": ["a", "b"], "domain": [[0.0, 1.0]] * 2,
                "components": [["2", "0.5"], ["0.25", "2"]]},
               {"names": ["c"], "domain": [[0.0, 1.0]]}]
    data = {"product": {"kind": "product", "factors": factors}}
    with pytest.raises(ManifestError, match="at /product/factors/0/components/1/0"):
        load_manifest(write_manifest(tmp_path, data))
    # a (1,1)-tensor need not be symmetric; an equal entry written another
    # way is the same expression
    data = json.loads((MANIFESTS / "polar.json").read_text())
    data["metric"]["components"] = [["1", "0*t"], ["0", "t*t"]]
    assert load_manifest(write_manifest(tmp_path, data)).metric.dim == 2


@pytest.mark.parametrize("text", ["1e400", "NaN"])
def test_manifest_tolerance_must_be_finite(tmp_path, capsys, text):
    # as for --tolerance: finite and > 0; inf would pass every flag
    raw = (MANIFESTS / "twisted_control.json").read_text()
    path = tmp_path / "m.json"
    path.write_text(raw.replace('"tolerance": 1e-8', f'"tolerance": {text}'), encoding="utf-8")
    assert main(["--command", "classify", "--manifest", str(path)]) == 1
    err = capsys.readouterr().err
    assert "tolerance must be finite and > 0" in err and "(at /tolerance)" in err


def test_manifest_chart_product_mismatch(tmp_path):
    raw = json.loads((MANIFESTS / "twisted_control.json").read_text())
    raw["chart"] = {"domain": [[0.0, 9.0], [0.2, 1.2]]}
    with pytest.raises(ManifestError, match="does not match the product"):
        load_manifest(write_manifest(tmp_path, raw))


def test_manifest_duplicate_function_names(tmp_path):
    data = flat_manifest(functions=[
        {"name": "h", "var": "s", "body": "s"},
        {"name": "h", "var": "s", "body": "2*s"},
    ])
    with pytest.raises(ManifestError, match="duplicate function"):
        load_manifest(write_manifest(tmp_path, data))


def test_manifest_bad_net_blocks(tmp_path):
    data = flat_manifest(nets=[{"blocks": [[0], [0, 1]]}])
    with pytest.raises(ManifestError, match="/nets/0/blocks"):
        load_manifest(write_manifest(tmp_path, data))


@pytest.mark.parametrize("names, pointer", [
    ((["u"], ["u"]), "/product/factors/1/names"),
    # the second factor's defaulted name is x1
    ((["x1"], None), "/product/factors/1"),
])
def test_manifest_factor_names_must_not_collide(tmp_path, capsys, names, pointer):
    data = json.loads((MANIFESTS / "twisted_control.json").read_text(encoding="utf-8"))
    for factor, given_names in zip(data["product"]["factors"], names):
        factor.pop("names")
        if given_names is not None:
            factor["names"] = given_names
    data["product"]["twists"] = ["1", "1"]
    name = names[0][0]
    want = f"coordinate name {name!r} repeats a name of an earlier factor (at {pointer})"
    with pytest.raises(ManifestError) as err:
        load_manifest(write_manifest(tmp_path, data))
    assert str(err.value) == want
    assert main(["--command", "classify", "--manifest", str(write_manifest(tmp_path, data))]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"


# --- the loader and the commands on malformed manifests (ROADMAP O5) ----------------

# expressions that do not parse, or parse to a field that fails somewhere
BAD_EXPRESSIONS = ["", "x0 +", "((t)", "foo(t)", "x9", "1/0", "log(0)", "sqrt(-1)", "0", "-1",
                   "t^1e300", "1e400", "exp(1000)", "1/(t - t)", "log(x0 - 0.5)"]


def expression_places(doc):
    """The paths of the expression strings of a manifest."""
    return [p for p in places(doc) if isinstance(value_at(doc, p), str)
            and any(k in p for k in ("components", "twists", "conformal", "body"))]


def collide_names(doc):
    """Give two coordinates one name: the last factor of a product takes the
    first factor's first name (x0 where it has no names), or else a chart's
    second name becomes its first."""
    product, chart = doc.get("product"), doc.get("chart")
    factors = product.get("factors") if isinstance(product, dict) else None
    if isinstance(factors, list) and len(factors) > 1 and all(isinstance(f, dict) for f in factors):
        names, domain = factors[0].get("names"), factors[-1].get("domain")
        if isinstance(domain, list):
            name = names[0] if isinstance(names, list) and names else "x0"
            factors[-1]["names"] = [name] + [f"y{a}" for a in range(1, len(domain))]
    elif isinstance(chart, dict) and isinstance(chart.get("names"), list) and len(chart["names"]) > 1:
        chart["names"][1] = chart["names"][0]


@st.composite
def fuzzed_manifests(draw):
    """A shipped manifest after one to three edits: a key or a list item
    dropped, a list item duplicated, a value of the wrong type, a number on
    or past a schema bound, an expression from BAD_EXPRESSIONS, or factor
    names made to collide."""
    doc = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["drop", "duplicate", "type", "bound", "expression",
                                     "collide"]))
        if edit == "collide":
            collide_names(doc)
            continue
        targets = {
            "drop": lambda p, v: bool(p),
            "duplicate": lambda p, v: isinstance(v, list) and bool(v),
            "type": lambda p, v: bool(p),
            "bound": lambda p, v: is_number(v),
        }
        if edit == "expression":
            paths = expression_places(doc)
        else:
            paths = [p for p in places(doc) if targets[edit](p, value_at(doc, p))]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        value = value_at(doc, path)
        parent = value_at(doc, path[:-1]) if path else None
        if edit == "drop":
            del parent[path[-1]]
        elif edit == "duplicate":
            i = draw(st.integers(0, len(value) - 1))
            value.insert(i, copy.deepcopy(value[i]))
        elif edit == "type":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif edit == "bound":
            parent[path[-1]] = draw(st.sampled_from(BOUND_VALUES))
        else:
            parent[path[-1]] = draw(st.sampled_from(BAD_EXPRESSIONS))
    return doc


@settings(max_examples=150, derandomize=True, deadline=None)
@given(fuzzed_manifests())
def test_fuzzed_manifests_never_end_in_an_internal_error(tmp_path_factory, data):
    path = str(tmp_path_factory.getbasetemp() / "fuzzed.json")
    Path(path).write_text(json.dumps(data), encoding="utf-8")
    for command in ("classify", "verify-product", "factorize", "codazzi"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--command", command, "--manifest", path, "--samples", "3",
                         "--format", "json"])
        assert code in (0, 1, 2, 3)
        assert "internal error" not in err.getvalue(), err.getvalue()
        if code != 1:
            json.loads(out.getvalue())


def test_classify_exit_codes():
    man = load_manifest(MANIFESTS / "polar.json")
    report, code = run("classify", man)
    assert code == 0
    assert all(v["status"] in ("pass", "not_applicable")
               for v in report["verdicts"].values())

    twisted = load_manifest(MANIFESTS / "twisted_control.json")
    report, code = run("classify", twisted)
    assert code == 2
    assert report["verdicts"]["net0.CWP"]["status"] == "fail"
    assert report["verdicts"]["net0.CWP"]["residual"] > 1e-3

    # a loose tolerance moves the failures into the inconclusive band
    report, code = run("classify", twisted, tolerance=0.1)
    assert code == 3
    statuses = {v["status"] for v in report["verdicts"].values()}
    assert "fail" not in statuses and "inconclusive" in statuses


def test_verify_product_command():
    man = load_manifest(MANIFESTS / "twisted_control.json")
    report, code = run("verify-product", man, tolerance=1e-9)
    assert code == 0
    assert report["verdicts"]["connection_identity"]["residual"] <= 1e-9
    assert report["results"]["kind"] == "twisted"

    metric_only = load_manifest(MANIFESTS / "polar.json")
    with pytest.raises(ConstraintError, match="requires a product manifest"):
        run("verify-product", metric_only)


def test_verify_product_rejects_scaled_spec():
    man = load_manifest(MANIFESTS / "factorize_scaled_polar.json")
    with pytest.raises(ConstraintError, match="unscaled"):
        run("verify-product", man)


def test_factorize_command():
    man = load_manifest(MANIFESTS / "factorize_scaled_polar.json")
    report, code = run("factorize", man)
    assert code == 0
    assert report["verdicts"]["reconstruction"]["residual"] <= 1e-6
    assert report["verdicts"]["path_order"]["residual"] <= 1e-7
    assert report["results"]["blocks"] == [[0], [1]]


def test_codazzi_command():
    man = load_manifest(MANIFESTS / "torus_codazzi.json")
    report, code = run("codazzi", man)
    assert code == 0
    body = report["results"]["shape_operator"]
    assert body["relation_case"] == "warped_rank_one"
    assert report["verdicts"]["shape_operator.codazzi"]["status"] == "pass"
    assert report["verdicts"]["shape_operator.conformal_product"]["status"] == "pass"


def test_codazzi_requires_tensor(tmp_path):
    man = load_manifest(write_manifest(tmp_path, flat_manifest()))
    with pytest.raises(ConstraintError, match="at least one tensor"):
        run("codazzi", man)


def test_codazzi_violation_is_verdict_not_error(tmp_path):
    data = flat_manifest(tensors=[
        {"name": "phi", "components": [["1 + x1", "0"], ["0", "3"]]}
    ])
    man = load_manifest(write_manifest(tmp_path, data))
    report, code = run("codazzi", man)
    assert code == 2
    assert "error" in report["results"]["phi"]
    verdict = report["verdicts"]["phi.codazzi"]
    assert verdict["status"] == "fail"
    assert verdict["residual"] == pytest.approx(1.0, abs=1e-9)


def test_selftest_passes_and_is_deterministic():
    report1, code1 = run("selftest", None)
    report2, code2 = run("selftest", None)
    assert code1 == code2 == 0
    assert report1["results"]["n_checks"] >= 10
    assert emit(report1, "json") == emit(report2, "json")


def emitted(obj):
    """obj as it reads back from the canonical JSON of a report holding it."""
    return json.loads(emit({"v": obj}, "json"))["v"]


def test_canonical_rounding():
    assert emitted(0.1 + 0.2) == 0.3
    assert emitted(np.float64(2.5)) == 2.5
    assert emitted(np.int64(7)) == 7
    assert emitted(float("inf")) == "inf"
    assert emitted((1.0, {"a": np.arange(2.0)})) == [1.0, {"a": [0.0, 1.0]}]
    # 12 significant digits, so deep float noise is squashed
    assert emitted(1.0000000000000002) == 1.0


def canonical_ref(obj):
    """The canonical form that emit's JSON dumps, as a separate walk: the
    oracle for the one-pass writer."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return repr(obj)
        return float(f"{obj:.12e}")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, dict):
        return {str(k): canonical_ref(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [canonical_ref(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [canonical_ref(x) for x in obj]
    return str(obj)


REPORT_LEAVES = st.one_of(
    st.floats(),  # nan, +-inf and -0.0 included
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-2**70, 2**70),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(),  # non-ASCII included
    st.complex_numbers(max_magnitude=10),
    st.lists(st.floats(), max_size=4).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=3).map(np.array),
)
REPORTS = st.recursive(REPORT_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.text(max_size=3), st.integers(-3, 3)), inner, max_size=4),
), max_leaves=30)


@settings(max_examples=200)
@given(REPORTS)
def test_emit_json_matches_the_two_pass_reference(report):
    want = json.dumps(canonical_ref(report), sort_keys=True, indent=2) + "\n"
    assert emit(report, "json") == want


def test_emit_text_format():
    man = load_manifest(MANIFESTS / "polar.json")
    report, _ = run("classify", man)
    text = emit(report, "text", elapsed=0.5)
    assert text.startswith("command: classify\n")
    assert "net0: blocks=[[0], [1]]" in text
    assert "[PASS] net0.WP" in text
    assert "summary: pass" in text
    assert text.rstrip().endswith("elapsed: 0.50s")
    # JSON output carries no timing, so bytes are reproducible
    assert "elapsed" not in emit(report, "json")


def test_main_json_runs_are_byte_identical(capsys):
    argv = ["--command", "classify", "--manifest", str(MANIFESTS / "polar.json"),
            "--format", "json"]
    assert main(argv) == 0
    out1 = capsys.readouterr().out
    assert main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    parsed = json.loads(out1)
    assert parsed["command"] == "classify"


def test_consecutive_main_calls_match_fresh_processes(capsys):
    # the parser and the schema validator are built once per process; a
    # second call without the first call's flags must not inherit them
    polar = str(MANIFESTS / "polar.json")
    runs = [["--command", "classify", "--manifest", polar, "--samples", "3",
             "--seed", "5", "--format", "json"],
            ["--command", "classify", "--manifest", polar, "--format", "json"]]
    in_process = []
    for argv in runs:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out.encode()))
    assert in_process[0][1] != in_process[1][1]
    for argv, (code, out) in zip(runs, in_process):
        fresh = fresh_python("import sys; from orthonet.cli import main; "
                             "sys.exit(main(sys.argv[1:]))", *argv)
        assert (fresh.returncode, fresh.stdout) == (code, out)


def test_cli_import_loads_no_scipy():
    fresh = fresh_python("import sys, orthonet.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == b"[]\n"


def test_cli_import_loads_no_jsonschema():
    fresh = fresh_python("import sys, orthonet.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))")
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == b"[]\n"


@pytest.mark.parametrize("stage, target", [
    ("load", "load_manifest"), ("run", "_cmd_classify"), ("emit", "_write_json"),
])
def test_unexpected_exception_exits_1_naming_its_stage(stage, target, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("broken on purpose")

    monkeypatch.setattr(cli, target, broken)
    argv = ["--command", "classify", "--manifest", str(MANIFESTS / "polar.json"), "--format", "json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: internal error in {stage}: ValueError: broken on purpose\n"
    assert captured.out == ""


def test_main_error_paths(tmp_path, capsys):
    assert main(["--command", "classify"]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["--command", "nope"]) == 1
    capsys.readouterr()

    assert main(["--command", "classify", "--manifest", "/no/such/file.json"]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["--command", "classify", "--manifest", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "invalid JSON" in err

    # overrides outside the bounds the manifest schema sets
    polar = str(MANIFESTS / "polar.json")
    for flag, value in [("--samples", "0"), ("--samples", "1"), ("--seed", "-1"),
                        ("--tolerance", "nan"), ("--tolerance", "inf"),
                        ("--tolerance", "0")]:
        assert main(["--command", "classify", "--manifest", polar, flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {flag}: "), err
    # a negative value in exponent form is a value, in either spelling
    for argv in (["--tolerance", "-1e-3"], ["--tolerance=-1e-3"]):
        assert main(["--command", "classify", "--manifest", polar, *argv]) == 1
        assert capsys.readouterr().err == (
            "error: argument --tolerance: must be finite and > 0, got -1e-3\n"
        )
    assert main(["--command", "selftest", "--samples", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: argument --samples: ")

    # sample points print as plain floats
    warped = tmp_path / "warped.json"
    warped.write_text(json.dumps({"product": {
        "kind": "warped",
        "factors": [{"names": ["x0"], "domain": [[0.0, 1.0]]},
                    {"names": ["x1"], "domain": [[0.0, 1.0]]}],
        "twists": ["1", "1/(x0 - 0.75) + 3"],
    }}), encoding="utf-8")
    assert main(["--command", "classify", "--manifest", str(warped)]) == 1
    assert capsys.readouterr().err == (
        "error: twist 1 is -1 <= 0 at (0.5, 0.0) (at /product)\n"
    )


def test_main_sampling_overrides(capsys):
    argv = ["--command", "classify", "--manifest", str(MANIFESTS / "polar.json"),
            "--samples", "3", "--seed", "5", "--format", "json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sampling"]["grid"] == 3
    assert report["sampling"]["seed"] == 5


def test_parser_defaults():
    args = build_parser().parse_args(["--command", "selftest"])
    assert args.fmt == "text"
    assert args.tolerance is None
    assert DEFAULT_TOLERANCE == 1e-8


def test_verify_product_draws_pairs_in_pointwise_order(monkeypatch):
    # per point, per pair, X then Y: the order of drawing each field just
    # before checking it at that point
    calls = []

    def record(spec, pts, X, Y):
        calls.append((pts, X, Y))
        return np.zeros(X.shape[:2])

    monkeypatch.setattr(cli, "_connection_residuals", record)
    man = load_manifest(MANIFESTS / "twisted_control.json")
    report, _ = run("verify-product", man)
    (pts, X, Y), = calls
    samples = sample_points(man.chart, man.plan)
    assert np.array_equal(pts, samples)
    rng = np.random.default_rng(man.plan.seed)
    for j in range(len(samples) * 4):
        assert np.array_equal(X[j // 4, j % 4], rng.uniform(-1.0, 1.0, 2))
        assert np.array_equal(Y[j // 4, j % 4], rng.uniform(-1.0, 1.0, 2))
    assert report["results"]["n_samples"] == len(samples)


def test_verify_product_sweeps_each_point_once(monkeypatch):
    # the four pairs of a point are contracted against one swept row
    man = load_manifest(MANIFESTS / "twisted_control.json")
    seen = []
    jet_sweep = Tape.jet_sweep

    def spy(self, points):
        seen.append(len(points))
        return jet_sweep(self, points)

    monkeypatch.setattr(Tape, "jet_sweep", spy)
    report, _ = run("verify-product", man)
    assert seen == [len(sample_points(man.chart, man.plan))]
    assert report["results"]["pairs_per_point"] == 4


def test_deep_expression_manifest(tmp_path, capsys):
    # a 1000-term metric entry parses to a sum 1000 levels deep
    terms = " + ".join(["0.001*x0"] * 999)
    data = {
        "chart": {"domain": [[0.5, 1.5], [0.5, 1.5]], "names": ["x0", "x1"]},
        "metric": {"components": [[f"1 + {terms}", "0"], ["0", "1"]]},
    }
    path = str(write_manifest(tmp_path, data))
    assert main(["--command", "classify", "--manifest", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {v["status"] for v in report["verdicts"].values()} == {"pass"}
    for command in COMMANDS:
        for fmt in ("text", "json"):
            code = main(["--command", command, "--manifest", path, "--format", fmt])
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert (code == 1) == err.startswith("error: ")
    # with coordinate blocks the metric factors, evaluated on tapes throughout
    data["chart"]["blocks"] = [[0], [1]]
    path = str(write_manifest(tmp_path, data, "blocks.json"))
    assert main(["--command", "factorize", "--manifest", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["verdicts"]) == {"path_order", "reconstruction"}
    assert {v["status"] for v in report["verdicts"].values()} == {"pass"}
    # a tensor diag(3 + the same sum, 1) is Codazzi, with the verdicts of its
    # one-term equivalent diag(3 + 0.999*x0, 1) over 1 + 0.999*x0
    statuses = []
    for sum_text in (terms, "0.999*x0"):
        data["metric"]["components"][0][0] = f"1 + {sum_text}"
        data["tensors"] = [
            {"name": "t", "components": [[f"3 + {sum_text}", "0"], ["0", "1"]]}
        ]
        path = str(write_manifest(tmp_path, data, "tensor.json"))
        assert main(["--command", "codazzi", "--manifest", path, "--format", "json"]) == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        statuses.append({k: v["status"] for k, v in verdicts.items()})
    assert statuses[0] == statuses[1]
    assert set(statuses[0]) == {"t.codazzi", "t.conformal_product", "t.spherical_eigenbundles"}
    # 500 nested parentheses are refused by the parser, naming the entry
    data = flat_manifest()
    data["metric"]["components"][0][0] = "(" * 500 + "1" + ")" * 500
    path = str(write_manifest(tmp_path, data, "nested.json"))
    assert main(["--command", "classify", "--manifest", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad expression")
    assert "nested deeper than 100 levels" in err
    assert err.rstrip().endswith("(at /metric/components/0/0)")
    # a 1000-term twist: the connection identity holds on the tapes
    twist = "1 + " + " + ".join(["0.001*x0*x1"] * 999)
    data = {
        "product": {
            "kind": "twisted",
            "factors": [{"names": ["x0"], "domain": [[0.2, 1.2]]},
                        {"names": ["x1"], "domain": [[0.2, 1.2]]}],
            "twists": ["1", twist],
        },
    }
    path = str(write_manifest(tmp_path, data, "twist.json"))
    assert main(["--command", "verify-product", "--manifest", path, "--format", "json"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts["connection_identity"]["status"] == "pass"


def test_every_exported_name_resolves():
    # a deleted class or function must leave __all__ with it
    names = ["orthonet"] + [f"orthonet.{m.name}" for m in pkgutil.iter_modules(orthonet.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], name


def test_no_module_imports_a_name_it_never_uses():
    # a name counts as used where the module reads it or lists it in __all__
    for path in sorted((SRC / "orthonet").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        assert sorted(imported - used) == [], path.name


def test_every_sample_is_named_through_one_helper():
    # a message names a sample through scalar_fields._point, from the points
    # themselves: no f-string formats a tuple(...) call, no function takes a
    # list of labels beside its points, and no _first_fault decides a
    # sweep's first failure apart from _raise_first
    for path in sorted((SRC / "orthonet").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FormattedValue):
                v = node.value
                assert not (isinstance(v, ast.Call) and getattr(v.func, "id", None) == "tuple"), (
                    path.name, node.lineno)
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                assert "labels" not in [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)], (
                    path.name, node.lineno)
                assert getattr(node, "name", None) != "_first_fault", path.name


def test_the_metric_jets_and_christoffel_symbols_are_formed_in_one_place():
    # nets compiles no tape, so it reads its metric through chart_calculus's
    # checked sweep; _metric_jets is called there only, and _levi_civita only
    # by _metric_jets and for the product metric of _connection_residuals.
    # d Gamma is formed where it is read: _levi_civita takes no second
    # partials, and _dgamma is called by the frame algebra of nets only
    calls, params = set(), {}
    for path in sorted((SRC / "orthonet").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem == "nets":
            assert "compile_tape" not in {
                a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                params[path.stem, fn.name] = [a.arg for a in fn.args.args]
                calls |= {
                    (node.func.id, path.stem, fn.name) for node in ast.walk(fn)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("_metric_jets", "_levi_civita", "_dgamma")}
    assert calls == {
        ("_metric_jets", "chart_calculus", "_jets"),
        ("_levi_civita", "chart_calculus", "_metric_jets"),
        ("_levi_civita", "product_metrics", "_connection_residuals"),
        ("_dgamma", "nets", "_frame_algebra"),
    }
    assert params["chart_calculus", "_levi_civita"] == ["G", "dG"]


def test_non_finite_constant_manifest_exits_1(tmp_path, capsys):
    # 1e400 is refused where it is parsed, with the entry's pointer
    data = json.loads((MANIFESTS / "polar.json").read_text(encoding="utf-8"))
    data["metric"]["components"][1][1] = "t^2*1e400"
    path = str(write_manifest(tmp_path, data))
    want = ("error: bad expression 't^2*1e400': number 1e400 is not finite (at position 4) "
            "(at /metric/components/1/1)\n")
    for command in ("classify", "factorize"):
        assert main(["--command", command, "--manifest", path]) == 1
        assert capsys.readouterr().err == want
    proc = fresh_python("import sys; from orthonet.cli import main; sys.exit(main(sys.argv[1:]))",
                        "--command", "classify", "--manifest", path)
    assert proc.returncode == 1
    assert proc.stderr.decode() == want


def test_folded_non_finite_constant_names_the_entry(tmp_path, capsys):
    data = json.loads((MANIFESTS / "polar.json").read_text(encoding="utf-8"))
    data["metric"]["components"][1][1] = "t^2*(1e200*1e200)"
    path = str(write_manifest(tmp_path, data))
    assert main(["--command", "classify", "--manifest", path]) == 1
    assert capsys.readouterr().err == (
        "error: bad expression 't^2*(1e200*1e200)': constant folds to inf (at position 10) "
        "(at /metric/components/1/1)\n"
    )


def test_sample_plan_size_is_bounded(tmp_path, capsys, monkeypatch):
    # the bound is checked in integers before anything is allocated
    def unreachable(*args):
        raise AssertionError("allocated a refused plan")

    monkeypatch.setattr(sampling, "_margin_box", unreachable)
    chart = load_manifest(MANIFESTS / "polar.json").chart
    with pytest.raises(OrthonetError, match="sample plan of grid 1000000000 over 2 axes and 16 random points"):
        sample_points(chart, SamplePlan(grid=10**9))
    monkeypatch.undo()
    monkeypatch.setattr(sampling, "MAX_POINTS", 20)
    assert len(sample_points(chart, SamplePlan(grid=4, random=4))) == 20
    with pytest.raises(OrthonetError, match="exceeds 20 points"):
        sample_points(chart, SamplePlan(grid=4, random=5))
    monkeypatch.undo()
    data = json.loads((MANIFESTS / "polar.json").read_text(encoding="utf-8"))
    data["sampling"] = {"grid": 10**9}
    path = str(write_manifest(tmp_path, data))
    monkeypatch.setattr(sampling, "_margin_box", unreachable)
    for argv in (["--manifest", path], ["--manifest", str(MANIFESTS / "polar.json"), "--samples", "400"]):
        assert main(["--command", "classify", *argv]) == 1
        assert "exceeds 100000 points" in capsys.readouterr().err


@pytest.mark.parametrize("dim", range(1, 5))
def test_tensor_grid_is_the_per_point_loop(dim):
    # one grid builder for sample plans and factorize: bit for bit the points
    # of a loop over itertools.product, in its order, then the random points
    chart = Chart.box([(0.5, 2.5)] * dim)
    for grid in range(1, 8):
        plan = SamplePlan(grid=grid, margin=0.1, random=3, seed=grid)
        lows, highs = sampling._margin_box(chart, plan.margin)
        axes = [np.linspace(lows[i], highs[i], grid) for i in range(dim)]
        loop = [np.array(c) for c in itertools.product(*axes)]
        assert np.array_equal(sampling._mesh(axes), np.array(loop))
        u = np.random.default_rng(plan.seed).uniform(size=(plan.random, dim))
        loop.extend(lows + u * (highs - lows))
        assert np.array_equal(sample_points(chart, plan), np.array(loop))


def test_no_maximum_drops_a_nan_and_no_module_keeps_stage_constants():
    # max(0.0, *r) and min(1.0, *r) skip a nan that is not first, so no
    # builtin max or min takes a starred argument: a maximum over samples
    # goes through nets._worst. The first failure is picked by
    # scalar_fields._first from masks in check order, so nets and codazzi
    # define no stage constants (names unpacked from a range)
    for path in sorted((SRC / "orthonet").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        starred = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("max", "min") and any(isinstance(a, ast.Starred) for a in node.args)]
        assert starred == [], path.name
        if path.stem in ("nets", "codazzi"):
            stages = [
                ast.unparse(node) for node in tree.body
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "range"
                or isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) in ("_CLEAN", "_OK") for t in node.targets)]
            assert stages == [], path.name


def test_verify_product_refuses_a_pair_residual_that_is_not_finite(monkeypatch, capsys):
    # a nan residual of one pair at one sample was dropped by max(0.0, *r),
    # leaving exit 0 and "pass"; it now raises, naming the sample
    residuals = cli._connection_residuals

    def poisoned(*args):
        out = residuals(*args)
        out[2, 1] = np.nan
        return out

    monkeypatch.setattr(cli, "_connection_residuals", poisoned)
    man = load_manifest(MANIFESTS / "twisted_control.json")
    label = tuple(sample_points(man.chart, man.plan)[2].tolist())
    assert main(["--command", "verify-product", "--manifest", str(MANIFESTS / "twisted_control.json")]) == 1
    assert capsys.readouterr().err == (
        f"error: connection_identity residual is nan at {label}; residuals must be finite\n")


def test_factorize_of_a_finite_metric_with_large_entries(tmp_path, capsys):
    # diag(c, c exp(t)^2, c exp(t)^2) with c = 1e200: the block determinants
    # overflow, but their logs do not, and the reconstruction norms are
    # scaled, so the warpings equal those of c = 1 and no warning escapes
    reports = {}
    for c in ("1e200", "1"):
        e = f"{c}*exp(t)^2"
        data = {
            "chart": {"dim": 3, "names": ["t", "x", "y"], "blocks": [[0], [1, 2]],
                      "domain": [[0.5, 1.0], [0.0, 1.0], [0.0, 1.0]]},
            "metric": {"components": [[c, "0", "0"], ["0", e, "0"], ["0", "0", e]]},
            "sampling": {"grid": 3, "random": 2},
        }
        path = str(write_manifest(tmp_path, data, f"c{c}.json"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--command", "factorize", "--manifest", path, "--format", "json"]) == 0
        assert [str(w.message) for w in caught] == []
        reports[c] = json.loads(capsys.readouterr().out)
    big, unit = (reports[c]["results"] for c in ("1e200", "1"))
    assert np.allclose(big["warpings"]["1"], unit["warpings"]["1"], rtol=1e-12, atol=0.0)
    assert big["reconstruction_residual"] <= 1e-15
    assert reports["1e200"]["verdicts"]["path_order"] == {"residual": 0.0, "status": "pass"}


def test_superscript_digit_in_a_manifest_names_the_entry(tmp_path, capsys):
    # '²' passed str.isdigit, so float raised a ValueError that the CLI
    # reported as an internal error in load, with no pointer
    data = json.loads((MANIFESTS / "polar.json").read_text(encoding="utf-8"))
    data["metric"]["components"][1][1] = "t*²"
    path = str(write_manifest(tmp_path, data))
    assert main(["--command", "classify", "--manifest", path]) == 1
    assert capsys.readouterr().err == (
        "error: bad expression 't*²': unexpected character '²' (at position 2) "
        "(at /metric/components/1/1)\n"
    )


def test_log_determinants_are_taken_in_one_place():
    # np.linalg.slogdet, which runs LAPACK once per matrix, is called only by
    # chart_calculus._slogdet, which takes a 1 x 1 block in closed form
    where = []
    for path in sorted((SRC / "orthonet").glob("*.py")):
        def visit(node, fn):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "slogdet":
                where.append((path.stem, fn))
            for child in ast.iter_child_nodes(node):
                visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    assert where == [("chart_calculus", "_slogdet")]


def _where(match) -> list:
    """(module, qualified name of the innermost enclosing def or class) of
    every node of src/orthonet that match holds for, in file and tree order."""
    where = []
    for path in sorted((SRC / "orthonet").glob("*.py")):
        def visit(node, scope):
            if match(node):
                where.append((path.stem, scope))
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                visit(child, inner)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return where


def test_every_verdict_dict_is_built_by_flag():
    # a report's {"status", "residual"} verdicts all come from nets.Flag.to_dict
    def status_dict(node):
        return isinstance(node, ast.Dict) and any(
            isinstance(k, ast.Constant) and k.value == "status" for k in node.keys)

    assert _where(status_dict) == [("nets", "Flag.to_dict")]


def test_fields_are_paired_by_their_norms_in_one_place():
    # the field norms are read off a diagonal (an einsum of one operand with
    # a repeated index, such as "mii->mi") and their products floored at
    # 1e-300 in chart_calculus._pair_scale only
    def diagonal(node):
        return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum"
                and isinstance(node.args[0], ast.Constant)
                and "," not in (lhs := node.args[0].value.split("->")[0])
                and len(set(lhs)) < len(lhs))

    def pair_floor(node):
        return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "maximum"
                and len(node.args) == 2 and isinstance(node.args[0], ast.BinOp)
                and isinstance(node.args[0].op, ast.Mult)
                and isinstance(node.args[1], ast.Constant) and node.args[1].value == 1e-300)

    assert _where(diagonal) == [("chart_calculus", "_pair_scale")]
    assert _where(pair_floor) == [("chart_calculus", "_pair_scale")]


def test_unary_operations_live_in_one_table():
    # scalar_fields._UNARY is the only table of unary operations, and the
    # parser takes its ops but neg as function names, and no other name
    for gone in ("_UNARY_EVAL", "_UNARY_UFUNC", "_UNARY_RULES", "_BUILTINS"):
        assert not hasattr(scalar_fields, gone), gone
    chart = Chart.box([(1.0, 2.0)], names=("x",))
    accepted = set()
    for name in sorted({*scalar_fields._UNARY, "x", "sec", "log10", "pow"}):
        try:
            parse_expr(f"{name}(x)", chart)
        except ParseError as e:
            assert str(e) == f"unknown function {name!r} (at position 0)"
        else:
            accepted.add(name)
    assert accepted == set(scalar_fields._UNARY) - {"neg"}


def test_the_codazzi_identities_are_listed_once():
    # no display in src/orthonet names more than one of the six identities
    # but codazzi._IDENTITIES, which every per-sample score is keyed by
    def listing(node):
        elts = node.keys if isinstance(node, ast.Dict) else getattr(node, "elts", [])
        names = {e.value for e in elts if isinstance(e, ast.Constant)}
        return len(names & set(codazzi._IDENTITIES)) > 1

    assert _where(listing) == [("codazzi", None)]
