"""Golden-report gate: every command on every shipped manifest, plus selftest.

Each file under tests/golden holds the argument vector of one CLI run, its
exit code, and either its JSON report or its error line. A rerun must match
statuses, exit codes, keys and strings exactly, and every number to within
max(1e-12, 1e-9 |x|), so a change of the numeric machinery may move residuals
by rounding but never a verdict.

Regenerate the files after a deliberate change of the reports with

    PYTHONPATH=src python tests/test_golden.py --write [NAME...]

where each NAME is a run, the file name without .json (polar.factorize,
selftest): only those files are rewritten, so the others keep their bytes.
A bare --write rewrites every file.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import orthonet
from orthonet import scalar_fields
from orthonet.chart_calculus import MetricField
from orthonet.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFESTS = (
    "polar", "twisted_control", "factorize_scaled_polar", "torus_codazzi", "warped_three",
    "conformal_pair3",
)
COMMANDS = ("classify", "verify-product", "factorize", "codazzi")

ABS_TOL = 1e-12
REL_TOL = 1e-9


def _runs():
    out = {"selftest": ["--command", "selftest", "--format", "json"]}
    for m in MANIFESTS:
        for c in COMMANDS:
            out[f"{m}.{c}"] = [
                "--command", c, "--manifest", f"manifests/{m}.json", "--format", "json",
            ]
    return out


def _invoke(argv) -> dict:
    argv = [str(ROOT / a) if a.startswith("manifests/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    result = {"exit_code": code}
    if code == 1:
        result["error"] = err.getvalue()
    else:
        result["report"] = json.loads(out.getvalue())
    return result


def _compare(want, got, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert sorted(want) == sorted(got), f"{path}: keys {sorted(got)}"
        for k in want:
            _compare(want[k], got[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (w, g) in enumerate(zip(want, got)):
            _compare(w, g, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), f"{path}: {got!r} is not a float"
        tol = max(ABS_TOL, REL_TOL * abs(want))
        assert abs(got - want) <= tol, f"{path}: {got!r} != {want!r} (tol {tol:.1e})"
    else:
        assert got == want and type(got) is type(want), f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(_runs()))
def test_golden_report(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert want["argv"] == _runs()[name]
    got = _invoke(want["argv"])
    assert got["exit_code"] == want["exit_code"]
    _compare({k: v for k, v in want.items() if k != "argv"}, got)


@pytest.mark.parametrize("name", sorted(n for n in _runs() if n != "selftest"))
def test_commands_never_use_the_interpreter(name, monkeypatch):
    # every command runs on tapes: the pointwise interpreter is an oracle only
    def refuse(*args):
        raise AssertionError("scalar_fields._eval called")

    monkeypatch.setattr("orthonet.scalar_fields._eval", refuse)
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    got = _invoke(want["argv"])
    assert got["exit_code"] == want["exit_code"]
    if "error" in want:
        assert got["error"] == want["error"]
    else:
        statuses = {k: v["status"] for k, v in got["report"]["verdicts"].items()}
        assert statuses == {k: v["status"] for k, v in want["report"]["verdicts"].items()}


@pytest.mark.parametrize("name", sorted(n for n in _runs() if n.endswith(".classify")))
def test_classify_builds_no_derivative_trees(name, monkeypatch):
    # classify takes the partials of the metric and the frame from the jet
    # sweep of their tape; diff trees only name errors where jets are not finite
    def refuse(*args):
        raise AssertionError("scalar_fields._diff called")

    monkeypatch.setattr("orthonet.scalar_fields._diff", refuse)
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    got = _invoke(want["argv"])
    assert got["exit_code"] == want["exit_code"]
    if "error" in want:
        assert got["error"] == want["error"]
    else:
        statuses = {k: v["status"] for k, v in got["report"]["verdicts"].items()}
        assert statuses == {k: v["status"] for k, v in want["report"]["verdicts"].items()}


@pytest.mark.parametrize("name", sorted(_runs()))
def test_runs_build_no_symbolic_christoffel_symbols(name, monkeypatch):
    # Gamma comes from the numpy kernel over metric jets: the symbolic
    # Christoffel and inverse entries are the pointwise reference only
    def refuse(self):
        raise AssertionError("symbolic Christoffel or inverse entries built")

    monkeypatch.setattr(MetricField, "christoffel_entries", refuse)
    monkeypatch.setattr(MetricField, "inverse_entries", refuse)
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    got = _invoke(want["argv"])
    assert got["exit_code"] == want["exit_code"]
    _compare({k: v for k, v in want.items() if k != "argv"}, got)


def _golden_exit(name) -> int:
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))["exit_code"]


@pytest.mark.parametrize("name", sorted(n for n in _runs() if _golden_exit(n) != 1))
def test_runs_build_diff_trees_only_to_mend_jets(name, monkeypatch):
    # every partial a run reads comes off a jet sweep: diff is called only by
    # Sweep.repair, which mends jets that are not finite
    allowed = {scalar_fields.Sweep.repair.__code__}
    diff = scalar_fields.diff
    outside = []

    def guarded(e, i):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in allowed:
            frame = frame.f_back
        if frame is None:
            outside.append(sys._getframe(1).f_code.co_name)
        return diff(e, i)

    modules = [orthonet] + [importlib.import_module(f"orthonet.{m.name}")
                            for m in pkgutil.iter_modules(orthonet.__path__)]
    wrapped = [m for m in modules if getattr(m, "diff", None) is diff]
    for module in wrapped:
        monkeypatch.setattr(module, "diff", guarded)
    assert _invoke(_runs()[name])["exit_code"] == _golden_exit(name)
    assert outside == []
    # the wrapper is live: a call from here is seen
    wrapped[-1].diff(scalar_fields.var(0), 0)
    assert len(outside) == 1


def _write(names):
    GOLDEN.mkdir(exist_ok=True)
    runs = _runs()
    for name in names:
        doc = {"argv": runs[name], **_invoke(runs[name])}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    names = sys.argv[2:] or list(_runs())
    if sys.argv[1:2] != ["--write"] or not set(names) <= set(_runs()):
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write [NAME...]")
    _write(names)
