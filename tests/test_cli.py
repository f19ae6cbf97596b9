import importlib.metadata
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tfc_solve import catalog
from tfc_solve.cli import main, write_json

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def control_doc():
    return {
        "schema_version": 1,
        "kind": "control",
        "interval": [0.0, 2.0],
        "A11": [["0", "1"], ["0", "0"]],
        "A12": [["0", "0"], ["0", "-1"]],
        "A21": [["-1", "0"], ["0", "0"]],
        "A22": [["0", "0"], ["-1", "0"]],
        "x0": [1.0, 0.0],
        "lambda_f": [0.0, 0.0],
        "solver": {"m": 20, "N": 200},
    }


def test_solve_catalog_outputs(tmp_path):
    code, out = run(tmp_path, "solve", "catalog:eq19")
    assert code == 0
    header, data = read_csv(out / "solution.csv")
    assert header == ["t", "y", "ydot", "yddot", "residual"]
    assert data.shape == (1000, 5)
    assert data[0, 0] == 1.0 and data[-1, 0] == 4.0
    assert data[0, 1] == pytest.approx(1.0, abs=1e-12)  # y(t1) = 1
    assert data[0, 2] == pytest.approx(0.0, abs=1e-12)  # ydot(t1) = 0
    assert np.max(np.abs(data[:, 4])) <= 1e-8  # physical residual

    report = json.loads((out / "report.json").read_text())
    assert report["problem"] == "eq19"
    assert report["m"] == 17 and report["N"] == 1000
    assert report["residual_std"] <= 1e-10
    assert report["max_error"] <= 1e-9
    assert not report["rank_deficient"]


def test_solve_problem_file(tmp_path):
    doc = {
        "schema_version": 1,
        "kind": "bvp",
        "interval": [0.0, 1.0],
        "coefficients": {"f2": "1", "f1": "0", "f0": "0", "f": "0"},
        "constraints": [
            {"order": 0, "at": "t1", "value": 0.0},
            {"order": 0, "at": "t2", "value": 1.0},
        ],
        "solver": {"m": 6, "N": 100},
    }
    pfile = tmp_path / "line.json"
    pfile.write_text(json.dumps(doc))
    code, out = run(tmp_path, "solve", str(pfile))
    assert code == 0
    _, data = read_csv(out / "solution.csv")
    assert data.shape[0] == 100
    assert np.max(np.abs(data[:, 1] - data[:, 0])) <= 1e-12  # y = t


def test_solve_flag_overrides(tmp_path):
    code, out = run(tmp_path, "solve", "catalog:eq19", "--m", "9", "--N", "120")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["m"] == 9 and report["N"] == 120
    _, data = read_csv(out / "solution.csv")
    assert data.shape[0] == 120


def test_solve_deterministic_byte_identical(tmp_path):
    _, out1 = run(tmp_path / "a", "solve", "catalog:eq26")
    _, out2 = run(tmp_path / "b", "solve", "catalog:eq26")
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_catalog_file_round_trip_same_solution(tmp_path):
    # serializing a catalog problem to JSON and solving the file gives the
    # same solution as solving the catalog entry directly
    from tfc_solve.catalog import CATALOG

    pfile = tmp_path / "eq26.json"
    pfile.write_text(json.dumps(CATALOG["eq26"].to_problem_file()))
    _, out1 = run(tmp_path / "a", "solve", "catalog:eq26")
    _, out2 = run(tmp_path / "b", "solve", str(pfile))
    _, d1 = read_csv(out1 / "solution.csv")
    _, d2 = read_csv(out2 / "solution.csv")
    assert np.max(np.abs(d1 - d2)) <= 1e-12


def test_sweep_outputs(tmp_path):
    code, out = run(tmp_path, "sweep", "catalog:eq26", "--m", "3..23")
    assert code == 0
    header, data = read_csv(out / "sweep.csv")
    assert header == ["m", "residual_mean", "residual_abs_mean",
                      "residual_std", "cond_PtP"]
    assert data.shape == (21, 5)
    assert list(data[:, 0]) == list(range(3, 24))
    # residuals trend downward by orders of magnitude across the sweep
    assert data[-1, 3] <= 1e-6 * data[0, 3]
    report = json.loads((out / "report.json").read_text())
    assert report["classification"] == "converged"


def test_classify_converged_exit_zero(tmp_path):
    code, out = run(tmp_path, "classify", "catalog:eq19")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["classification"] == "converged"
    assert report["best_residual_std"] <= 1e-10


def test_classify_no_solution_exit_two(tmp_path):
    code, out = run(tmp_path, "classify", "catalog:eq27")
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["classification"] == "no_solution"


def test_classify_infinite_solutions_exit_zero(tmp_path):
    code, out = run(tmp_path, "classify", "catalog:eq28")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["classification"] == "infinite_solutions"


def test_control_subcommand(tmp_path):
    pfile = tmp_path / "control.json"
    pfile.write_text(json.dumps(control_doc()))
    code, out = run(tmp_path, "control", str(pfile))
    assert code == 0
    header, data = read_csv(out / "solution.csv")
    assert header == ["t", "x1", "x2", "lambda1", "lambda2"]
    assert data.shape == (200, 5)
    assert data[0, 1] == pytest.approx(1.0, abs=1e-10)   # x1(t0)
    assert data[0, 2] == pytest.approx(0.0, abs=1e-10)   # x2(t0)
    assert data[-1, 3] == pytest.approx(0.0, abs=1e-10)  # lambda1(tf)
    assert data[-1, 4] == pytest.approx(0.0, abs=1e-10)  # lambda2(tf)
    report = json.loads((out / "report.json").read_text())
    assert report["residual_std"] <= 1e-9


def test_control_non_finite_block_is_a_solve_error(tmp_path, capsys):
    # A11[1][0] is singular at t = 1, node 100 of the 201-point grid
    doc = control_doc()
    doc["A11"] = [["0", "1"], ["-1/(t-1)", "0"]]
    doc["solver"] = {"N": 201}
    pfile = tmp_path / "sing.json"
    pfile.write_text(json.dumps(doc))
    with np.errstate(divide="ignore"):
        code, out = run(tmp_path, "control", str(pfile))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error[solve]: A11[1][0] is non-finite at node 100 (t=1.0)")
    assert list(out.iterdir()) == []


def test_control_honours_solver_weights(tmp_path):
    reports = []
    for name, weights in (("plain", None), ("weighted", [1.0] * 100 + [1e6] * 100)):
        doc = control_doc()
        if weights is not None:
            doc["solver"]["weights"] = weights
        pfile = tmp_path / f"{name}.json"
        pfile.write_text(json.dumps(doc))
        code, out = run(tmp_path / name, "control", str(pfile))
        assert code == 0
        reports.append((out / "report.json").read_text())
    assert reports[0] != reports[1]


@pytest.mark.parametrize("subcommand", ["solve", "sweep", "classify"])
def test_unknown_scaling_or_node_kind_is_config_error(tmp_path, subcommand, capsys):
    doc = catalog.get("eq26").to_problem_file()
    doc["solver"] = {"scaling": "bogus"}
    pfile = tmp_path / "bogus.json"
    pfile.write_text(json.dumps(doc))
    code, out = run(tmp_path, subcommand, str(pfile))
    assert code == 3
    assert capsys.readouterr().err == "error[config]: unknown scaling 'bogus'\n"
    assert not out.exists()
    # argparse refuses a node kind or scaling it does not list
    for flag in ("--nodes", "--scaling"):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, subcommand, "catalog:eq26", flag, "foo")
        assert exc.value.code == 2
        assert "invalid choice: 'foo'" in capsys.readouterr().err


def test_control_on_scalar_problem_is_config_error(tmp_path):
    code, _ = run(tmp_path, "control", "catalog:eq19")
    assert code == 3


@pytest.mark.parametrize("subcommand", ["solve", "sweep", "classify"])
def test_scalar_subcommand_on_control_problem_is_config_error(tmp_path, capsys, subcommand):
    # a control file has no ode; these ended in an AttributeError traceback
    pfile = tmp_path / "ctl.json"
    pfile.write_text(json.dumps(control_doc()))
    code, out = run(tmp_path, subcommand, str(pfile))
    assert code == 3
    assert capsys.readouterr().err == (
        f"error[config]: {subcommand} subcommand needs an ivp- or bvp-kind problem\n")
    assert not out.exists()


def _scalar_doc(**changes):
    return {**catalog.get("eq26").to_problem_file(), **changes}


def _control_a11(a11):
    return {**control_doc(), "A11": a11}


@pytest.mark.parametrize("subcommand, doc, message", [
    ("solve", [], "a problem file must be a JSON object"),
    ("solve", _scalar_doc(coefficients=5), "coefficients must be an object"),
    ("solve", _scalar_doc(coefficients={"f2": "1", "f1": 2, "f0": "1", "f": "0"}),
     "coefficient f1 must be an expression string, not 2"),
    ("control", _control_a11([["1", 1], ["0", "0"]]),
     "coefficient A11[0][1] must be an expression string, not 1"),
    ("control", _control_a11([[0, "1"], ["0", "0"]]),
     "coefficient A11[0][0] must be an expression string, not 0"),
    ("solve", _scalar_doc(constraints=5), "ivp/bvp problems take exactly 2 constraints"),
    ("solve", _scalar_doc(solver=[1, 2]), "solver must be an object"),
    ("solve", _scalar_doc(solver={"N": None}), "solver.N must be an integer, not None"),
], ids=["top-level-array", "coefficients-number", "coefficient-number", "a11-number",
        "a11-leading-number", "constraints-number", "solver-array", "solver-n-null"])
def test_malformed_problem_file_is_config_error(tmp_path, capsys, subcommand, doc, message):
    # each of these ended in a traceback (exit 1), or in a parse error at
    # the wrong place, before the loader checked the value's type
    pfile = tmp_path / "bad.json"
    pfile.write_text(json.dumps(doc))
    code, out = run(tmp_path, subcommand, str(pfile))
    assert code == 3
    assert capsys.readouterr().err == f"error[config]: {message}\n"
    assert not out.exists()


def _with_first_constraint(**changes):
    doc = _scalar_doc()
    return {**doc, "constraints": [{**doc["constraints"][0], **changes},
                                   *doc["constraints"][1:]]}


@pytest.mark.parametrize("subcommand, doc, message", [
    ("solve", _with_first_constraint(value=math.inf), "constraint value must be finite, not inf"),
    ("solve", _with_first_constraint(at=-math.inf), "constraint at must be finite, not -inf"),
    ("control", {**control_doc(), "x0": [math.inf, 0]},
     "x0 must hold finite numbers, not [inf, 0]"),
    ("control", {**control_doc(), "lambda_f": [0, -math.inf]},
     "lambda_f must hold finite numbers, not [0, -inf]"),
    ("solve", _scalar_doc(interval=[0, math.inf]),
     "interval must hold finite numbers, not [0.0, inf]"),
], ids=["constraint-value", "constraint-at", "x0", "lambda_f", "interval"])
def test_non_finite_number_in_problem_file_is_config_error(tmp_path, capsys, subcommand, doc,
                                                            message):
    # JSON reads 1e400 as inf; each of these passed the loader and was
    # refused later, after --out was made, by an array's name and row
    pfile = tmp_path / "inf.json"
    pfile.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    code, out = run(tmp_path, subcommand, str(pfile))
    assert code == 3
    assert capsys.readouterr().err == f"error[config]: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("nodes", "lobatto"), ("scalling", "none")])
def test_unknown_solver_setting_is_config_error(tmp_path, capsys, key, value):
    # nodes was solved on uniform nodes and the misspelt scaling dropped
    pfile = tmp_path / "solver.json"
    pfile.write_text(json.dumps(_scalar_doc(solver={"m": 17, key: value})))
    for subcommand in ("solve", "sweep"):
        code, out = run(tmp_path, subcommand, str(pfile))
        assert code == 3
        assert capsys.readouterr().err == (
            f"error[config]: unknown setting solver.{key} "
            "(the settings are m, N, scaling, weights)\n")
        assert not out.exists()


def test_unknown_catalog_id_is_config_error(tmp_path):
    code, _ = run(tmp_path, "solve", "catalog:doesnotexist")
    assert code == 3


def test_missing_file_is_config_error(tmp_path):
    code, _ = run(tmp_path, "solve", str(tmp_path / "absent.json"))
    assert code == 3


def test_invalid_json_is_config_error(tmp_path):
    pfile = tmp_path / "broken.json"
    pfile.write_text("{not json")
    code, _ = run(tmp_path, "solve", str(pfile))
    assert code == 3


def test_bad_expression_is_config_error(tmp_path):
    doc = {
        "schema_version": 1,
        "kind": "ivp",
        "interval": [0.0, 1.0],
        "coefficients": {"f2": "1 +", "f1": "0", "f0": "0", "f": "0"},
        "constraints": [
            {"order": 0, "at": "t1", "value": 0.0},
            {"order": 1, "at": "t1", "value": 1.0},
        ],
    }
    pfile = tmp_path / "bad.json"
    pfile.write_text(json.dumps(doc))
    code, _ = run(tmp_path, "solve", str(pfile))
    assert code == 3


@pytest.mark.parametrize("subcommand", ["solve", "sweep"])
@pytest.mark.parametrize("order", [-1, 3, 1.5, "2"])
def test_unsupported_constraint_order_is_config_error(tmp_path, capsys, subcommand, order):
    doc = {
        "schema_version": 1,
        "kind": "bvp",
        "interval": [0.0, 1.0],
        "coefficients": {"f2": "1", "f1": "0", "f0": "0", "f": "0"},
        "constraints": [
            {"order": 0, "at": "t1", "value": 0.0},
            {"order": order, "at": "t2", "value": 1.0},
        ],
    }
    pfile = tmp_path / "order.json"
    pfile.write_text(json.dumps(doc))
    code, out = run(tmp_path, subcommand, str(pfile))
    assert code == 3
    assert capsys.readouterr().err == (
        f"error[config]: constraint order {order!r} is not 0, 1 or 2\n")
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["solve", "sweep"])
def test_boolean_constraint_order_is_config_error(tmp_path, capsys, subcommand):
    # true == 1 in Python; it was solved as a first-derivative constraint
    doc = catalog.get("eq26").to_problem_file()
    doc["constraints"][1]["order"] = True
    pfile = tmp_path / "order.json"
    pfile.write_text(json.dumps(doc))
    code, out = run(tmp_path, subcommand, str(pfile))
    assert code == 3
    assert capsys.readouterr().err == "error[config]: constraint order True is not 0, 1 or 2\n"
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("m", 17.9), ("m", True), ("N", 200.5), ("N", False)])
@pytest.mark.parametrize("subcommand", ["solve", "sweep", "control"])
def test_non_integer_m_or_n_is_config_error(tmp_path, capsys, subcommand, field, value):
    # 17.9 and 200.5 were solved at m = 17 and N = 200
    doc = control_doc() if subcommand == "control" else catalog.get("eq26").to_problem_file()
    doc["solver"] = {"m": 17, "N": 200, field: value}
    pfile = tmp_path / "solver.json"
    pfile.write_text(json.dumps(doc))
    code, out = run(tmp_path, subcommand, str(pfile))
    assert code == 3
    assert capsys.readouterr().err == (
        f"error[config]: solver.{field} must be an integer, not {value!r}\n")
    assert not out.exists()
    # a whole number written as a float is an integer
    pfile.write_text(json.dumps({**doc, "solver": {"m": 17.0, "N": 200.0}}))
    code, _ = run(tmp_path / "whole", subcommand, str(pfile))
    assert code == 0


@pytest.mark.parametrize("solver, message", [
    ({"m": 1}, "m must be >= 2"),
    ({"N": 200, "weights": [1.0, 2.0]}, "weights must be length-N, finite and strictly positive"),
])
@pytest.mark.parametrize("subcommand", ["solve", "control"])
def test_invalid_solver_setting_is_refused_before_out_is_made(
        tmp_path, capsys, subcommand, solver, message):
    doc = control_doc() if subcommand == "control" else catalog.get("eq26").to_problem_file()
    doc["solver"] = solver
    pfile = tmp_path / "solver.json"
    pfile.write_text(json.dumps(doc))
    code, out = run(tmp_path, subcommand, str(pfile))
    assert code == 3
    assert capsys.readouterr().err == f"error[config]: {message}\n"
    assert not out.exists()


def test_bad_schema_is_config_error(tmp_path):
    pfile = tmp_path / "schema.json"
    pfile.write_text(json.dumps({"schema_version": 2, "kind": "ivp",
                                 "interval": [0, 1]}))
    code, _ = run(tmp_path, "solve", str(pfile))
    assert code == 3


def test_bad_m_flag_is_config_error(tmp_path):
    code, _ = run(tmp_path, "solve", "catalog:eq19", "--m", "seventeen")
    assert code == 3


@pytest.mark.parametrize("subcommand, m, expected", [
    ("solve", "3..9", "solve takes --m as one integer, not '3..9'"),
    ("sweep", "17", "sweep takes --m as a range a..b, not '17'"),
    ("classify", "17", "classify takes --m as a range a..b, not '17'"),
    ("classify", "3..9..12", "classify takes --m as a range a..b, not '3..9..12'"),
])
def test_m_of_the_wrong_shape_is_config_error(tmp_path, capsys, subcommand, m, expected):
    code, out = run(tmp_path, subcommand, "catalog:eq26", "--m", m)
    assert code == 3
    assert capsys.readouterr().err == f"error[config]: {expected}\n"
    assert not out.exists()


def test_control_m_range_is_config_error(tmp_path, capsys):
    pfile = tmp_path / "ctl.json"
    pfile.write_text(json.dumps(control_doc()))
    code, out = run(tmp_path, "control", str(pfile), "--m", "3..9")
    assert code == 3
    assert "control takes --m as one integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["sweep", "classify"])
def test_every_m_failing_is_a_solve_error(tmp_path, capsys, subcommand):
    # f is singular at t = 0.5, a node of the 1001-point uniform grid
    doc = {
        "schema_version": 1,
        "kind": "bvp",
        "interval": [0.0, 1.0],
        "coefficients": {"f2": "1", "f1": "0", "f0": "0", "f": "1/(t - 0.5)"},
        "constraints": [
            {"order": 0, "at": "t1", "value": 0.0},
            {"order": 0, "at": "t2", "value": 0.0},
        ],
        "solver": {"N": 1001},
    }
    pfile = tmp_path / "sing.json"
    pfile.write_text(json.dumps(doc))
    with np.errstate(divide="ignore"):
        code, out = run(tmp_path, subcommand, str(pfile))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error[solve]: ")
    assert "m = 3" in err and "f is non-finite at node 500" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("subcommand", ["sweep", "classify"])
def test_sweep_of_a_weighted_problem_is_config_error(tmp_path, capsys, subcommand):
    # the sweep would assemble the unweighted system and ignore the weights
    doc = catalog.get("sec42").to_problem_file()
    doc["solver"] = {"N": 200, "weights": np.linspace(1.0, 100.0, 200).tolist()}
    pfile = tmp_path / "weighted.json"
    pfile.write_text(json.dumps(doc))
    code, out = run(tmp_path, subcommand, str(pfile), "--m", "17..17")
    assert code == 3
    assert capsys.readouterr().err == f"error[config]: {subcommand} does not take solver.weights\n"
    assert not out.exists()
    code, _ = run(tmp_path / "solve", "solve", str(pfile), "--m", "17")
    assert code == 0

def test_empty_m_range_is_config_error(tmp_path, capsys):
    code, out = run(tmp_path, "classify", "catalog:eq26", "--m", "5..3")
    assert code == 3
    assert capsys.readouterr().err.startswith("error[config]: ")
    assert not out.exists()


def test_write_json_encodes_non_finite_as_null(tmp_path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    path = tmp_path / "report.json"
    write_json(path, {"cond_PtP": float("inf"), "residual_std": np.float64("nan"),
                      "low": -np.inf, "best": 1.5, "m": 17, "ok": True})
    data = json.loads(path.read_text(), parse_constant=reject)
    assert data == {"cond_PtP": None, "residual_std": None, "low": None,
                    "best": 1.5, "m": 17, "ok": True}


def _load_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    return tomllib.loads(PYPROJECT.read_text())


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_entry_point_installed(tmp_path):
    # the console script is declared in the project metadata and resolves
    # to a working entry point; installing it on PATH is the installer's job
    scripts = _load_pyproject()["project"]["scripts"]
    assert scripts.get("tfc-solve") == "tfc_solve.cli:main"
    ep = importlib.metadata.EntryPoint(
        name="tfc-solve", value=scripts["tfc-solve"], group="console_scripts")
    out = tmp_path / "out"
    assert ep.load()(["classify", "catalog:eq27", "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["classification"] == "no_solution"


@pytest.mark.skipif(not _distribution_installed("tfc-solve"),
                    reason="tfc-solve distribution is not installed")
def test_console_script_on_path(tmp_path):
    exe = shutil.which("tfc-solve")
    assert exe is not None
    out = tmp_path / "out"
    proc = subprocess.run([exe, "classify", "catalog:eq27", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["classification"] == "no_solution"
