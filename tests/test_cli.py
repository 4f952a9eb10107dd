"""Command line interface: exit codes, reports, determinism, pipelines."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from wact.cli import main
from wact.fileio import bundled_path, load_bundled, structure_to_dict


R3 = str(bundled_path("sasakian_r3"))
L2 = str(bundled_path("weak_sasakian_l2"))
PRODUCT = str(bundled_path("product_cosymplectic"))

FAST = ["--points", "25"]


def run(*argv):
    return main(list(argv))


def test_check_valid_file_exits_zero(capsys):
    assert run("check", R3, "--tol", "1e-8", *FAST) == 0
    out = capsys.readouterr().out
    assert "VALID" in out
    assert "nu = 1" in out


def test_check_broken_files_exit_two_and_name_the_axiom(capsys):
    targets = {
        "broken_phi_square": "phi_square",
        "broken_eta_xi": "eta_xi",
        "broken_q_xi": "q_xi_nu",
        "broken_phi_invariance": "phi_invariant_D",
        "broken_compatibility": "compatibility",
        "broken_q_singular": "q_nonsingular",
    }
    for name, axiom in targets.items():
        code = run("check", str(bundled_path(name)), *FAST)
        out = capsys.readouterr().out
        assert code == 2, name
        failing = [line.split()[0] for line in out.splitlines() if "FAIL" in line]
        assert axiom in failing, (name, failing)


def test_check_eta_example_violation(tmp_path, capsys):
    # eta(xi) = 2 with xi = d/dz, eta = 2 dz
    data = {
        "name": "eta2", "dimension": 3, "coordinates": ["x", "y", "z"],
        "domain": {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1]}, "nu": 1,
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "Q": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "xi": ["0", "0", "1"], "eta": ["0", "0", "2"],
    }
    path = tmp_path / "eta2.json"
    path.write_text(json.dumps(data))
    code = run("check", str(path), *FAST)
    out = capsys.readouterr().out
    assert code == 2
    assert any("eta_xi" in line and "FAIL" in line for line in out.splitlines())


def test_malformed_expression_exits_one(tmp_path, capsys):
    data = json.loads(bundled_path("sasakian_r3").read_text())
    data["phi"][0][1] = "1 +"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run("check", str(path)) == 1
    err = capsys.readouterr().err
    assert "position" in err


def test_missing_file_exits_one(capsys):
    assert run("check", "/nonexistent/file.json") == 1


def test_usage_error_exits_one(capsys):
    assert run("deform", R3) == 1  # missing required flags


def test_classify_table_and_json(tmp_path, capsys):
    out_json = tmp_path / "c.json"
    assert run("classify", PRODUCT, *FAST, "--json", str(out_json)) == 0
    table = capsys.readouterr().out
    assert "weak_cosymplectic" in table
    payload = json.loads(out_json.read_text())
    assert payload["classification"]["weak_cosymplectic"]["verdict"] == "pass"
    assert payload["classification"]["weak_contact_metric"]["verdict"] == "fail"
    assert payload["plan"] == {"count": 25, "seed": 42, "margin": 0.05}


def test_verify_json_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("verify", R3, *FAST, "--json", str(a)) == 0
    assert run("verify", R3, *FAST, "--json", str(b)) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["schema"] == 1
    assert [c["id"] for c in payload["checks"]] == [
        "T1", "P1", "T2", "L1", "L2", "P2", "S1", "S2", "C1", "C2", "C3", "C4"]


def test_verify_single_check_flag(capsys):
    assert run("verify", R3, "--check", "T2", *FAST) == 0
    out = capsys.readouterr().out
    assert "T2" in out and "L1" not in out


def test_verify_unknown_check_exits_one(capsys):
    assert run("verify", R3, "--check", "Z9", *FAST) == 1


def test_verify_invalid_structure_exits_two(capsys):
    assert run("verify", str(bundled_path("broken_compatibility")), *FAST) == 2


def test_rigidity_pipeline(tmp_path, capsys):
    out = tmp_path / "classical.json"
    assert run("extract-sasakian", L2, "-o", str(out), *FAST) == 0
    cjson = tmp_path / "flags.json"
    assert run("classify", str(out), *FAST, "--json", str(cjson)) == 0
    payload = json.loads(cjson.read_text())["classification"]
    assert payload["normal"]["verdict"] == "pass"
    assert payload["weak_contact_metric"]["verdict"] == "pass"
    assert abs(payload["Q_scalar_on_D"]["lambda"] - 1.0) < 1e-9


def test_deform_pipeline_matches_spec_example(tmp_path, capsys):
    out = tmp_path / "undone.json"
    assert run("deform", L2, "--lambda", "2", "--lambda-prime", "2",
               "-o", str(out), *FAST) == 0
    cjson = tmp_path / "flags.json"
    assert run("classify", str(out), *FAST, "--json", str(cjson)) == 0
    payload = json.loads(cjson.read_text())["classification"]
    assert payload["weak_Sasakian"]["verdict"] == "pass"
    assert abs(payload["Q_scalar_on_D"]["lambda"] - 1.0) < 1e-9


def test_extract_on_product_exits_two(tmp_path, capsys):
    out = tmp_path / "never.json"
    assert run("extract-sasakian", PRODUCT, "-o", str(out), *FAST) == 2
    assert not out.exists()
    assert "NotWeakSasakian" in capsys.readouterr().err


def test_product_command(tmp_path, capsys):
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({
        "coordinates": ["u", "v"],
        "domain": {"u": [-1, 1], "v": [-1, 1]},
        "phi": [["0", "-2"], ["2", "0"]],
        "metric": [["1", "0"], ["0", "1"]],
    }))
    out = tmp_path / "prod.json"
    assert run("product", "--phitilde", str(plane), "--nu", "4",
               "-o", str(out), *FAST) == 0
    assert run("check", str(out), "--tol", "1e-8", *FAST) == 0


def test_product_rank_deficient_exits_two(tmp_path, capsys):
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({
        "coordinates": ["u", "v"],
        "domain": {"u": [-1, 1], "v": [-1, 1]},
        "phi": [["0", "0"], ["1", "0"]],
        "metric": [["1", "0"], ["0", "1"]],
    }))
    assert run("product", "--phitilde", str(plane), "--nu", "1",
               "-o", str(tmp_path / "x.json"), *FAST) == 2
    assert "RankDeficient" in capsys.readouterr().err


def test_cvf_command_xi(capsys):
    assert run("cvf", R3, "--field", "0;0;2", *FAST) == 0
    out = capsys.readouterr().out
    assert "is_weak_contact: True" in out
    assert "strict: True" in out


def test_cvf_command_perturbed_exits_two(capsys):
    assert run("cvf", R3, "--field", "0;0.3;2", *FAST) == 2
    out = capsys.readouterr().out
    assert "is_weak_contact: False" in out


def test_cvf_wrong_component_count(capsys):
    assert run("cvf", R3, "--field", "0;0") == 1


def test_bundled_listing(capsys):
    assert run("bundled", "--list") == 0
    out = capsys.readouterr().out
    assert "sasakian_r3" in out


def test_bundled_export(tmp_path, capsys):
    out = tmp_path / "copy.json"
    assert run("bundled", "sasakian_r3", "-o", str(out)) == 0
    assert json.loads(out.read_text())["name"] == "sasakian_r3"


def test_check_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run("check", R3, "--tol", "1e-8", *FAST, "--json", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["valid"] is True
    assert payload["nu"] == 1.0


def test_non_finite_residuals_reach_a_strict_json_report(tmp_path, capsys):
    s = load_bundled("sasakian_r3")
    data = structure_to_dict(s)
    data["phi"] = [[f"1e200*({src})" for src in row] for row in s.phi.sources()]
    path, out = tmp_path / "huge_phi.json", tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with np.errstate(all="ignore"):
        code = run("check", str(path), *FAST, "--json", str(out))
    assert code == 2
    assert "INVALID" in capsys.readouterr().out

    def refuse(token):
        raise AssertionError(f"non-strict JSON constant {token}")
    payload = json.loads(out.read_text(), parse_constant=refuse)
    rows = {r["id"]: r for r in payload["axioms"]}
    assert rows["phi_square"]["value"] == "inf"
    assert rows["compatibility"]["value"] == "nan"
    assert rows["phi_square"]["verdict"] == rows["compatibility"]["verdict"] == "fail"


def test_openblas_threads_do_not_change_report_bytes(tmp_path):
    # stacked matrix products over the point axis may reach BLAS, so the
    # report must not depend on its thread count; run in fresh processes,
    # because OpenBLAS reads the variable once, when it loads
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for threads in (None, "1"):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"report-{threads}.json"
        done = subprocess.run(
            [sys.executable, "-m", "wact.cli", "verify", PRODUCT, "--json", str(out)],
            env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
