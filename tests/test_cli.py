"""Command line interface: exit codes, reports, determinism, pipelines."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wact import calculus, cli, structure
from wact.cli import main
from wact.fileio import bundled_names, bundled_path, load_bundled, structure_to_dict


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


def test_main_builds_no_parser(monkeypatch, capsys):
    # the argparse tree is built once, when wact.cli is imported
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    codes = [run("bundled", "--list"), run("check", R3, *FAST), run("check", R3, "--tol", "nan"),
             run("deform", R3), run("--help")]
    assert codes == [0, 0, 1, 1, 0]
    assert built == []


# flags set in one call and left out of the next, usage errors and help output:
# what a reused parser could carry from one call into a later one
SHARED_PARSER_SEQUENCE = [
    ("verify", R3, "--check", "T1", *FAST),
    ("verify", R3, *FAST),
    ("deform", R3, "--lambda", "2", "--lambda-prime", "2", "--inverse", "-o", "inv.json", *FAST),
    ("deform", R3, "--lambda", "2", "--lambda-prime", "2", "-o", "fwd.json", *FAST),
    ("classify", R3, *FAST, "--json", "c.json"),
    ("classify", R3, *FAST),
    (),
    ("frobnicate",),
    ("deform", R3, "--lambda", "2", "--lambda-prime", "2"),
    ("check", R3, "--tol", "nan"),
    ("check", R3, "--points", "x"),
    ("--help",),
    ("check", "--help"),
    ("bundled", "--list"),
    ("cvf", R3, "--field", "0;2;2*x", *FAST),
]


def test_shared_parser_keeps_nothing_between_calls(tmp_path, monkeypatch, capsys):
    def outcomes(fresh: bool) -> tuple:
        work = tmp_path / ("fresh" if fresh else "shared")
        work.mkdir()
        monkeypatch.chdir(work)
        seen = []
        for argv in SHARED_PARSER_SEQUENCE:
            if fresh:
                monkeypatch.setattr(cli, "PARSER", cli.build_parser())
            code = run(*argv)
            out, err = capsys.readouterr()
            err = "".join(line for line in err.splitlines(keepends=True)
                          if not line.startswith("wall time:"))
            seen.append((argv, code, out, err))
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        return seen, files

    shared = outcomes(False)
    assert [code for _, code, _, _ in shared[0]] == [0] * 6 + [1] * 5 + [0] * 4
    assert sorted(shared[1]) == ["c.json", "fwd.json", "inv.json"]
    assert shared == outcomes(True)


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


def test_verify_table_shows_each_checks_premise(tmp_path, capsys):
    # the hypothesis column is the residual the verdict rests on: T2's
    # premise weak_contact_metric (2.0 on the product structure), not its
    # other hypothesis keys (killing, n3: 0.0), and S2's premise
    # weak_Sasakian (2.0), not the nu it reports beside it (0.25)
    data = json.loads(Path(PRODUCT).read_text())
    data["nu"], data["Q"][2][2] = 0.25, "0.25"
    path = tmp_path / "product_nu.json"
    path.write_text(json.dumps(data))
    assert run("verify", str(path), *FAST) == 0
    rows = {line.split()[0]: line.split()[1:4]
            for line in capsys.readouterr().out.splitlines()[3:]}
    assert rows["T2"] == ["n/a", "-", "2.000e+00"]
    assert rows["S2"] == ["n/a", "-", "2.000e+00"]
    assert rows["P1"] == ["pass", "0.000e+00", "0.000e+00"]  # either premise: normal


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


def _plane_file(tmp_path, phi, metric):
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({
        "coordinates": ["u", "v"],
        "domain": {"u": [-1, 1], "v": [-1, 1]},
        "phi": phi,
        "metric": metric,
    }))
    return str(plane)


def test_product_on_singular_or_negative_metric_exits_two(tmp_path, capsys):
    cases = [
        ([["0", "-1"], ["1", "0"]], [["1", "1"], ["1", "1"]],
         "ValidationFailedError: -phitilde^2 is not positive for the plane metric\n"),
        ([["1", "0"], ["0", "1"]], [["-1", "0"], ["0", "-1"]],
         "SingularMetricError: metric is singular at the requested point\n"),
    ]
    for phi, metric, message in cases:
        plane = _plane_file(tmp_path, phi, metric)
        out = tmp_path / "never.json"
        assert run("product", "--phitilde", plane, "--nu", "1", "-o", str(out), *FAST) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


def test_no_command_uses_the_pointwise_calculus(tmp_path, monkeypatch, capsys):
    # every function of the per-point operators raises, under every name a
    # wact module binds it to; each command must still finish as usual
    def refuse(*args, **kwargs):
        raise AssertionError("the per-point calculus was called")
    originals = {id(fn) for fn in vars(calculus).values()
                 if callable(fn) and getattr(fn, "__module__", None) == "wact.calculus"}
    for module in [m for name, m in sys.modules.items() if name.startswith("wact")]:
        for attr, value in list(vars(module).items()):
            if id(value) in originals:
                monkeypatch.setattr(module, attr, refuse)

    plane = _plane_file(tmp_path, [["0", "-2"], ["2", "0"]], [["1", "0"], ["0", "1"]])
    deformed, extracted = tmp_path / "deformed.json", tmp_path / "extracted.json"
    commands = [
        (["product", "--phitilde", plane, "--nu", "4", "-o", str(tmp_path / "p.json")], 0),
        (["deform", R3, "--lambda", "2", "--lambda-prime", "2", "--inverse",
          "-o", str(deformed)], 0),
        (["extract-sasakian", str(deformed), "-o", str(extracted)], 0),
        (["cvf", R3, "--field", "0;0;2"], 0),
        (["bundled", "--list"], 0),
    ]
    for name in bundled_names():
        valid = not name.startswith("broken_")
        commands.append((["check", str(bundled_path(name))], 0 if valid else 2))
        if valid:
            commands.append((["classify", str(bundled_path(name))], 0))
            commands.append((["verify", str(bundled_path(name))], 0))
    for argv, code in commands:
        assert run(*argv, *([] if argv[0] == "bundled" else FAST)) == code, argv
        assert "per-point calculus" not in capsys.readouterr().err


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


@pytest.mark.parametrize("command, extra, structures", [
    ("check", (), 1),
    ("classify", (), 1),
    ("verify", ("--check", "all"), 1),
    ("cvf", ("--field", "0;2;2*x"), 1),
    ("extract-sasakian", ("-o", "{tmp}/out.json"), 2),  # the input, then the output
], ids=["check", "classify", "verify", "cvf", "extract-sasakian"])
def test_each_command_builds_each_block_jet_once(command, extra, structures, tmp_path,
                                                 monkeypatch, capsys):
    # 25 points in blocks of 10 make 3 blocks per structure; the analysis
    # reads the jets of validation's Session instead of building them again
    monkeypatch.setattr(structure, "BLOCK_POINTS", 10)
    built = []
    init = structure.StructureJet.__init__

    def counted(self, s, point, *args, **kwargs):
        built.append(len(point))
        init(self, s, point, *args, **kwargs)
    monkeypatch.setattr(structure.StructureJet, "__init__", counted)
    argv = [arg.format(tmp=tmp_path) for arg in extra]
    report = tmp_path / "report.json"
    assert run(command, R3, *argv, *FAST, "--json", str(report)) == 0
    assert built == [10, 10, 5] * structures
    if command == "cvf":
        assert json.loads(report.read_text())["is_weak_contact"] is True


def test_verify_reuses_the_validation_rows(monkeypatch, capsys):
    # the weak almost contact metric flag takes the worst of 5 residuals, 4
    # of them validation rows; the Session reduced each of those once, in
    # validation, and the flag reads its sups instead of computing them
    # again.  Calls are counted by code object, 25 points in blocks of 10
    # make 3 blocks.
    monkeypatch.setattr(structure, "BLOCK_POINTS", 10)
    codes = {fn.__code__: fn.__name__
             for fn in (structure._res_compatibility, structure._res_phi_invariant)}
    calls = {name: [] for name in codes.values()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]].append(len(frame.f_locals["j"].point))
    sys.setprofile(profile)
    try:
        code = run("verify", str(bundled_path("sasakian_r5")), "--check", "all", *FAST)
    finally:
        sys.setprofile(None)
    assert code == 0
    assert calls == {"_res_compatibility": [10, 10, 5], "_res_phi_invariant": [10, 10, 5]}


def _assert_named_usage_error(code, capsys, *needles):
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    line = next(line for line in err.splitlines() if "error:" in line)
    assert all(needle in line for needle in needles), line


def test_non_finite_literal_is_a_named_error(tmp_path, capsys):
    data = json.loads(bundled_path("sasakian_r3").read_text())
    data["phi"][0][1] = "y + 0*1e400"
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    for command in ("check", "verify"):
        _assert_named_usage_error(run(command, str(path), *FAST), capsys,
                                  "phi[0][1]", "1e400")


def test_negative_power_that_underflows_is_a_named_error(tmp_path, capsys):
    # (1e-200)^2 underflows to 0, and its reciprocal was a ZeroDivisionError traceback
    data = json.loads(bundled_path("sasakian_r3").read_text())
    data["phi"][0][0] = "(1e-200)^-2"
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(data))
    assert run("check", str(path), *FAST) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "DomainError: phi[0][0]: zero raised to a negative power at sample point" in err


def test_deeply_nested_component_is_a_named_error(tmp_path, capsys):
    # 2 000 nested parentheses ended in a RecursionError traceback
    data = json.loads(bundled_path("sasakian_r3").read_text())
    data["phi"][0][1] = "(" * 2000 + "y" + ")" * 2000
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(data))
    _assert_named_usage_error(run("check", str(path), *FAST), capsys,
                              "phi[0][1]", "nested deeper than 100 levels")


def test_deform_factor_whose_reciprocal_overflows_is_a_named_error(tmp_path, capsys):
    # 1 / 1e-320 overflows to inf while the deformed Q is folded
    for inverse in ((), ("--inverse",)):
        code = run("deform", R3, "--lambda", "1e-320", "--lambda-prime", "1", *inverse,
                   "-o", str(tmp_path / "d.json"), *FAST)
        _assert_named_usage_error(code, capsys, "not finite")
    assert not (tmp_path / "d.json").exists()


def test_non_finite_deform_factor_is_a_usage_error(tmp_path, capsys):
    for flag in ("--lambda", "--lambda-prime"):
        for value in ("inf", "nan"):
            factors = {"--lambda": "2", "--lambda-prime": "2", flag: value}
            code = run("deform", R3, *(x for kv in factors.items() for x in kv),
                       "-o", str(tmp_path / "d.json"), *FAST)
            _assert_named_usage_error(code, capsys, f"argument {flag}", value)


def test_non_finite_product_nu_is_a_usage_error(tmp_path, capsys):
    plane = _plane_file(tmp_path, [["0", "-2"], ["2", "0"]], [["1", "0"], ["0", "1"]])
    for value in ("nan", "inf"):
        code = run("product", "--phitilde", plane, "--nu", value,
                   "-o", str(tmp_path / "p.json"), *FAST)
        _assert_named_usage_error(code, capsys, "argument --nu", value)
    assert not (tmp_path / "p.json").exists()


def test_tolerance_must_be_finite_and_non_negative(capsys):
    for value in ("nan", "inf", "-1e-6"):
        for command in ("check", "verify"):
            # `check --tol nan` failed every row at residual 0 (INVALID), and
            # `--tol inf` passed broken_compatibility
            path = str(bundled_path("broken_compatibility")) if value == "inf" else R3
            _assert_named_usage_error(run(command, path, f"--tol={value}", *FAST), capsys,
                                      "argument --tol", value)


def test_infinite_domain_is_a_named_error(tmp_path, capsys):
    # [-1, 1e999] sampled NaN points and `check` said VALID; a width of 2e308 overflowed
    for lo, hi in (("-1", "1e999"), ("-1e308", "1e308")):
        text = bundled_path("sasakian_r3").read_text()
        data = json.loads(text)
        data["domain"]["x"] = ["LO", "HI"]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data).replace('"LO"', lo).replace('"HI"', hi))
        for command in ("check", "verify"):
            _assert_named_usage_error(run(command, str(path), *FAST), capsys,
                                      "coordinate 'x'", "finite bounds")


@pytest.mark.parametrize("terms", [1000, 10000])
def test_long_flat_chains_end_without_a_traceback(tmp_path, capsys, terms):
    # a component `x+x+...` of 1 000 terms ended in a RecursionError
    data = json.loads(bundled_path("sasakian_r3").read_text())
    data["xi"][0] = "+".join(["x-x"] * (terms // 2))
    data["phi"][1][1] = "*".join(["y"] * terms) + "/(x-x)"
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(data))
    for command in ("check", "classify", "verify"):
        assert run(command, str(path), *FAST) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"DomainError: phi[1][1]: division by zero at position {2 * terms - 1} at")
    data["phi"][1][1] = "0*" + data["phi"][1][1][:-6]
    path.write_text(json.dumps(data))
    for command in ("check", "classify", "verify"):
        assert run(command, str(path), *FAST) == 0
        assert "Traceback" not in capsys.readouterr().err
