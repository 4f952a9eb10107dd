"""Verdict comparison: a wrong verdict or unstable report must fail the call."""

import json

from perfbench import expected, stats
from perfbench.worker import Loop
from perfbench.workloads import Call


def _verify_report(checks, flags):
    return {
        "schema": 1,
        "structure": "sasakian_r5",
        "checks": [{"id": cid, "verdict": v, "residual": 0.0} for cid, v in checks.items()],
        "classification": {name: {"residual": 0.0, "verdict": v} for name, v in flags.items()},
    }


GOOD = _verify_report(expected.CHECKS["sasakian_r5"], expected.FLAGS["sasakian_r5"])


def _verify_call(tmp_path):
    report = str(tmp_path / "report.json")
    argv = ("verify", "r5.json", "--check", "all", "--json", report)
    return Call("verify", "sasakian_r5", argv, 1000, report, None)


def _fake_main(reports):
    """A stand-in for wact.cli.main that writes the next canned report."""
    queue = list(reports)

    def main(argv):
        path = argv[argv.index("--json") + 1]
        with open(path, "w") as fh:
            fh.write(json.dumps(queue.pop(0)))
        return 0
    return main


def test_check_expectation_for_broken_and_valid_files():
    broken = expected.expected("check", "broken_q_xi")
    assert broken["exit"] == 2 and broken["valid"] is False
    assert broken["axioms"]["q_xi_nu"] == "fail"
    assert broken["axioms"]["phi_square"] == "pass"
    valid = expected.expected("check", "sasakian_r3")
    assert valid["exit"] == 0
    assert set(valid["axioms"].values()) == {"pass"}


def test_observe_reads_verdicts_by_key_and_ignores_new_fields():
    report = dict(GOOD, schema=2, extra={"ignored": True})
    seen = expected.observe(0, json.dumps(report), None)
    want = expected.expected("verify", "sasakian_r5")
    assert expected.compare(want, seen) == []


def test_compare_names_each_wrong_or_missing_verdict():
    seen = expected.observe(0, json.dumps(GOOD), None)
    seen["checks"]["C1"] = "pass"
    del seen["flags"]["normal"]
    problems = expected.compare(expected.expected("verify", "sasakian_r5"), seen)
    assert problems == ["checks.C1: expected 'n/a', got 'pass'", "flags.normal: missing"]
    assert expected.compare({"exit": 2}, {"exit": 0}) == ["exit: expected 2, got 0"]


def test_planted_wrong_verdict_raises_fail_ratio(tmp_path):
    planted = _verify_report(dict(expected.CHECKS["sasakian_r5"], T1="fail"),
                             expected.FLAGS["sasakian_r5"])
    loop = Loop(_fake_main([GOOD, planted, GOOD]), [_verify_call(tmp_path)])
    for _ in range(3):
        loop.run_pass("plain")
    assert [bool(r["problems"]) for r in loop.records] == [False, True, False]
    assert stats.fail_ratio(loop.records) == 1 / 3


def test_clean_passes_have_zero_fail_ratio(tmp_path):
    loop = Loop(_fake_main([GOOD, GOOD]), [_verify_call(tmp_path)])
    loop.run_pass("plain")
    loop.run_pass("plain")
    assert stats.fail_ratio(loop.records) == 0.0


def test_report_bytes_must_repeat(tmp_path):
    reordered = dict(reversed(list(GOOD.items())))  # same verdicts, other bytes
    loop = Loop(_fake_main([GOOD, reordered]), [_verify_call(tmp_path)])
    loop.run_pass("plain")
    loop.run_pass("plain")
    assert loop.records[1]["problems"] == ["report differs from the same call's first report"]


def test_raising_call_and_missing_output_fail(tmp_path):
    def boom(argv):
        raise RuntimeError("boom")

    out = str(tmp_path / "out.json")
    call = Call("deform", "sasakian_r3", ("deform", "x", "-o", out), 100, None, out)
    loop = Loop(boom, [call])
    loop.run_pass("plain")
    assert loop.records[0]["problems"] == ["raised RuntimeError: boom"]
    loop = Loop(lambda argv: 0, [call])
    loop.run_pass("plain")
    assert loop.records[0]["problems"] == ["wrote: expected True, got False"]
