"""Grammar fuzzer: random component expressions run through `cli.main`.

Each example writes one random expression into one component of
sasakian_r3, or into one component of `cvf --field`, and runs the command
in process at 10 points.  Whatever the expression, the call must end in
exit 0, 1 or 2 without an exception or a traceback, and a report it writes
must be strict JSON.  Derandomized, so tier-1 runs the same examples each
time.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wact.cli import main  # noqa: E402
from wact.expr import FUNCTIONS  # noqa: E402
from wact.fileio import bundled_path  # noqa: E402

ATOMS = st.sampled_from(["x", "y", "z", "0", "1", "2.5", "1e-200", "1e308", "pi", "e"])
EXPONENTS = st.sampled_from(["-3", "-2", "-1", "0", "2", "0.5", "-0.5", "(-1.5)"])


def _compound(inner):
    return st.one_of(
        st.builds("{}({})".format, st.sampled_from(FUNCTIONS), inner),
        st.builds("({}){}({})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})^{}".format, inner, EXPONENTS),
        st.builds("({})^({})".format, inner, inner),
        st.builds("-({})".format, inner),
    )


EXPRESSIONS = st.recursive(ATOMS, _compound, max_leaves=6)
TARGETS = st.one_of(
    st.tuples(st.sampled_from(["check", "classify", "verify"]),
              st.sampled_from(["phi", "Q", "metric"]),
              st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.sampled_from(["check", "verify"]), st.sampled_from(["xi", "eta"]),
              st.integers(0, 2), st.none()),
    st.tuples(st.just("cvf"), st.just("field"), st.integers(0, 2), st.none()),
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _strict(constant):
    raise ValueError(f"report holds the non-JSON constant {constant}")


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(target=TARGETS, source=EXPRESSIONS)
@example(target=("check", "phi", 0, 0), source="(1e-200)^-2")
def test_any_expression_ends_in_an_exit_code_and_a_strict_report(work, target, source):
    command, key, i, j = target
    data = json.loads(bundled_path("sasakian_r3").read_text())
    field = ["0", "0", "2"]
    if key == "field":
        field[i] = source
    elif j is None:
        data[key][i] = source
    else:
        data[key][i][j] = source
    path, report = work / "structure.json", work / "report.json"
    path.write_text(json.dumps(data))
    report.unlink(missing_ok=True)
    argv = [command, str(path), "--points", "10", "--json", str(report)]
    if command == "cvf":
        argv += ["--field", ";".join(field)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, source)
    assert "Traceback" not in err.getvalue()
    if report.exists():
        json.loads(report.read_text(), parse_constant=_strict)
