"""File-driven command line front end.

Exit codes: 0 on success, 1 for usage, file-format, or expression errors,
2 for mathematical failures (axiom violations, NotWeakSasakian, ...).
Classification and check verdicts are results, not process failures.  Reports
are deterministic for fixed (file bytes, flags): they carry the sampling plan
and no timestamps, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from .chart import SamplePlan
from .classify import CHECK_IDS, classify, verify
from .deform import (DeformParams, contact_vector_field, deform,
                     extract_sasakian, product_construction)
from .errors import (AxiomViolationError, DomainError, FileFormatError,
                     NotContactMetricError, NotParallelError,
                     NotWeakSasakianError, ParseError, RankDeficientError,
                     UnknownCheckIdError, ValidationFailedError, WactError)
from .fileio import (bundled_names, bundled_path, dump_json, load_plane,
                     load_structure, save_structure)
from .structure import DEFAULT_TOL, validate
from .tensor import TensorField

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2

_MATH_ERRORS = (AxiomViolationError, NotWeakSasakianError, RankDeficientError,
                NotParallelError, ValidationFailedError, NotContactMetricError,
                DomainError)
_USAGE_ERRORS = (FileFormatError, ParseError, UnknownCheckIdError)


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _tolerance(text: str) -> float:
    """argparse type: a finite float >= 0."""
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _add_plan_options(p: argparse.ArgumentParser):
    p.add_argument("--points", type=int, default=100, help="sample point count")
    p.add_argument("--seed", type=int, default=42, help="sampling seed")
    p.add_argument("--margin", type=float, default=0.05,
                   help="interior margin per domain side")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                   help="residual tolerance")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write a JSON report to PATH")


def _plan(args) -> SamplePlan:
    return SamplePlan(count=args.points, seed=args.seed, margin=args.margin)


def _write_json(path: str, payload: dict):
    Path(path).write_text(dump_json(payload))


def _print_table(rows, header):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    print(fmt.format(*("-" * w for w in widths)))
    for r in rows:
        print(fmt.format(*r))


def _fmt_res(value) -> str:
    if value is None:
        return "-"
    return f"{value:.3e}"


def _validation_payload(report) -> dict:
    return {"schema": 1, **report.to_json_dict()}


def cmd_check(args) -> int:
    s = load_structure(args.file)
    report = validate(s, _plan(args), args.tol)
    rows = [(r.axiom, r.kind, _fmt_res(r.value),
             ("<= " if r.comparison == "<=" else "> ") + f"{r.threshold:.1e}",
             "pass" if r.passed else "FAIL")
            for r in report.rows]
    print(f"structure: {report.name} (dim {s.chart.dim})")
    print(f"plan: count={report.plan.count} seed={report.plan.seed} "
          f"margin={report.plan.margin}  tol={report.tol:g}")
    _print_table(rows, ("axiom", "kind", "residual", "threshold", "verdict"))
    print(f"result: {'VALID' if report.ok else 'INVALID'} (nu = {report.nu:g})")
    if args.json:
        _write_json(args.json, _validation_payload(report))
    return EXIT_OK if report.ok else EXIT_MATH


def _validated(args):
    """Validation report of the structure file; raises on a violated axiom.

    Its `session` carries the resolved structure, the block jets and the
    row sups on to the analysis.
    """
    return validate(load_structure(args.file), _plan(args), args.tol).raise_for_violations()


def cmd_classify(args) -> int:
    ses = _validated(args).session
    s = ses.structure
    result = classify(s, ses.plan, args.tol, session=ses)
    rows = []
    for name, fr in result.flags.items():
        extra = " ".join(f"{k}={v:g}" for k, v in fr.extra.items())
        rows.append((name, _fmt_res(fr.residual), "pass" if fr.ok else "fail", extra))
    print(f"structure: {s.name} (dim {s.chart.dim}, nu = {s.nu:g})")
    _print_table(rows, ("flag", "residual", "verdict", "extra"))
    if args.json:
        payload = {
            "schema": 1,
            "structure": s.name,
            "plan": {"count": ses.plan.count, "seed": ses.plan.seed,
                     "margin": ses.plan.margin},
            "tol": args.tol,
            "classification": result.to_json_dict(),
        }
        _write_json(args.json, payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    start = time.perf_counter()
    ses = _validated(args).session
    s = ses.structure
    report = verify(s, args.check, ses.plan, args.tol, session=ses)
    result = classify(s, ses.plan, args.tol, session=ses)
    rows = [(r.check_id, r.verdict, _fmt_res(r.residual),
             _fmt_res(min(r.hypothesis.values()) if r.hypothesis else None),
             r.claim[:68])
            for r in report.results]
    print(f"structure: {s.name} (dim {s.chart.dim}, nu = {s.nu:g})")
    _print_table(rows, ("check", "verdict", "residual", "hypothesis", "claim"))
    elapsed = time.perf_counter() - start
    print(f"wall time: {elapsed:.2f} s", file=sys.stderr)
    if args.json:
        payload = report.to_json_dict()
        payload["classification"] = result.to_json_dict()
        _write_json(args.json, payload)
    return EXIT_OK


def cmd_deform(args) -> int:
    report = _validated(args)
    params = DeformParams(args.lam, args.lam_prime)
    direction = "inverse" if args.inverse else "forward"
    out = deform(report.structure, params, direction, report.plan, args.tol)
    save_structure(out, args.output)
    print(f"wrote {args.output} (nu = {out.nu:g})")
    return EXIT_OK


def cmd_extract_sasakian(args) -> int:
    ses = _validated(args).session
    s = ses.structure
    out = extract_sasakian(s, ses.plan, args.tol, session=ses)
    save_structure(out, args.output)
    print(f"wrote {args.output} (nu = {out.nu:g})")
    return EXIT_OK


def cmd_product(args) -> int:
    phitilde, g_plane = load_plane(args.phitilde)
    plan = _plan(args)
    out = product_construction(phitilde, g_plane, args.nu,
                               name=Path(args.output).stem, plan=plan,
                               tol=args.tol)
    save_structure(out, args.output)
    print(f"wrote {args.output} (dim {out.chart.dim}, nu = {out.nu:g})")
    return EXIT_OK


def cmd_cvf(args) -> int:
    ses = _validated(args).session
    s = ses.structure
    components = [part.strip() for part in args.field.split(";")]
    if len(components) != s.chart.dim:
        raise FileFormatError(
            f"--field needs {s.chart.dim} semicolon-separated components, "
            f"got {len(components)}")
    X = TensorField.from_sources((1, 0), components, s.chart)
    result = contact_vector_field(s, X, ses.plan, args.tol, session=ses)
    print(f"structure: {s.name}")
    print(f"f = eta(X) = {result.f_source}")
    print(f"characterization residual: {result.residual:.3e} "
          f"(tol {result.tol:g}) at {result.worst_point}")
    print(f"sigma sup: {result.sigma_sup:.3e}")
    print(f"lie_X(eta) - sigma eta residual: {result.lie_eta_residual:.3e}")
    print(f"is_weak_contact: {result.is_weak_contact}")
    print(f"strict: {result.strict}")
    if args.json:
        payload = {
            "schema": 1,
            "structure": s.name,
            "field": components,
            "f": result.f_source,
            "residual": result.residual,
            "sigma_sup": result.sigma_sup,
            "lie_eta_residual": result.lie_eta_residual,
            "is_weak_contact": result.is_weak_contact,
            "strict": result.strict,
            "tol": result.tol,
        }
        _write_json(args.json, payload)
    return EXIT_OK if result.is_weak_contact else EXIT_MATH


def cmd_bundled(args) -> int:
    if args.list or args.name is None:
        for name in bundled_names():
            print(name)
        return EXIT_OK
    path = bundled_path(args.name)
    if args.output:
        Path(args.output).write_text(path.read_text())
        print(f"wrote {args.output}")
    else:
        print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wact",
        description="Numerical verification engine for weak almost contact "
                    "metric structures on coordinate charts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate the axioms of a structure file")
    p.add_argument("file")
    _add_plan_options(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("classify", help="evaluate the classification flags")
    p.add_argument("file")
    _add_plan_options(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="run registered residual checks")
    p.add_argument("file")
    p.add_argument("--check", default="all",
                   help=f"check id ({', '.join(CHECK_IDS)}) or 'all'")
    _add_plan_options(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("deform", help="homothetic deformation")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", type=_finite, required=True)
    p.add_argument("--lambda-prime", dest="lam_prime", type=_finite, required=True)
    p.add_argument("--inverse", action="store_true",
                   help="apply the reciprocal deformation")
    p.add_argument("-o", "--output", required=True)
    _add_plan_options(p)
    p.set_defaults(fn=cmd_deform)

    p = sub.add_parser("extract-sasakian",
                       help="recover the classical structure from a weak Sasakian one")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    _add_plan_options(p)
    p.set_defaults(fn=cmd_extract_sasakian)

    p = sub.add_parser("product",
                       help="weak cosymplectic structure on plane x line")
    p.add_argument("--phitilde", required=True,
                   help="JSON file with plane coordinates, domain, phi, metric")
    p.add_argument("--nu", type=_finite, required=True)
    p.add_argument("-o", "--output", required=True)
    _add_plan_options(p)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("cvf", help="weak contact vector field test")
    p.add_argument("file")
    p.add_argument("--field", required=True,
                   help="vector components as semicolon-separated expressions")
    _add_plan_options(p)
    p.set_defaults(fn=cmd_cvf)

    p = sub.add_parser("bundled", help="list or export bundled example structures")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_bundled)

    return parser


# argparse keeps no state between parses, so one parser serves every call
PARSER = build_parser()


def main(argv=None) -> int:
    """Run one `wact` command line; return its exit code.

    May be called repeatedly in one process: every call parses with
    `PARSER`, built once at import, and nothing else is kept from one call
    to the next.
    """
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except _MATH_ERRORS as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_MATH
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except WactError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
