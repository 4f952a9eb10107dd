"""Structure files and report files.

A structure file is JSON with the keys

    name (optional), description (optional),
    dimension       odd integer 2n+1,
    coordinates     list of 2n+1 names,
    domain          {coordinate: [lo, hi]},
    metric          (2n+1)^2 matrix of expression strings (symmetric),
    phi             expression matrix, rows indexed by the upper slot,
    Q               expression matrix (optional),
    xi              expression vector,
    eta             expression covector,
    nu              positive number (optional).

When Q is omitted it is synthesized as Q = -phi^2 + nu * eta (x) xi, which
requires nu to be present.  Serialization reprints expressions through the
canonical printer, so save(load(file)) is the identity up to reprinting.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from . import expr as ex
from .chart import Chart
from .errors import FileFormatError, ParseError
from .structure import Structure
from .tensor import TensorField

SCHEMA_VERSION = 1


def _expect(condition: bool, message: str):
    if not condition:
        raise FileFormatError(message)


def _parse_entry(source, coords, where: str, parsed: dict):
    """The expression of `source`; `parsed` holds the sources of this load already parsed."""
    text = str(source)
    if text not in parsed:
        try:
            parsed[text] = ex.parse(text, coords)
        except ParseError as err:
            raise FileFormatError(f"{where}: {err}") from err
    return parsed[text]


def _parse_matrix(raw, dim: int, coords, key: str, parsed: dict) -> np.ndarray:
    _expect(isinstance(raw, list) and len(raw) == dim,
            f"'{key}' must be a {dim}x{dim} matrix")
    out = np.empty((dim, dim), dtype=object)
    for i, row in enumerate(raw):
        _expect(isinstance(row, list) and len(row) == dim,
                f"'{key}' row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _parse_entry(entry, coords, f"{key}[{i}][{j}]", parsed)
    return out


def _parse_vector(raw, dim: int, coords, key: str, parsed: dict) -> np.ndarray:
    _expect(isinstance(raw, list) and len(raw) == dim,
            f"'{key}' must have {dim} entries")
    out = np.empty(dim, dtype=object)
    for i, entry in enumerate(raw):
        out[i] = _parse_entry(entry, coords, f"{key}[{i}]", parsed)
    return out


def _synthesize_q(phi: np.ndarray, eta: np.ndarray, xi: np.ndarray,
                  nu: float, coords) -> np.ndarray:
    """Q = -phi^2 + nu * eta (x) xi, built at the expression level."""
    phi, eta, xi = (ex.node_array(a) for a in (phi, eta, xi))
    return ex.expr_array(-(phi @ phi) + ex.make_num(nu) * (eta[None, :] * xi[:, None]),
                         coords)


def structure_from_dict(data: dict, default_name: str = "structure") -> Structure:
    """Build a (not yet validated) structure from parsed JSON."""
    _expect(isinstance(data, dict), "structure file must contain a JSON object")
    dim = data.get("dimension")
    _expect(isinstance(dim, int) and dim >= 3 and dim % 2 == 1,
            f"'dimension' must be an odd integer >= 3, got {dim!r}")
    coords = data.get("coordinates")
    _expect(isinstance(coords, list) and len(coords) == dim,
            f"'coordinates' must list {dim} names")
    domain = data.get("domain")
    _expect(isinstance(domain, dict), "'domain' must map coordinates to [lo, hi]")
    for c in coords:
        _expect(c in domain, f"domain missing coordinate {c!r}")
        pair = domain[c]
        _expect(isinstance(pair, list) and len(pair) == 2,
                f"domain of {c!r} must be a [lo, hi] pair")
    try:
        chart = Chart.make(coords, {c: tuple(domain[c]) for c in coords})
    except ValueError as err:
        raise FileFormatError(str(err)) from err

    for key in ("metric", "phi", "xi", "eta"):
        _expect(key in data, f"missing key '{key}'")

    # Metric symmetry: entries symmetric as written pass trivially; otherwise
    # the numeric metric_symmetric axiom judges them at the sample points.
    # Equal sources share one (immutable) expression.
    parsed = {}
    metric = _parse_matrix(data["metric"], dim, chart.coords, "metric", parsed)

    phi = _parse_matrix(data["phi"], dim, chart.coords, "phi", parsed)
    xi = _parse_vector(data["xi"], dim, chart.coords, "xi", parsed)
    eta = _parse_vector(data["eta"], dim, chart.coords, "eta", parsed)

    nu = data.get("nu")
    if nu is not None:
        _expect(isinstance(nu, (int, float)) and not isinstance(nu, bool)
                and math.isfinite(nu) and nu > 0,
                f"'nu' must be a positive number, got {nu!r}")
        nu = float(nu)

    if "Q" in data and data["Q"] is not None:
        q = _parse_matrix(data["Q"], dim, chart.coords, "Q", parsed)
    else:
        _expect(nu is not None,
                "'Q' is omitted, so 'nu' is required to synthesize it")
        q = _synthesize_q(phi, eta, xi, nu, chart.coords)

    name = data.get("name", default_name)
    _expect(isinstance(name, str) and name != "", "'name' must be a non-empty string")

    return Structure(
        chart=chart,
        phi=TensorField((1, 1), phi, chart),
        Q=TensorField((1, 1), q, chart),
        xi=TensorField((1, 0), xi, chart),
        eta=TensorField((0, 1), eta, chart),
        g=TensorField((0, 2), metric, chart),
        nu=nu,
        name=name,
    )


def load_structure(path) -> Structure:
    """Load a structure file from disk (unvalidated)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path}: not valid JSON: {err}") from err
    return structure_from_dict(data, default_name=path.stem)


def structure_to_dict(s: Structure) -> dict:
    """Serializable form of a structure (expressions reprinted canonically)."""
    out = {
        "name": s.name,
        "dimension": s.chart.dim,
        "coordinates": list(s.chart.coords),
        "domain": {c: [lo, hi] for c, lo, hi
                   in zip(s.chart.coords, s.chart.lows, s.chart.highs)},
    }
    if s.nu is not None:
        out["nu"] = s.nu
    out["metric"] = s.g.sources()
    out["phi"] = s.phi.sources()
    out["Q"] = s.Q.sources()
    out["xi"] = s.xi.sources()
    out["eta"] = s.eta.sources()
    return out


def save_structure(s: Structure, path):
    Path(path).write_text(dump_json(structure_to_dict(s)))


def _finite_json(obj):
    """Copy of `obj` with each non-finite float spelled "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(float(obj))
    if isinstance(obj, dict):
        return {key: _finite_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(value) for value in obj]
    return obj


def dump_json(obj) -> str:
    """Stable, strict JSON used for every report and structure file.

    A non-finite residual is written as the string the text table prints.
    """
    return json.dumps(_finite_json(obj), indent=2, allow_nan=False) + "\n"


# --------------------------------------------------------------------------
# Plane input of the product construction
# --------------------------------------------------------------------------

def plane_from_dict(data: dict):
    """Parse {coordinates, domain, phi, metric} on an even-dimensional chart."""
    _expect(isinstance(data, dict), "plane file must contain a JSON object")
    coords = data.get("coordinates")
    _expect(isinstance(coords, list) and len(coords) >= 2 and len(coords) % 2 == 0,
            "'coordinates' must list an even number of names")
    dim = len(coords)
    domain = data.get("domain")
    _expect(isinstance(domain, dict), "'domain' must map coordinates to [lo, hi]")
    for c in coords:
        _expect(c in domain, f"domain missing coordinate {c!r}")
    from .chart import BaseChart
    try:
        chart = BaseChart.make(coords, {c: tuple(domain[c]) for c in coords})
    except ValueError as err:
        raise FileFormatError(str(err)) from err
    for key in ("phi", "metric"):
        _expect(key in data, f"missing key '{key}'")
    parsed = {}
    phi = _parse_matrix(data["phi"], dim, chart.coords, "phi", parsed)
    metric = _parse_matrix(data["metric"], dim, chart.coords, "metric", parsed)
    return (TensorField((1, 1), phi, chart), TensorField((0, 2), metric, chart))


def load_plane(path):
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path}: not valid JSON: {err}") from err
    return plane_from_dict(data)


# --------------------------------------------------------------------------
# Bundled examples
# --------------------------------------------------------------------------

def bundled_names() -> list:
    """Names of the structure files shipped with the package."""
    root = resources.files("wact").joinpath("data")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_path(name: str) -> Path:
    path = resources.files("wact").joinpath("data").joinpath(f"{name}.json")
    if not path.is_file():
        raise FileFormatError(
            f"no bundled structure named {name!r}; available: {', '.join(bundled_names())}")
    return Path(str(path))


def load_bundled(name: str) -> Structure:
    return load_structure(bundled_path(name))
