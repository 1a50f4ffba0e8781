"""Command-line front end.

Reads UTF-8 JSON operator or cone descriptions, dispatches the
computations, and prints machine-readable reports (JSON or CSV) with
floats at 17 significant digits.  Output is byte-identical across runs
on identical input; every report embeds the input's sha256 and the tool
version.

Operator document:

    {"R": 1.0, "lambdas": [-0.25, 0.11], "q0": 1,
     "A": [[{"re": 1, "im": 0}, ...], ...], "B": [[...], ...],
     "regular_bc": {"type": "robin", "alpha": 0.5}}

Cone document:

    {"m": 2, "ccl_spectra": {"0": [[0.0, 1], [1.0, 2], [4.0, 2]], ...},
     "harmonic_dims": {"0": 1, "1": 1}}

Exit codes: 0 success, 2 malformed input, a bad flag or failed
validation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys
import warnings

import numpy as np

from . import __version__
from ._numutil import NumericalError
from .cone import (
    ConeSpec,
    ConeSpecError,
    cone_determinant,
    contribution_sets,
)
from .determinant import check_zeta_s, det_zeta_auto, zeta_eval
from .eigenfunction import (
    VERIFY_CONTOUR_THETA,
    InvalidOperatorError,
    SecularEvaluator,
    _unscaled,
    eval_F_at_zero,
    find_spectrum,
    verify_contour_decay,
)
from .operators import (
    BoundaryMatrices,
    Dirichlet,
    OperatorSpec,
    OperatorSpecError,
    Robin,
    validate,
)
from .special import SpecialFunctionDomainError

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3

class SchemaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Deterministic serialization, 17 significant digits
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if isinstance(x, bool):  # bool is an int subclass; keep it out of %g
        return "true" if x else "false"
    if not math.isfinite(x):
        raise NumericalError(f"non-finite number in report: {x!r}")
    out = format(float(x), ".17g")
    return out


def serialize(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, complex):
        return serialize({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + serialize(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in obj:  # insertion order is part of the deterministic contract
            items.append(
                "  " * (indent + 1) + json.dumps(str(key)) + ": " + serialize(obj[key], indent + 1)
            )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# Input documents
# ---------------------------------------------------------------------------

def _load_json(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input file: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"input is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    return doc, digest


def _complex_entry(cell, where: str) -> complex:
    if not isinstance(cell, dict) or set(cell) != {"re", "im"}:
        raise SchemaError(f'{where}: matrix entries must be {{"re": .., "im": ..}} objects')
    re, im = cell["re"], cell["im"]
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise SchemaError(f"{where}: re/im must be numbers")
    return complex(re, im)


def _matrix(doc, name: str, q: int) -> np.ndarray:
    rows = doc.get(name)
    if not isinstance(rows, list) or len(rows) != q:
        raise SchemaError(f'"{name}" must be a {q}x{q} array of entries')
    out = np.zeros((q, q), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != q:
            raise SchemaError(f'"{name}" row {i} must have {q} entries')
        for j, cell in enumerate(row):
            out[i, j] = _complex_entry(cell, f"{name}[{i}][{j}]")
    return out


def parse_operator_document(doc: dict) -> OperatorSpec:
    for key in ("R", "lambdas", "q0", "A", "B", "regular_bc"):
        if key not in doc:
            raise SchemaError(f'operator document is missing "{key}"')
    lambdas = doc["lambdas"]
    if not isinstance(lambdas, list) or not lambdas or not all(
        isinstance(v, (int, float)) for v in lambdas
    ):
        raise SchemaError('"lambdas" must be a non-empty list of numbers')
    q = len(lambdas)
    bc = doc["regular_bc"]
    if not isinstance(bc, dict) or "type" not in bc:
        raise SchemaError('"regular_bc" must carry a "type"')
    if bc["type"] == "dirichlet":
        regular_bc: Dirichlet | Robin = Dirichlet()
    elif bc["type"] == "robin":
        if "alpha" not in bc or not isinstance(bc["alpha"], (int, float)):
            raise SchemaError('robin condition needs a numeric "alpha"')
        regular_bc = Robin(alpha=float(bc["alpha"]))
    else:
        raise SchemaError(f'unknown regular_bc type {bc["type"]!r}')
    try:
        return OperatorSpec(
            r=float(doc["R"]),
            lambdas=tuple(float(v) for v in lambdas),
            q0=int(doc["q0"]),
            boundary=BoundaryMatrices(_matrix(doc, "A", q), _matrix(doc, "B", q)),
            regular_bc=regular_bc,
        )
    except OperatorSpecError as exc:
        raise SchemaError(str(exc)) from exc


def parse_cone_document(doc: dict) -> ConeSpec:
    for key in ("m", "ccl_spectra", "harmonic_dims"):
        if key not in doc:
            raise SchemaError(f'cone document is missing "{key}"')
    raw = doc["ccl_spectra"]
    if not isinstance(raw, dict):
        raise SchemaError('"ccl_spectra" must map degree -> [[lambda, mult], ...]')
    spectra = {}
    for key, entries in raw.items():
        try:
            j = int(key)
        except (TypeError, ValueError):
            raise SchemaError(f"cross-section degree key {key!r} is not an integer") from None
        if not isinstance(entries, list):
            raise SchemaError(f"degree {j}: expected a list of [lambda, mult] pairs")
        pairs = []
        for item in entries:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not isinstance(item[0], (int, float))
                or not isinstance(item[1], int)
            ):
                raise SchemaError(f"degree {j}: entries must be [lambda, mult] with integer mult")
            pairs.append((float(item[0]), int(item[1])))
        spectra[j] = tuple(pairs)
    dims_raw = doc["harmonic_dims"]
    if not isinstance(dims_raw, dict):
        raise SchemaError('"harmonic_dims" must map degree -> dimension')
    dims = {}
    for key, val in dims_raw.items():
        try:
            dims[int(key)] = int(val)
        except (TypeError, ValueError):
            raise SchemaError(f"bad harmonic dimension entry {key!r}: {val!r}") from None
    try:
        return ConeSpec(m=int(doc["m"]), ccl_spectra=spectra, harmonic_dims=dims)
    except ConeSpecError as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Command implementations: each takes the parsed arguments and the input
# document and returns the report dict, the csv rows and the exit code.
# The operator commands leave validation to the evaluator they build.
# ---------------------------------------------------------------------------

def _violations_payload(spec: OperatorSpec):
    issues = validate(spec)
    return issues, {
        "ok": not issues,
        "violations": [{"name": v.name, "detail": v.detail} for v in issues],
    }


def _cmd_validate(args: argparse.Namespace, doc: dict):
    spec = parse_operator_document(doc)
    issues, payload = _violations_payload(spec)
    rows = [["ok", str(not issues).lower()]] + [["violation", v.name] for v in issues]
    return payload, [["field", "value"]] + rows, EXIT_SCHEMA if issues else EXIT_OK


def _cmd_eval_f(args: argparse.Namespace, doc: dict):
    if args.mu is None:
        raise SchemaError("eval-f needs --mu")
    spec = parse_operator_document(doc)
    mant, logs = SecularEvaluator(spec).scaled(args.mu)
    value = complex(_unscaled(mant, logs))  # one kernel pass
    payload = {
        "mu": {"re": args.mu.real, "im": args.mu.imag},
        "value": {"re": value.real, "im": value.imag},
        "mantissa": {"re": mant.real, "im": mant.imag},
        "log_scale": logs,
    }
    rows = [["field", "value"], ["re", _fmt_float(value.real)], ["im", _fmt_float(value.imag)]]
    return payload, rows, EXIT_OK


def _cmd_f_at_zero(args: argparse.Namespace, doc: dict):
    val = eval_F_at_zero(parse_operator_document(doc))
    rows = [["field", "value"], ["f_zero", _fmt_float(val.real)]]
    if isinstance(val, complex):  # complex tip matrices
        rows.append(["f_zero_im", _fmt_float(val.imag)])
    return {"f_zero": val}, rows, EXIT_OK


def _cmd_spectrum(args: argparse.Namespace, doc: dict):
    sp = find_spectrum(parse_operator_document(doc), args.mu_max)
    payload = {
        "mu_max": sp.mu_max,
        "certified": sp.certified,
        "positive": list(sp.positive),
        "negative": list(sp.negative),
        "eigenvalues": [m * m for m in sp.positive] + [-x * x for x in sp.negative],
        "passes": sp.passes,
    }
    rows = [["index", "axis", "root", "eigenvalue"]]
    for i, m in enumerate(sp.positive, start=1):
        rows.append([str(i), "real", _fmt_float(m), _fmt_float(m * m)])
    for i, x in enumerate(sp.negative, start=1):
        rows.append([str(i), "imag", _fmt_float(x), _fmt_float(-x * x)])
    return payload, rows, EXIT_OK


def _finite_or_null(value):
    """A diagnostic as it is, or None (JSON null) where it is a float past the float
    range: a diagnostic such as zeta(1) = R^2 / 5.2 at R = 1e200 must not sink a value."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _cmd_det(args: argparse.Namespace, doc: dict):
    report = det_zeta_auto(parse_operator_document(doc))
    payload = {
        "value": report.value,
        "method": report.method,
        "k0": report.kernel_dim_proxy,
        "log_singular": report.log_singular,
        "diagnostics": {k: _finite_or_null(v) for k, v in report.diagnostics.items()},
    }
    rows = [
        ["field", "value"],
        ["value", _fmt_float(report.value)],
        ["method", report.method],
        ["k0", str(report.kernel_dim_proxy)],
    ]
    return payload, rows, EXIT_OK


def _cmd_zeta(args: argparse.Namespace, doc: dict):
    spec = parse_operator_document(doc)
    check_zeta_s(args.s)  # before the spectrum scan, which the refusal would waste
    sp = find_spectrum(spec, args.mu_max)
    rep = zeta_eval(spec, args.s, spectrum=sp)
    payload = {
        "s": rep.s,
        "direct": rep.direct,
        "direct_error": rep.direct_error,
        "contour": rep.contour,
        "contour_error": rep.contour_error,
        "t": rep.t,
        "n_roots": len(sp.positive),
        "passes": sp.passes + rep.passes,  # the spectrum search and the contour
        "nodes": rep.nodes,
    }
    rows = [["field", "value"]] + [[k, _fmt_float(v) if isinstance(v, float) else str(v)]
                                   for k, v in payload.items()]
    return payload, rows, EXIT_OK


def _cmd_cone(args: argparse.Namespace, doc: dict):
    cone = parse_cone_document(doc)
    degrees = [args.degree] if args.degree is not None else list(range(cone.m + 1))
    out = {}
    rows = [["degree", "value", "window_active"]]
    for k in degrees:
        with warnings.catch_warnings():
            # window notes are already part of the report payload
            warnings.simplefilter("ignore")
            contrib = contribution_sets(cone, k)
            value = cone_determinant(cone, k)
        out[str(k)] = {
            "value": value,
            "window_active": contrib.window_active,
            "p_factor": contrib.p_factor,
            "factors": [
                {
                    "source": f.source,
                    "nu": f.nu,
                    "multiplicity": f.multiplicity,
                    "value": f.value,
                }
                for f in contrib.factors
            ],
            "warnings": list(contrib.warnings),
        }
        rows.append([str(k), _fmt_float(value), str(contrib.window_active).lower()])
    return {"degrees": out}, rows, EXIT_OK


def _cmd_verify_asymptotics(args: argparse.Namespace, doc: dict):
    ev = SecularEvaluator(parse_operator_document(doc))
    entries = []
    errs = []
    for x in args.a_list or (20.0 / ev.r, 40.0 / ev.r, 80.0 / ev.r):
        actual = ev.log_value(1j * x)
        model = ev.quoted_model(x)
        rel = abs(model - actual) / abs(actual)
        errs.append(rel)
        entries.append(
            {
                "x": x,
                "actual": {"re": actual.real, "im": actual.imag},
                "model": {"re": model.real, "im": model.imag},
                "rel_error": rel,
            }
        )
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    payload = {"points": entries, "strictly_decreasing": decreasing}
    rows = [["x", "rel_error"]] + [[_fmt_float(e["x"]), _fmt_float(e["rel_error"])] for e in entries]
    return payload, rows, EXIT_OK


def _cmd_verify_contour(args: argparse.Namespace, doc: dict):
    spec = parse_operator_document(doc)
    if not args.a_list:
        raise SchemaError("verify-contour needs --a-list")
    mags = verify_contour_decay(spec, args.s, list(args.a_list))
    decreasing = all(a > b for a, b in zip(mags, mags[1:]))
    payload = {
        "s": args.s,
        "theta": VERIFY_CONTOUR_THETA,
        "a_list": list(args.a_list),
        "magnitudes": mags,
        "strictly_decreasing": decreasing,
        "last_below_half_first": bool(mags[-1] < 0.5 * mags[0]) if len(mags) > 1 else True,
    }
    rows = [["a", "magnitude"]] + [
        [_fmt_float(a), _fmt_float(m)] for a, m in zip(args.a_list, mags)
    ]
    return payload, rows, EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "eval-f": _cmd_eval_f,
    "f-at-zero": _cmd_f_at_zero,
    "spectrum": _cmd_spectrum,
    "det": _cmd_det,
    "zeta": _cmd_zeta,
    "cone": _cmd_cone,
    "verify-asymptotics": _cmd_verify_asymptotics,
    "verify-contour": _cmd_verify_contour,
}


# argparse types: a value they refuse exits 2 with a usage message


def _parse_mu(text: str) -> complex:
    return _finite("--mu", text, complex, text.replace(" ", ""))[0]


def _parse_a_list(text: str) -> tuple[float, ...]:
    return _finite("--a-list", text, float, *(part for part in text.split(",") if part.strip()))


def _finite(flag: str, text: str, kind, *parts: str) -> tuple:
    """The parts as numbers of ``kind``, refused unless each parses and is finite."""
    try:
        values = tuple(kind(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {flag} value {text!r}") from None
    if not all(map(cmath.isfinite, values)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return values


def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsing",
        description="Spectra and zeta determinants of regular-singular operators",
        allow_abbrev=False,  # a prefix such as --deg is refused, not read as --degree
    )
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("input", help="path to the JSON description")
    parser.add_argument("--mu-max", type=_positive, default=100.0, dest="mu_max")
    parser.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    parser.add_argument("--a-list", type=_parse_a_list, default=(), dest="a_list")
    parser.add_argument("--mu", type=_parse_mu, default=None)
    parser.add_argument("--s", type=float, default=1.0)
    parser.add_argument("--degree", type=int, default=None)
    return parser


def run(args: argparse.Namespace) -> int:
    doc, digest = _load_json(args.input)
    payload, rows, code = _HANDLERS[args.command](args, doc)
    if args.fmt == "json":
        envelope = {
            "tool": "regsing",
            "version": __version__,
            "command": args.command,
            "input_sha256": digest,
            "deterministic": True,
            "report": payload,
        }
        sys.stdout.write(serialize(envelope) + "\n")
    else:
        lines = [",".join(cell for cell in row) for row in rows]
        header = f"# regsing {__version__} {args.command} sha256:{digest}"
        sys.stdout.write(header + "\n" + "\n".join(lines) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (SchemaError, OperatorSpecError, ConeSpecError, InvalidOperatorError) as exc:
        sys.stderr.write(f"regsing: input error: {exc}\n")
        return EXIT_SCHEMA
    except (NumericalError, SpecialFunctionDomainError, ValueError) as exc:
        sys.stderr.write(f"regsing: numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
