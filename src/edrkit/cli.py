"""Command-line front end: snf, reduce2x2, complete, check, rings.

Exit codes: 0 success, 1 precondition violation (e.g. a non-unimodular
reduce2x2 input, a row that does not generate dR) or a result holding an
integer past Python's int/str digit limit, 2 parse error (bad ring
expression, bad JSON, ragged grid, an integer literal past that limit).  JSON output is canonical (sorted keys,
fixed separators) so identical requests produce byte-identical documents.
``EDR_MAX_SEARCH`` overrides the default search window echoed by bounded
property checks on infinite rings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .completion import complete_row, complete_unimodular
from .matrices import (
    ReductionResult,
    RingMatrix,
    determinant,
    diagonal_reduce,
    reduce_2x2,
    verify_reduction,
)
from .registry import (
    ElementSyntaxError,
    ExpressionError,
    format_element,
    make_ring,
    parse_element,
    parse_json,
    ring_catalog,
)
from .rings import PreconditionError, RingError, UnsupportedOperationError, _raw
from .stability import PROPERTIES, check_property

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_PARSE = 2


class CLIParseError(RingError):
    """Input that could not be parsed; maps to exit code 2."""


@dataclass
class CommandRequest:
    command: str
    ring: str = ""
    payload: str | None = None
    row: str | None = None
    d: str | None = None
    property: str | None = None
    bound: int | None = None
    verify: bool = True
    output: str = "json"


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def read_matrix(path_or_inline: str, ring_spec: str) -> RingMatrix:
    """Matrix from inline JSON, a file path, or a whitespace grid of elements."""
    entry = make_ring(ring_spec)
    text = path_or_inline
    if not text.lstrip().startswith("{") and os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    stripped = text.strip()
    if not stripped:
        raise CLIParseError("empty matrix input")
    if stripped.startswith("{"):
        try:
            obj = parse_json(stripped)
        except json.JSONDecodeError as exc:
            raise CLIParseError(f"bad matrix JSON: {exc}") from None
        declared = obj.get("ring")
        if declared is not None and declared != entry.expression():
            raise CLIParseError(
                f"matrix JSON declares ring {declared!r} but --ring gave "
                f"{entry.expression()!r}")
        try:
            return RingMatrix.from_json(obj, entry.ring)
        except RingError as exc:
            raise CLIParseError(str(exc)) from None
    rows = []
    width = None
    for line in stripped.splitlines():
        line = line.strip()
        if not line:
            continue
        cells = [parse_element(entry, tok).value for tok in line.split()]
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise CLIParseError(f"ragged grid row {line!r}")
        rows.append(cells)
    return RingMatrix._trusted(entry.ring, rows)


def _pretty_matrix(m: RingMatrix) -> str:
    ring = m.ring
    cells = [[format_element(m.entry(i, j)) for j in range(m.cols)]
             for i in range(m.rows)]
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)]
    return "\n".join(" ".join(cells[i][j].rjust(widths[j]) for j in range(m.cols))
                     for i in range(m.rows))


def render(result, mode: str) -> str:
    """Deterministic rendering of a result document."""
    if mode == "json":
        if isinstance(result, (dict, list)):
            return _json_text(result)
        raise RingError(f"cannot render {result!r} as json")
    if isinstance(result, dict) and "D" in result:
        lines = ["D:", result["_pretty_D"], "P:", result["_pretty_P"],
                 "Q:", result["_pretty_Q"]]
        if "verified" in result:
            lines.append(f"verified: {str(result['verified']).lower()}")
        return "\n".join(lines)
    if isinstance(result, dict) and "matrix" in result:
        return "\n".join(["matrix:", result["_pretty_matrix"],
                          f"det: {result['_pretty_d']}"])
    if isinstance(result, dict) and "property" in result:
        lines = [f"{result['property']}: {'holds' if result['holds'] else 'fails'}"]
        if "witness" in result:
            lines.append("witness: " + _json_text(result["witness"]))
        if "searchBound" in result:
            lines.append(f"search bound: {result['searchBound']}")
        return "\n".join(lines)
    if isinstance(result, list):
        return "\n".join(
            f"{e['expression']}: finite={str(e['finite']).lower()} "
            f"bezout={str(e['bezoutTotal']).lower()}" for e in result)
    return _json_text(result)


def _reduction_doc(a: RingMatrix, res: ReductionResult, verify: bool,
                   pretty: bool) -> tuple[dict, bool]:
    """The JSON document; with pretty, also the _pretty_* grids that render reads."""
    ok = verify_reduction(a, res) if verify else True
    doc = res.to_json(verified=ok if verify else None)
    if pretty:
        doc["_pretty_D"] = _pretty_matrix(res.D)
        doc["_pretty_P"] = _pretty_matrix(res.P)
        doc["_pretty_Q"] = _pretty_matrix(res.Q)
    return doc, ok


def _completion_payload(req: CommandRequest, entry):
    """Row and target determinant from --row/--d or a JSON --input payload."""
    if req.row is not None:
        row = [parse_element(entry, tok) for tok in req.row.split(",") if tok.strip()]
        d = parse_element(entry, req.d) if req.d is not None else None
        return row, d
    if req.payload is None:
        raise CLIParseError("complete needs --row or a JSON --input payload")
    try:
        obj = parse_json(req.payload)
    except json.JSONDecodeError as exc:
        raise CLIParseError(f"bad completion JSON: {exc}") from None
    if not isinstance(obj, dict) or "row" not in obj:
        raise CLIParseError('completion JSON needs {"row": [...], "d": ...}')
    declared = obj.get("ring")
    if declared is not None and declared != entry.expression():
        raise CLIParseError(
            f"completion JSON declares ring {declared!r} but --ring gave "
            f"{entry.expression()!r}")
    ring = entry.ring
    try:
        row = [_raw(ring, ring.value_from_json(v)) for v in obj["row"]]
        d = None
        if obj.get("d") is not None:
            d = _raw(ring, ring.value_from_json(obj["d"]))
    except RingError as exc:
        raise CLIParseError(str(exc)) from None
    return row, d


def dispatch(req: CommandRequest) -> tuple[int, str]:
    """Run one request; returns (exit code, output document text)."""
    try:
        if req.command == "rings":
            catalog = ring_catalog()
            return EXIT_OK, render(catalog, req.output)
        entry = make_ring(req.ring)
        if req.command in ("snf", "reduce2x2"):
            if req.payload is None:
                raise CLIParseError(f"{req.command} needs --input")
            a = read_matrix(req.payload, req.ring)
            res = (diagonal_reduce if req.command == "snf" else reduce_2x2)(a)
            doc, ok = _reduction_doc(a, res, req.verify, req.output == "pretty")
            return (EXIT_OK if ok else EXIT_PRECONDITION), render(doc, req.output)
        if req.command == "complete":
            row, d = _completion_payload(req, entry)
            if d is not None:
                res = complete_row(row, d)
            else:
                res = complete_unimodular(row)
            doc = res.to_json(include_trace=(req.output == "json"))
            ok = True
            if req.verify:
                # Berkowitz here; complete_row never computes a general determinant
                ok = determinant(res.matrix) == res.d
                doc["verified"] = ok
            if req.output == "pretty":
                doc["_pretty_matrix"] = _pretty_matrix(res.matrix)
                doc["_pretty_d"] = format_element(res.d)
            return (EXIT_OK if ok else EXIT_PRECONDITION), render(doc, req.output)
        if req.command == "check":
            if req.property is None:
                raise CLIParseError("check needs --property")
            if req.property not in PROPERTIES:
                raise CLIParseError(
                    f"unknown property {req.property!r}; choose from {', '.join(PROPERTIES)}")
            verdict = check_property(entry.ring, req.property, bound=req.bound)
            return EXIT_OK, render(verdict.to_json(), req.output)
        raise CLIParseError(f"unknown command {req.command!r}")
    except (CLIParseError, ExpressionError, ElementSyntaxError) as exc:
        return EXIT_PARSE, f"error: {exc}"
    except (PreconditionError, UnsupportedOperationError, RingError) as exc:
        return EXIT_PRECONDITION, f"error: {exc}"
    except ValueError as exc:
        # inputs past Python's int/str digit limit are parse errors by now, so
        # this is a result too large to encode: an oversized request
        if "integer string conversion" not in str(exc):
            raise
        return EXIT_PRECONDITION, ("error: the result holds an integer past Python's "
                                   f"{sys.get_int_max_str_digits()}-digit int/str limit")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edr",
        description="Exact diagonal reduction and row completion over Bezout rings")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ring=True):
        if ring:
            p.add_argument("--ring", required=True, help="ring descriptor expression")
        p.add_argument("--output", choices=["json", "pretty"], default="json")
        p.add_argument("--verify", dest="verify", action="store_true", default=True)
        p.add_argument("--no-verify", dest="verify", action="store_false")

    p_snf = sub.add_parser("snf", help="diagonal reduction with certificate")
    common(p_snf)
    p_snf.add_argument("--input", required=True, help="matrix JSON, file path or grid")

    p_red = sub.add_parser("reduce2x2", help="elementary reduction of [[a,0],[b,c]]")
    common(p_red)
    p_red.add_argument("--input", required=True, help="matrix JSON, file path or grid")

    p_comp = sub.add_parser("complete", help="complete a row to prescribed determinant")
    common(p_comp)
    p_comp.add_argument("--row", help="comma-separated element texts")
    p_comp.add_argument("--d", help="target determinant (defaults to 1, unimodular)")
    p_comp.add_argument("--input", help='JSON payload {"row": [...], "d": ...}')

    p_check = sub.add_parser("check", help="property verdict for a ring")
    common(p_check)
    p_check.add_argument("--property", required=True)
    p_check.add_argument("--bound", type=int)

    p_rings = sub.add_parser("rings", help="list shipped ring kinds")
    common(p_rings, ring=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    bound = getattr(args, "bound", None)
    if bound is None and os.environ.get("EDR_MAX_SEARCH"):
        try:
            bound = int(os.environ["EDR_MAX_SEARCH"])
        except ValueError:
            print("error: EDR_MAX_SEARCH must be an integer", file=sys.stderr)
            return EXIT_PARSE
    req = CommandRequest(
        command=args.command,
        ring=getattr(args, "ring", ""),
        payload=getattr(args, "input", None),
        row=getattr(args, "row", None),
        d=getattr(args, "d", None),
        property=getattr(args, "property", None),
        bound=bound,
        verify=args.verify,
        output=args.output,
    )
    code, text = dispatch(req)
    if code == EXIT_OK:
        print(text)
    else:
        print(text, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
