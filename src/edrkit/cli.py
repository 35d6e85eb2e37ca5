"""Command-line front end: snf, reduce2x2, complete, check, rings.

Exit codes: 0 success, 1 precondition violation (e.g. a non-unimodular
reduce2x2 input, a row that does not generate dR) or a result holding an
integer past Python's int/str digit limit, 2 parse error (bad ring
expression, bad JSON, ragged grid, an integer literal past that limit).  JSON output is canonical (sorted keys,
fixed separators) so identical requests produce byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .completion import complete_row, complete_unimodular
from .matrices import (
    RingMatrix,
    determinant,
    diagonal_reduce,
    reduce_2x2,
    verify_reduction,
)
from .registry import (
    ElementSyntaxError,
    ExpressionError,
    format_value,
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
    verify: bool = True
    output: str = "json"


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def read_matrix(path_or_inline: str, ring_spec: str) -> RingMatrix:
    """Matrix from inline JSON, a file path, or a whitespace grid of elements."""
    ring = make_ring(ring_spec)
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
        if declared is not None and declared != ring.expression():
            raise CLIParseError(
                f"matrix JSON declares ring {declared!r} but --ring gave "
                f"{ring.expression()!r}")
        try:
            return RingMatrix.from_json(obj, ring)
        except RingError as exc:
            raise CLIParseError(str(exc)) from None
    rows = []
    width = None
    for line in stripped.splitlines():
        line = line.strip()
        if not line:
            continue
        cells = [parse_element(ring, tok).value for tok in line.split()]
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise CLIParseError(f"ragged grid row {line!r}")
        rows.append(cells)
    return RingMatrix._trusted(ring, rows)


def _pretty_matrix(rows) -> str:
    cells = [[format_value(v) for v in row] for row in rows]
    widths = [max(map(len, col)) for col in zip(*cells)]
    return "\n".join(" ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)


def render(doc, mode: str) -> str:
    """Deterministic rendering of a result document: canonical JSON, or text
    formatted from the document's own entries."""
    if mode == "json":
        return _json_text(doc)
    if isinstance(doc, list):
        return "\n".join(
            f"{e['expression']}: finite={str(e['finite']).lower()} "
            f"bezout={str(e['bezoutTotal']).lower()}" for e in doc)
    if "D" in doc:
        lines = ["D:", _pretty_matrix(doc["D"]), "P:", _pretty_matrix(doc["P"]),
                 "Q:", _pretty_matrix(doc["Q"])]
        if "verified" in doc:
            lines.append(f"verified: {str(doc['verified']).lower()}")
        return "\n".join(lines)
    if "matrix" in doc:
        return "\n".join(["matrix:", _pretty_matrix(doc["matrix"]),
                          f"det: {format_value(doc['d'])}"])
    lines = [f"{doc['property']}: {'holds' if doc['holds'] else 'fails'}"]
    if "witness" in doc:
        lines.append("witness: " + _json_text(doc["witness"]))
    if "searchBound" in doc:
        lines.append(f"search bound: {doc['searchBound']}")
    return "\n".join(lines)


def _completion_payload(req: CommandRequest, ring):
    """Row and target determinant from --row/--d or a JSON --input payload."""
    if req.row is not None:
        row = [parse_element(ring, tok) for tok in req.row.split(",") if tok.strip()]
        d = parse_element(ring, req.d) if req.d is not None else None
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
    if declared is not None and declared != ring.expression():
        raise CLIParseError(
            f"completion JSON declares ring {declared!r} but --ring gave "
            f"{ring.expression()!r}")
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
        ring = make_ring(req.ring)
        if req.command in ("snf", "reduce2x2"):
            if req.payload is None:
                raise CLIParseError(f"{req.command} needs --input")
            a = read_matrix(req.payload, req.ring)
            res = (diagonal_reduce if req.command == "snf" else reduce_2x2)(a)
            doc = res.to_json(verified=verify_reduction(a, res) if req.verify else None)
            ok = doc.get("verified", True)
            return (EXIT_OK if ok else EXIT_PRECONDITION), render(doc, req.output)
        if req.command == "complete":
            row, d = _completion_payload(req, ring)
            if d is not None:
                res = complete_row(row, d)
            else:
                res = complete_unimodular(row)
            doc = res.to_json(include_trace=(req.output == "json"))
            ok = True
            if req.verify:
                # from the matrix alone (complete_row computes none): each trailing unit
                # pivot u is peeled, as row operations keep the determinant and expanding
                # along the cleared last column leaves u times the rest; then Berkowitz
                ok = determinant(res.matrix) == res.d
                doc["verified"] = ok
            return (EXIT_OK if ok else EXIT_PRECONDITION), render(doc, req.output)
        if req.command == "check":
            if req.property is None:
                raise CLIParseError("check needs --property")
            if req.property not in PROPERTIES:
                raise CLIParseError(
                    f"unknown property {req.property!r}; choose from {', '.join(PROPERTIES)}")
            verdict = check_property(ring, req.property)
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

    p_rings = sub.add_parser("rings", help="list shipped ring kinds")
    common(p_rings, ring=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    req = CommandRequest(
        command=args.command,
        ring=getattr(args, "ring", ""),
        payload=getattr(args, "input", None),
        row=getattr(args, "row", None),
        d=getattr(args, "d", None),
        property=getattr(args, "property", None),
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
