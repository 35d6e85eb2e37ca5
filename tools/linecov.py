"""Line coverage of src/edrkit without the coverage package.

Runs the tier-1 tests in-process under a ``sys.settrace`` line tracer and
prints how many function-body lines of ``src/edrkit/*.py`` ran:

    python3 tools/linecov.py            # the count only
    python3 tools/linecov.py --missing  # also each line that did not run

A function-body line is the first line of a statement inside a function
or method, docstrings excluded.  Tracing makes the suite several times slower.
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "edrkit"


def body_lines(path: pathlib.Path) -> set[int]:
    tree = ast.parse(path.read_text(), str(path))
    lines, docstrings = set(), set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = fn.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            docstrings.add(first.lineno)
        lines.update(node.lineno for node in ast.walk(fn)
                     if isinstance(node, ast.stmt) and node is not fn)
    return lines - docstrings


def main(argv: list[str]) -> int:
    missing = "--missing" in argv
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix, ran = str(SRC), set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code.co_filename.startswith(prefix) else None)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    covered = total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = body_lines(path)
        hit = {line for line in lines if (str(path), line) in ran}
        covered, total = covered + len(hit), total + len(lines)
        if missing:
            for line in sorted(lines - hit):
                print(f"{path.relative_to(ROOT)}:{line}")
    print(f"function-body lines run: {covered} of {total}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
