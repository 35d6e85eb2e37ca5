"""Byte-identity of ``edrkit.cli.dispatch`` documents between two trees.

Hashes the exit code and document of every request of the four benchmark
workloads (seeds 1-3, json and pretty output; ``bench/workloads.py`` builds
them) and of a fuzz corpus that ``corpus()`` builds from a fixed seed.  The
corpus covers every ring kind of the registry, every command and the
error exits:

    python3 tools/parity.py                      # hash this tree, print a digest
    python3 tools/parity.py --against HEAD~1     # list each request that differs
    python3 tools/parity.py --against a6720cb --only corpus --limit 500

``--against <rev>`` extracts the ``src`` of <rev> with ``git archive`` into a
temporary directory, runs the same requests on it and on this tree, each in
a fresh interpreter, and prints one line per request whose exit code or
document differs; it exits 1 if any does.  A request gets the time limit of
its workload (10 s in the corpus) and is recorded as a timeout past it.
Standard library and local git only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import signal
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
OUTPUTS = ("json", "pretty")
CORPUS_SIZE = 3200
CORPUS_TIMEOUT_S = 10.0

# -- the requests -------------------------------------------------------------


def workload_requests() -> list[dict]:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    out = []
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            for i, r in enumerate(workload.build(seed)):
                for output in OUTPUTS:
                    out.append({"id": f"{name}/{seed}/{i}/{output}", "label": r.label,
                                "command": r.command, "ring": r.ring, "payload": r.payload,
                                "property": r.property, "output": output,
                                "timeout": workload.time_limit_s})
    return out


_FINITE = ["zmod:2", "zmod:12", "product:zmod:2,zmod:3", "text:zmod:4,self"]
_INFINITE = ["z", "gfpoly:5", "text:z,q", "series:1", "series:4", "text:z,self"]
_RINGS = ["z", "zmod:2", "zmod:360", "zmod:1000003", "gfpoly:2", "gfpoly:5",
          "product:zmod:4,z", "product:zmod:360,gfpoly:5,text:z,q", "product:series:2,z",
          "product:text:z,q,series:4", "text:zmod:4,self", "text:z,self"]
# the rings whose documents a change to the series class could move, drawn
# more often than the rest
_SERIES = ["text:z,q", "series:1", "series:2", "series:4", "series:8", "series"]
_BAD_RINGS = ["", "q", "zmod", "zmod:1", "zmod:x", "gfpoly:4", "gfpoly:", "series:0",
              "series:True", "series:-1", "series:1,", "text:z,r", "text:zmod:4,q",
              "product:", "product:z,", "text:z", "z z", "series:1:2"]
_PROPERTIES = ["stable-range-1", "clean", "adequate-element", "locally-stable",
               "neat-range-1"]


def _rational(rng: random.Random):
    q = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 9)))
    return int(q) if q.denominator == 1 else str(q)


def _element(rng: random.Random, spec: str):
    """A JSON element of the ring spec, zero drawn often."""
    if spec.startswith("product:"):
        return [_element(rng, f) for f in _factors(spec[8:])]
    if spec.startswith("text:") and spec.endswith(",self"):
        base = spec[5:-5]
        return [_element(rng, base), _element(rng, base)]
    if spec == "text:z,q":
        return [rng.choice((0, 0, 1, -1, rng.randint(-12, 12))), _rational(rng)]
    if spec.startswith("series"):
        k = int(spec[7:] or 8)
        obj = {}
        if rng.random() < 0.9:
            obj["constant"] = rng.choice((0, 0, 1, -1, rng.randint(-12, 12)))
        if rng.random() < 0.85:
            obj["coeffs"] = [rng.choice((0, _rational(rng))) for _ in range(rng.randint(0, k + 1))]
        return obj
    if spec.startswith("gfpoly:"):
        p = int(spec[7:])
        return [rng.randrange(p) for _ in range(rng.randint(0, 3))]
    if spec.startswith("zmod:"):
        return rng.randrange(-5, int(spec[5:]) + 5)
    return rng.choice((0, 1, -1, rng.randint(-30, 30), rng.randint(-30, 30)))


def _factors(args: str) -> list[str]:
    """The factor specs of a product's argument list (no nested products)."""
    parts, out = args.split(","), []
    while parts:
        head = parts.pop(0)
        out.append(f"{head},{parts.pop(0)}" if head.startswith("text:") else head)
    return out


def _zero(spec: str):
    if spec.startswith("product:"):
        return [_zero(f) for f in _factors(spec[8:])]
    if spec.startswith("text:"):
        return [_zero(spec[5:-5]) if spec.endswith(",self") else 0, 0]
    if spec.startswith("series"):
        return {"constant": 0}
    return [] if spec.startswith("gfpoly:") else 0


def _grid(rows) -> str:
    return "\n".join(" ".join(json.dumps(v, separators=(",", ":")) for v in row) for row in rows)


def _request(rng: random.Random, spec: str) -> dict:
    roll = rng.random()
    small = spec in ("series:8", "series", "product:text:z,q,series:4")
    if roll < 0.5:
        m, n = rng.randint(1, 3 if small else 4), rng.randint(1, 3 if small else 4)
        rows = [[_element(rng, spec) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.1:
            return {"command": "snf", "ring": spec, "payload": _grid(rows)}
        doc = {"rows": rows}
        if rng.random() < 0.05:
            doc["ring"] = rng.choice((spec, "z"))
        return {"command": "snf", "ring": spec, "payload": json.dumps(doc)}
    if roll < 0.75:
        a, b, c = (_element(rng, spec) for _ in range(3))
        top = _zero(spec) if rng.random() < 0.9 else _element(rng, spec)
        return {"command": "reduce2x2", "ring": spec,
                "payload": json.dumps({"rows": [[a, top], [b, c]]})}
    if roll < 0.95:
        doc = {"row": [_element(rng, spec) for _ in range(rng.randint(1, 4))]}
        if rng.random() < 0.5:
            doc["d"] = _element(rng, spec)
        return {"command": "complete", "ring": spec, "payload": json.dumps(doc)}
    return {"command": "check", "ring": spec, "property": rng.choice(_PROPERTIES)}


def _error_request(rng: random.Random) -> dict:
    spec = rng.choice(_SERIES + ["z", "gfpoly:5", "product:zmod:4,z"])
    kind = rng.randrange(9)
    if kind == 0:
        return {"command": "snf", "ring": rng.choice(_BAD_RINGS), "payload": '{"rows":[[1]]}'}
    if kind == 1:
        return {"command": "snf", "ring": spec,
                "payload": rng.choice(['{"rows":', '{"rows":[]}', '{"rows":[[]]}', "",
                                       '{"rows":[[1],[2,3]]}', '{"cols":[[1]]}'])}
    if kind == 2:
        bad = rng.choice([True, None, 1.5, "x", [], [1], [1, 2, 3], {"constant": "1/2"},
                          {"constant": 1, "coeffs": "1"}, {"coeffs": ["1/0"]},
                          {"constant": 1, "other": 2}, [1, "1/0"], [True, 1], ["a", 1],
                          {"constant": True}, {"coeffs": [True]}, [1, [1]]])
        return {"command": rng.choice(("snf", "reduce2x2")), "ring": spec,
                "payload": json.dumps({"rows": [[bad, _element(rng, spec)],
                                                [_element(rng, spec), _element(rng, spec)]]})}
    if kind == 3:
        return {"command": "complete", "ring": spec,
                "payload": rng.choice(['{"d": 1}', "[1, 2]", '{"row": [', None])}
    if kind == 4:
        return {"command": "check", "ring": spec, "property": rng.choice(("bogus", None))}
    if kind == 5:
        return {"command": rng.choice(("bogus", "snf")), "ring": spec, "payload": None}
    if kind == 6:  # reduce2x2 off its shape
        rows = [[_element(rng, spec) for _ in range(rng.choice((1, 2, 3)))]
                for _ in range(rng.choice((1, 2, 3)))]
        return {"command": "reduce2x2", "ring": spec, "payload": json.dumps({"rows": rows})}
    if kind == 7:  # a row of units and zeros, or one of zeros, with a target
        row = [rng.choice((_zero(spec), _element(rng, spec))) for _ in range(rng.randint(2, 3))]
        return {"command": "complete", "ring": spec,
                "payload": json.dumps({"row": row, "d": _zero(spec)})}
    return {"command": "complete", "ring": rng.choice(("z", "zmod:360")),
            "row": ",".join(str(rng.randint(-9, 9)) for _ in range(rng.randint(1, 4))),
            "d": rng.choice((None, "2", "x", "0"))}


def corpus(size: int = CORPUS_SIZE) -> list[dict]:
    """The fuzz corpus: size requests drawn from one fixed seed."""
    rng = random.Random("edrkit parity corpus")
    out = [{"command": "rings"}, {"command": "rings", "output": "pretty"}]
    out += [{"command": "check", "ring": spec, "property": prop}
            for spec in _FINITE + _INFINITE for prop in _PROPERTIES]
    while len(out) < size:
        roll = rng.random()
        if roll < 0.1:
            req = _error_request(rng)
        else:
            req = _request(rng, rng.choice(_SERIES) if roll < 0.7 else rng.choice(_RINGS))
        req.setdefault("output", rng.choice(OUTPUTS))
        if rng.random() < 0.1:
            req["verify"] = False
        out.append(req)
    out = out[:size]
    for i, req in enumerate(out):
        req["id"] = f"corpus/{i}"
        req["label"] = f"{req['command']} {req.get('ring', '')}".strip()
        req["timeout"] = CORPUS_TIMEOUT_S
    return out


# -- running them ------------------------------------------------------------------


class _Timeout(BaseException):
    """Raised by SIGALRM at a request's time limit; nothing in edrkit catches it."""


def _on_alarm(signum, frame):
    raise _Timeout()


def run_requests(src: str, requests: list[dict]) -> dict:
    """{id: [exit code, sha256 of the document]} from edrkit in src; a request
    that times out or raises gets a string in place of the pair."""
    sys.path.insert(0, src)
    import edrkit.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"error: imported edrkit from {cli.__file__}, not from {src}")
    signal.signal(signal.SIGALRM, _on_alarm)
    fields = ("command", "ring", "payload", "row", "d", "property", "verify", "output")
    seen, out = {}, {}
    for req in requests:
        key = json.dumps([req.get(f) for f in fields])
        if key not in seen:
            args = {f: req[f] for f in fields if req.get(f) is not None}
            signal.setitimer(signal.ITIMER_REAL, req["timeout"])
            try:
                code, text = cli.dispatch(cli.CommandRequest(**args))
                seen[key] = [code, hashlib.sha256(text.encode()).hexdigest()]
            except _Timeout:
                seen[key] = "timeout"
            except Exception as exc:  # recorded, so that a new crash is a difference
                seen[key] = f"raised {type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        out[req["id"]] = seen[key]
    return out


def _spawn(src: Path, requests: list[dict]) -> subprocess.Popen:
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--run", str(src)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(requests))
    proc.stdin.close()
    return proc


def _collect(proc: subprocess.Popen) -> dict:
    text = proc.stdout.read()
    if proc.wait() != 0:
        sys.exit(f"error: the runner exited with {proc.returncode}")
    return json.loads(text)


def _extract(rev: str, dest: Path) -> Path:
    """The src directory of rev, written under dest with git archive."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return dest / "src"


def _digest(results: dict) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="a git revision to compare with")
    parser.add_argument("--only", choices=("workloads", "corpus"))
    parser.add_argument("--limit", type=int, help="the first N corpus requests only")
    parser.add_argument("--run", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        json.dump(run_requests(args.run, json.load(sys.stdin)), sys.stdout)
        return 0

    requests = [] if args.only == "corpus" else workload_requests()
    if args.only != "workloads":
        requests += corpus(args.limit if args.limit is not None else CORPUS_SIZE)
    if not args.against:
        results = _collect(_spawn(ROOT / "src", requests))
        print(f"{len(results)} requests, digest {_digest(results)}")
        return 0
    with tempfile.TemporaryDirectory(prefix="edrkit-parity-") as tmp:
        theirs = _spawn(_extract(args.against, Path(tmp)), requests)
        ours = _collect(_spawn(ROOT / "src", requests))
        theirs = _collect(theirs)
    labels = {r["id"]: r["label"] for r in requests}
    differ = [i for i in ours if ours[i] != theirs[i]]
    for i in differ:
        old, new = theirs[i], ours[i]
        if isinstance(old, list) and isinstance(new, list):  # two [exit code, hash] pairs
            what = f"exit {old[0]} -> {new[0]}" if old[0] != new[0] else "document differs"
        else:
            what = f"{old} -> {new}"
        print(f"{i} ({labels[i]}): {what}")
    print(f"{len(ours)} requests against {args.against}: {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
