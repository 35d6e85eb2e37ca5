"""Record a ``BENCH_<n>.json`` at the root of the checkout from benchmark runs.

Runs ``python3 bench/run.py --workload <w> --seed <s> --seconds <t>`` in a
subprocess for each workload and seed, parses each run's ``#`` header,
calibration line and last JSON line, runs a dense-Z probe, and writes the
next free ``BENCH_<n>.json`` with every run and the median of each metric
over the seeds:

    python3 tools/bench_record.py                        # all workloads, seeds 1-3, 8 s
    python3 tools/bench_record.py --workloads snf-ring-mix --seeds 4 5 --seconds 8
    python3 tools/bench_record.py --compare              # ratios to the previous file
    python3 tools/bench_record.py --parent ../parent     # paired runs against a checkout

With ``--parent``, each run has a twin in the other checkout, taken right
before or after it in turns, and the file holds both sides (the other one
under ``"parent"``) with their ratios printed.

The dense-Z probe sends ``snf --ring z`` requests for n x n matrices (n =
24, 48, 64, 80, 96, entries in [-50, 50], ``random.Random(1)`` per size)
through ``edrkit.cli.dispatch`` in a fresh interpreter, so ``snf``
verifies each result.  It stores the exit code and dispatch time of each
size, then the output bytes and the peak entry bits of D, P, Q, Pinv and
Qinv where the request answers, or the error line where it is refused
(past the int/str digit limit, say), and the largest size answered.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("snf-z-dense", "snf-ring-mix", "complete-rows", "check-finite")
PROBE_SIZES = (24, 48, 64, 80, 96)


def parse_run(text: str) -> dict:
    """The fields of one ``bench/run.py --workload`` output."""
    lines = text.strip().splitlines()
    run = json.loads(lines[-1])
    for line in lines:
        if m := re.match(r"# edrkit benchmark: workload (\S+), seed (\d+), ([\d.]+) s", line):
            run.update(workload=m[1], seed=int(m[2]), seconds=float(m[3]))
        elif m := re.match(r"# python (\S+), commit (\S+)", line):
            run.update(python=m[1], commit=m[2])
        elif m := re.match(r"# source lines: (.*) \(total (\d+)\)", line):
            run["source_lines"] = {k: int(v) for k, v in
                                   (part.rsplit(" ", 1) for part in m[1].split(", "))}
            run["source_lines_total"] = int(m[2])
        elif m := re.match(r"calibration: median ([\d.]+) ms", line):
            run["calibration_median_ms"] = float(m[1])
    run["metrics"] = {k: v["value"] for k, v in run["metrics"].items()}
    return run


def bench_run(workload: str, seed: int, seconds: float, root: Path = ROOT) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"error: bench/run.py --workload {workload} --seed {seed} in {root} exited "
                 f"with code {proc.returncode}\n{proc.stderr}")
    return parse_run(proc.stdout)


def medians(runs: list[dict]) -> dict:
    """workload -> metric -> median over that workload's runs."""
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        mine = [r["metrics"] for r in runs if r["workload"] == w]
        out[w] = {k: statistics.median(m[k] for m in mine) for k in mine[0]}
    return out


def probe_requests(root: str, sizes) -> list[dict]:
    """The dense-Z probe on the edrkit of root/src, in this process."""
    sys.path.insert(0, str(Path(root) / "src"))
    from edrkit.cli import CommandRequest, dispatch

    out = []
    for n in sizes:
        rng = random.Random(1)
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        req = CommandRequest("snf", ring="z", payload=json.dumps({"rows": rows}))
        t0 = perf_counter()
        code, text = dispatch(req)
        entry = {"n": n, "exit_code": code, "dispatch_s": perf_counter() - t0}
        if code == 0:
            doc = json.loads(text)
            entry.update(verified=doc["verified"], output_bytes=len(text), peak_bits={
                name: max(abs(v).bit_length() for row in doc[name] for v in row)
                for name in ("D", "P", "Q", "Pinv", "Qinv")})
        else:
            entry["error"] = text.splitlines()[0]
        out.append(entry)
    return out


def dense_z_probe(root: Path = ROOT, sizes=PROBE_SIZES) -> list[dict]:
    """The dense-Z probe run in a fresh interpreter, which imports only root's edrkit."""
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"from bench_record import probe_requests; "
            f"print(json.dumps(probe_requests({str(root)!r}, {list(sizes)!r})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"error: the dense-Z probe in {root} exited with code {proc.returncode}\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout)


def largest_answered(probe: list[dict]) -> int | None:
    """The largest probe size whose request exits 0 with a verified certificate."""
    return max((p["n"] for p in probe if p["exit_code"] == 0 and p["verified"]), default=None)


def bench_files(root: Path = ROOT) -> list[Path]:
    found = [(int(m[1]), p) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return [p for _, p in sorted(found)]


def compare(new: dict, old: dict) -> list[str]:
    """One line per metric found in both records: old, new and new/old."""
    lines = []
    pairs = [(f"{w}/{k}", old["median"].get(w, {}).get(k), v)
             for w, ms in new["median"].items() for k, v in ms.items()]
    old_probe = {p["n"]: p for p in old.get("dense_z", [])}
    for p in new.get("dense_z", []):
        q = old_probe.get(p["n"], {})
        pairs += [(f"dense-z/{p['n']}/{k}", q.get(k), p[k])
                  for k in ("dispatch_s", "output_bytes") if k in p]
        pairs += [(f"dense-z/{p['n']}/bits_{k}", q.get("peak_bits", {}).get(k), v)
                  for k, v in p.get("peak_bits", {}).items()]
    for name, before, after in pairs:
        if before:
            lines.append(f"{name:48s} {before:>14.6g} {after:>14.6g} {after / before:8.3f}x")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--compare", action="store_true",
                        help="print each metric's ratio to the previous BENCH file")
    parser.add_argument("--parent", type=Path,
                        help="a second checkout to pair every run and the probe with")
    args = parser.parse_args(argv)

    runs, parent_runs = [], []
    for w in args.workloads:
        for i, s in enumerate(args.seeds):
            # a pair's two runs go in turns, so that drift does not favour one side
            sides = [(runs, ROOT)] + ([(parent_runs, args.parent)] if args.parent else [])
            for out, root in sides[::-1] if i % 2 else sides:
                out.append(bench_run(w, s, args.seconds, root))
                print(f"{root.name} {w} seed {s}: {out[-1]['metrics']}", file=sys.stderr,
                      flush=True)
    first = runs[0]
    shared = ("python", "commit", "source_lines", "source_lines_total", "seconds")
    tests_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "tests").glob("*.py"))
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=ROOT).returncode
    record = {
        "header": {
            "commit": first["commit"], "src_differs_from_commit": dirty != 0,
            "python": first["python"], "source_lines": first["source_lines"],
            "source_lines_total": first["source_lines_total"], "tests_lines": tests_lines,
            "seeds": args.seeds, "seconds": args.seconds,
            "calibration_median_ms": {w: statistics.median(
                r["calibration_median_ms"] for r in runs if r["workload"] == w)
                for w in args.workloads},
        },
        "runs": [{k: v for k, v in r.items() if k not in shared} for r in runs],
        "median": medians(runs),
        "dense_z": dense_z_probe(),
    }
    record["dense_z_largest_n"] = largest_answered(record["dense_z"])
    if args.parent:
        probe = dense_z_probe(args.parent)
        record["parent"] = {
            "commit": parent_runs[0]["commit"], "source_lines_total":
            parent_runs[0]["source_lines_total"],
            "runs": [{k: v for k, v in r.items() if k not in shared} for r in parent_runs],
            "median": medians(parent_runs), "dense_z": probe,
            "dense_z_largest_n": largest_answered(probe)}
    previous = bench_files()
    index = int(previous[-1].stem.split("_")[1]) + 1 if previous else 0
    path = ROOT / f"BENCH_{index}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    if args.parent:
        print(f"against {args.parent}: metric, parent, change, change/parent")
        print("\n".join(compare(record, record["parent"])))
    if args.compare:
        if not previous:
            print("no earlier BENCH file to compare with")
        else:
            print(f"against {previous[-1].name}: metric, old, new, new/old")
            print("\n".join(compare(record, json.loads(previous[-1].read_text()))))
    return 0 if all(r["correct"] and not r["failed"] for r in runs + parent_runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
