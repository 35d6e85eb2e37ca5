"""Record a ``BENCH_<n>.json`` at the root of the checkout from benchmark runs.

Runs ``python3 bench/run.py --workload <w> --seed <s> --seconds <t>`` in a
subprocess for each workload and seed, parses each run's ``#`` header,
calibration line and last JSON line, times a dense-Z probe in-process, and
writes the next free ``BENCH_<n>.json`` with every run and the median of
each metric over the seeds:

    python3 tools/bench_record.py                        # all workloads, seeds 1-3, 8 s
    python3 tools/bench_record.py --workloads snf-ring-mix --seeds 4 5 --seconds 8
    python3 tools/bench_record.py --compare              # ratios to the previous file

The dense-Z probe reduces and verifies n x n matrices over Z (n = 24, 48,
64, entries in [-50, 50], ``random.Random(1)`` per size) and stores both
times and the peak entry bits of D, P, Q, Pinv and Qinv.
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
PROBE_SIZES = (24, 48, 64)


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


def bench_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"error: bench/run.py --workload {workload} --seed {seed} exited with "
                 f"code {proc.returncode}\n{proc.stderr}")
    return parse_run(proc.stdout)


def medians(runs: list[dict]) -> dict:
    """workload -> metric -> median over that workload's runs."""
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        mine = [r["metrics"] for r in runs if r["workload"] == w]
        out[w] = {k: statistics.median(m[k] for m in mine) for k in mine[0]}
    return out


def dense_z_probe(sizes=PROBE_SIZES) -> list[dict]:
    sys.path.insert(0, str(ROOT / "src"))
    from edrkit import IntegerRing, RingMatrix, diagonal_reduce, verify_reduction

    out = []
    for n in sizes:
        rng = random.Random(1)
        a = RingMatrix(IntegerRing(), [[rng.randint(-50, 50) for _ in range(n)]
                                       for _ in range(n)])
        t0 = perf_counter()
        res = diagonal_reduce(a)
        t1 = perf_counter()
        ok = verify_reduction(a, res)
        t2 = perf_counter()
        bits = {name: max(abs(v).bit_length() for row in getattr(res, name).data for v in row)
                for name in ("D", "P", "Q", "Pinv", "Qinv")}
        out.append({"n": n, "reduce_s": t1 - t0, "verify_s": t2 - t1, "verified": ok,
                    "peak_bits": bits})
    return out


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
        pairs += [(f"dense-z/{p['n']}/{k}", q.get(k), p[k]) for k in ("reduce_s", "verify_s")]
        pairs += [(f"dense-z/{p['n']}/bits_{k}", q.get("peak_bits", {}).get(k), v)
                  for k, v in p["peak_bits"].items()]
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
    args = parser.parse_args(argv)

    runs = []
    for w in args.workloads:
        for s in args.seeds:
            runs.append(bench_run(w, s, args.seconds))
            print(f"{w} seed {s}: {runs[-1]['metrics']}", file=sys.stderr, flush=True)
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
    previous = bench_files()
    index = int(previous[-1].stem.split("_")[1]) + 1 if previous else 0
    path = ROOT / f"BENCH_{index}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    if args.compare:
        if not previous:
            print("no earlier BENCH file to compare with")
        else:
            print(f"against {previous[-1].name}: metric, old, new, new/old")
            print("\n".join(compare(record, json.loads(previous[-1].read_text()))))
    return 0 if all(r["correct"] and not r["failed"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
