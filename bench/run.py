"""Benchmark edrkit end to end through ``edrkit.cli.dispatch``.

Usage, from the root of a checkout:

    python3 bench/run.py                          # every workload, one after another
    python3 bench/run.py --workload snf-z-dense --seed 3 --seconds 15 --trace 0

One process runs one workload, single-threaded, as a closed loop with one
client: it sends the next request when the previous one has returned, and
repeats whole rounds of the workload's request list until ``--seconds`` have
passed (by default ``run_seconds`` of BENCHMARK.json).  Latencies are
scaled by calibrations timed every 0.1 s or so, because the machine is
shared (see README.md).  Every output is checked by the independent oracles
in ``oracle.py`` after the timed loop.  ``--trace 1`` runs the same loop with
timed, counted and untraced rounds in turn and reports the per-layer metrics
instead of the end-to-end ones.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from arith import PrimeFieldPolys, det_integer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
MIN_ROUNDS = 3
# a traced run needs a warm timed round (the fourth) to set against untraced ones
MIN_TRACED_ROUNDS = 4
# traced runs cycle through these: per-layer times come from rounds that
# count nothing, and call counts and bit sizes from rounds that time nothing
TRACE_MODES = ("time", "count", None)
# Latencies are scaled to a machine on which calibrate() takes this long.
REFERENCE_CALIBRATION_S = 0.010
# Least wall time between two calibrations inside a round
CALIBRATE_EVERY_S = 0.1

END_TO_END_UNITS = {"setup_s": "s", "requests_per_s": "req/s", "request_p50_ms": "ms",
                    "output_bytes_per_req": "bytes", "peak_rss_mib": "MiB"}


class RequestTimeout(BaseException):
    """Raised by SIGALRM when a request reaches the workload's time limit.

    A BaseException, so that no handler inside the program can swallow it.
    """


def _on_alarm(signum, frame):
    raise RequestTimeout()


def import_cli():
    """edrkit.cli from this checkout's src/, never from an installed copy."""
    package = SRC / "edrkit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run the benchmark from a checkout of edrkit")
    sys.path.insert(0, str(SRC))
    import edrkit.cli as cli
    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported edrkit from {cli.__file__}, not from {package}")
    return cli


def set_up(workload: str, seed: int):
    """Everything before the first timed request: import edrkit, build the payloads."""
    cli = import_cli()
    reqs = WORKLOADS[workload].build(seed)
    commands = [cli.CommandRequest(command=r.command, ring=r.ring, payload=r.payload,
                                   property=r.property) for r in reqs]
    return cli, reqs, commands


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Times from starting a fresh interpreter to the end of set_up() in it,
    each scaled by the mean of calibrations taken just before and after it."""
    times = []
    for _ in range(probes):
        before = calibrate()
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            sys.exit(f"error: set-up probe exited with code {code}")
        times.append((t1 - t0) * REFERENCE_CALIBRATION_S * 2 / (before + calibrate()))
    return times


def attempt(cli, command, limit: float):
    """(latency in s, output text or None, failure reason or None) for one request."""
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            code, text = cli.dispatch(command)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        return perf_counter() - t0, None, f"time limit of {limit:g} s reached"
    except Exception as exc:  # any exception escaping dispatch is a fault to count
        message = str(exc).splitlines()[0][:90] if str(exc) else ""
        return perf_counter() - t0, None, f"{type(exc).__name__} escaped dispatch: {message}"
    elapsed = perf_counter() - t0
    if code != 0:
        return elapsed, None, f"exit code {code}: {text.splitlines()[0][:90]}"
    return elapsed, text, None


_CALIBRATION_MATRIX = [[(i * 7919 + j * 104729) % 201 - 100 for j in range(9)] for i in range(9)]


def calibrate() -> float:
    """Least of three timings of a fixed slice of the benchmark's own exact arithmetic.

    Other tenants of a shared machine slow it by 20-80% for spells of
    seconds to minutes.  The slice is pure-Python integer, polynomial and
    dict work like the program's, so its time tracks the machine's speed
    and does not depend on the program.
    """
    gf = PrimeFieldPolys(5)
    times = []
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(10):
            det_integer(_CALIBRATION_MATRIX)
        f = (1, 2, 3, 4)
        for k in range(600):
            f = gf.divmod(gf.mul(f, (k % 5, 1, 2, 3)), (1, 1, 1))[1] or (1,)
        table = {}
        for i in range(30000):
            table[(i & 255, i % 7)] = i * i
        times.append(perf_counter() - t0)
    return min(times)


def run_loop(cli, commands, seconds: float, limit: float, tracer=None):
    """Whole rounds, at least MIN_ROUNDS, until `seconds` have passed.

    Each round starts from a collected heap.  A calibration is taken at the
    start and end of each round and before any request that comes
    CALIBRATE_EVERY_S or more after the last one; a request's latency is
    scaled by the mean of the two calibrations around it.  With a tracer,
    rounds take the modes of TRACE_MODES in turn.  Returns the round-1
    outcome of each request, failures counted by reason, how many later
    rounds repeated each request's round-1 output, every latency as (round,
    trace mode, seconds scaled to the reference machine) per request, every
    calibration, the round count and the wall time.  A request stopped by
    the time limit has no latency: its time is the limit, not the program's,
    and it is counted in the failures.
    """
    first = []                 # round 1: (text, reason) per request
    reasons = Counter()        # failures seen in the loop, by reason
    later_ok = Counter()       # request index -> later rounds that matched round 1
    latencies = [[] for _ in commands]
    calibrations = []
    start = perf_counter()
    rounds = 0
    min_rounds = MIN_ROUNDS if tracer is None else MIN_TRACED_ROUNDS
    pending = []               # (request index, raw latency) since the last calibration

    def settle(mode):
        calibrations.append(calibrate())
        scale = REFERENCE_CALIBRATION_S * 2 / (calibrations[-2] + calibrations[-1])
        for i, elapsed in pending:
            latencies[i].append((rounds, mode, elapsed * scale))
        pending.clear()
        return perf_counter()

    while rounds < min_rounds or perf_counter() - start < seconds:
        gc.collect()
        calibrations.append(calibrate())
        calibrated = perf_counter()
        mode = None if tracer is None else TRACE_MODES[rounds % len(TRACE_MODES)]
        if mode is not None:
            tracer.install(mode)
        for i, command in enumerate(commands):
            if pending and perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                calibrated = settle(mode)
            elapsed, text, reason = attempt(cli, command, limit)
            if reason is None or not reason.startswith("time limit"):
                pending.append((i, elapsed))
            if mode is not None and reason is not None:
                tracer.close_open_spans()
            if rounds == 0:
                first.append((text, reason))
            elif (text, reason) == first[i]:
                if reason is None:
                    later_ok[i] += 1
                    continue
            elif reason is None:
                reason = "output differs from the first round"
            if reason is not None:
                reasons[reason] += 1
        settle(mode)
        if mode is not None:
            tracer.uninstall()
        rounds += 1
    return first, reasons, later_ok, latencies, calibrations, rounds, perf_counter() - start


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def header(args) -> list[str]:
    counts = {p.stem: len(p.read_text().splitlines())
              for p in sorted((SRC / "edrkit").glob("*.py"))}
    lines = ", ".join(f"{k} {v}" for k, v in counts.items())
    return [f"# edrkit benchmark: workload {args.workload}, seed {args.seed}, "
            f"{args.seconds} s, trace {args.trace}",
            f"# python {platform.python_version()}, commit {git_commit()}",
            f"# source lines: {lines} (total {sum(counts.values())})"]


def run_workload(args) -> int:
    cli, reqs, commands = set_up(args.workload, args.seed)
    for line in header(args):
        print(line, flush=True)
    workload = WORKLOADS[args.workload]
    # set-up probes before and after the loop, so slow and quick spells of a
    # shared machine weigh alike in their median
    setup_times = measure_setup(args.workload, args.seed, SETUP_PROBES // 2)
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    first, reasons, later_ok, latencies, calibrations, rounds, wall = run_loop(
        cli, commands, args.seconds, workload.time_limit_s, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_times += measure_setup(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)

    import oracle
    correct = True
    out_bytes = []
    for i, ((text, reason), req) in enumerate(zip(first, reqs)):
        if reason is not None:
            continue  # counted in the loop
        mismatch = oracle.check(req, json.loads(text))
        if mismatch is not None:
            correct = False
            reasons[f"oracle: {req.label}: {mismatch}"] += 1 + later_ok[i]
        else:
            out_bytes += [len(text)] * (1 + later_ok[i])
    if any(r.startswith("output differs") for r in reasons):
        correct = False

    attempted = rounds * len(commands)
    failed = sum(reasons.values())
    if args.trace:
        # warm timed rounds against untraced ones: round 0 alone ran with cold caches
        timed = [min(t for r, m, t in lat if m == "time" and r > 0) for lat in latencies if lat]
        untraced = [min(t for _, m, t in lat if m is None) for lat in latencies if lat]
        overhead = statistics.mean(timed) - statistics.mean(untraced)
        in_mode = Counter(TRACE_MODES[r % len(TRACE_MODES)] for r in range(rounds))
        metrics = tracer.metrics(in_mode["time"] * len(commands),
                                 in_mode["count"] * len(commands), overhead)
    else:
        # medians over the rounds set aside the rounds that a slow spell of
        # the shared machine stretched beyond what the scaling corrects
        round_s = [0.0] * rounds
        for lat in latencies:
            for r, _, t in lat:
                round_s[r] += t
        typical = [statistics.median(t for _, _, t in lat) for lat in latencies if lat]
        values = {
            "setup_s": statistics.median(setup_times),
            "requests_per_s": len(out_bytes) / rounds / statistics.median(round_s),
            "request_p50_ms": statistics.median(typical) * 1000,
            # every output is ASCII JSON, so characters are bytes
            "output_bytes_per_req": statistics.mean(out_bytes) if out_bytes else 0,
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    print(f"requests: {attempted} attempted, {failed} failed "
          f"({rounds} rounds of {len(commands)} in {wall:.2f} s of wall time)")
    print(f"calibration: median {statistics.median(calibrations) * 1000:.2f} ms, "
          f"least {min(calibrations) * 1000:.2f} ms; latencies scaled to "
          f"{REFERENCE_CALIBRATION_S * 1000:g} ms")
    for reason, n in sorted(reasons.items()):
        print(f"  failed {n}x: {reason}")
    print("metrics:")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so the program's caches start empty."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        set_up(args.workload, args.seed)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
