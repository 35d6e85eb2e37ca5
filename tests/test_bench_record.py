"""tools/bench_record.py: parsing a captured bench/run.py output, medians, comparisons."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# the standard output of `python3 bench/run.py --workload check-finite --seed 1 --seconds 0.5`
CAPTURED = """\
# edrkit benchmark: workload check-finite, seed 1, 0.5 s, trace 0
# python 3.11.7, commit ec779e2bf3f6ab0020b941114c322a68d4786cf0
# source lines: __init__ 76, cli 304, completion 258, exhaustive 654, matrices 696, registry 289, rings 1838, stability 376 (total 4491)
requests: 204 attempted, 0 failed (6 rounds of 34 in 0.54 s of wall time)
calibration: median 13.43 ms, least 13.02 ms; latencies scaled to 10 ms
metrics:
  setup_s                                              0.135913 s
  requests_per_s                                        82828.4 req/s
  request_p50_ms                                      0.0084047 ms
  output_bytes_per_req                                  41.0882 bytes
  peak_rss_mib                                          23.0312 MiB
{"correct": true, "attempted": 204, "failed": 0, "metrics": {"setup_s": {"value": 0.1359128982140899, "unit": "s"}, "requests_per_s": {"value": 82828.41061750404, "unit": "req/s"}, "request_p50_ms": {"value": 0.0084046990124266, "unit": "ms"}, "output_bytes_per_req": {"value": 41.088235294117645, "unit": "bytes"}, "peak_rss_mib": {"value": 23.03125, "unit": "MiB"}}}
"""


def test_parse_run_reads_the_header_calibration_and_last_line():
    run = bench_record.parse_run(CAPTURED)
    assert (run["workload"], run["seed"], run["seconds"]) == ("check-finite", 1, 0.5)
    assert run["python"] == "3.11.7"
    assert run["commit"] == "ec779e2bf3f6ab0020b941114c322a68d4786cf0"
    assert run["source_lines"]["rings"] == 1838 and len(run["source_lines"]) == 8
    assert run["source_lines_total"] == 4491 == sum(run["source_lines"].values())
    assert run["calibration_median_ms"] == 13.43
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 204, 0)
    assert run["metrics"]["requests_per_s"] == pytest.approx(82828.41061750404)
    assert set(run["metrics"]) == {"setup_s", "requests_per_s", "request_p50_ms",
                                   "output_bytes_per_req", "peak_rss_mib"}


def test_medians_compare_and_the_next_free_file(tmp_path):
    runs = []
    for seed, rate in ((1, 10.0), (2, 30.0), (3, 20.0)):
        run = bench_record.parse_run(CAPTURED.replace("seed 1,", f"seed {seed},"))
        run["metrics"]["requests_per_s"] = rate
        runs.append(run)
    median = bench_record.medians(runs)
    assert median["check-finite"]["requests_per_s"] == 20.0
    old = {"median": {"check-finite": {"requests_per_s": 10.0}}}
    lines = bench_record.compare({"median": median}, old)
    assert len(lines) == 1 and lines[0].split()[0] == "check-finite/requests_per_s"
    assert lines[0].endswith("2.000x")
    for name in ("BENCH_0.json", "BENCH_2.json", "BENCH_10.json", "BENCH_x.json"):
        (tmp_path / name).write_text(json.dumps(old))
    assert [p.name for p in bench_record.bench_files(tmp_path)] == [
        "BENCH_0.json", "BENCH_2.json", "BENCH_10.json"]


def test_the_dense_probe_goes_through_dispatch_in_a_fresh_interpreter():
    probe = bench_record.dense_z_probe(bench_record.ROOT, sizes=(4, 6))
    assert [p["n"] for p in probe] == [4, 6]
    for p in probe:
        assert (p["exit_code"], p["verified"]) == (0, True) and p["dispatch_s"] > 0
        assert set(p["peak_bits"]) == {"D", "P", "Q", "Pinv", "Qinv"}
        assert p["output_bytes"] > 0 and "error" not in p
    assert bench_record.largest_answered(probe) == 6


def test_a_refused_probe_size_is_an_exit_code_not_a_time():
    probe = [{"n": 80, "exit_code": 0, "dispatch_s": 4.0, "verified": True, "output_bytes": 9,
              "peak_bits": {"D": 587}},
             {"n": 96, "exit_code": 1, "dispatch_s": 11.0,
              "error": "error: the result holds an integer past Python's "
                       "4300-digit int/str limit"}]
    assert bench_record.largest_answered(probe) == 80
    assert bench_record.largest_answered(probe[1:]) is None
    # the compare lines read the probe fields that both records hold
    old = {"median": {}, "dense_z": [{"n": 80, "reduce_s": 2.0, "verify_s": 1.0,
                                      "peak_bits": {"D": 587}}, probe[1]]}
    new = {"median": {}, "dense_z": [dict(probe[0], dispatch_s=1.0, output_bytes=3),
                                     dict(probe[0], n=96)]}
    lines = bench_record.compare(new, old)
    assert [line.split()[0] for line in lines] == ["dense-z/80/bits_D", "dense-z/96/dispatch_s"]
    assert lines[1].endswith("0.364x")
