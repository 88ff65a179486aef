#!/usr/bin/env python3
"""Smoke test of the HawkSet benchmark at small sizes.

Usage, from the root of a checkout:  python3 perfbench/smoke.py

For every workload it checks that a run with --trace 0 emits exactly the
end-to-end metrics of BENCHMARK.json and a run with --trace 1 exactly its
per-layer metrics, each with its unit; that the summary line carries the
figures that are not bounded metrics; and that a run whose first expected
answer is deliberately tampered with counts that op as failed, in both
"failed" and ops_failed_ratio. Takes about two minutes.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

# Small runs: one cycle each, one set-up, short batch jobs. App workloads
# keep 4000 ops: below that some injected bugs are not reached, and the
# verdict checks would fail for a reason this test is not about.
SMALL = ["--setup-reps", "1", "--batch-ops", "200"]
SUMMARY_KEYS = ("ops_failed_ratio", "false_positives", "verdict_s.tail_percentile",
                "verdict_s.samples", "cycle_walls_s", "setup_reps_s", "seed", "rev", "nproc")


def invoke(workload, trace, *extra):
    r = bench.invoke(workload, 1, 1, trace, SMALL + list(extra))
    assert r.returncode == 0, "%s exited with %d" % (" ".join(r.args), r.returncode)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    summary = json.loads(lines[-2])["summary"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result, summary


def expect_metrics(result, spec, what):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    assert got == want, "%s: metrics %s, expected %s" % (what, got, want)
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), "%s: %s is not a number" % (what, k)


def main():
    bench.check_tree()
    bench.build()
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(bench.WORKLOADS), names
    for w in names:
        result, summary = invoke(w, 0)
        expect_metrics(result, spec["end_to_end"], w + " --trace 0")
        assert result["correct"] and result["failed"] == 0, (w, result)
        for k in SUMMARY_KEYS:
            assert k in summary, "%s: summary lacks %s" % (w, k)
        assert summary["ops_failed_ratio"] == {"value": 0, "unit": "ratio"}, summary

        result, _ = invoke(w, 1)
        expect_metrics(result, spec["per_layer"], w + " --trace 1")
        assert result["correct"], (w, result)

        result, summary = invoke(w, 0, "--tamper")
        assert not result["correct"] and result["failed"] >= 1, (w, result)
        assert summary["ops_failed_ratio"]["value"] > 0, summary
        print("ok %s" % w, flush=True)
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
