"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py [--seeds 0,1]

For every workload and seed, runs run.py --tiny (K, M and n scaled down, the
holder-sweep reference computed on the fly at 2M) with tracing off and on,
and checks that:
  - every op passes its output checks and the result line has the keys and
    metric names BENCHMARK.json declares;
  - the exact per-layer counts repeat between two traced runs of one seed;
  - the traced run records spans for the layers the workload exercises.
Then checks that run.py exits nonzero without printing a result in a
directory holding only BENCHMARK.json and the benchmark's files. Exits 0 when
everything holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run
import workloads

EXACT = (".calls", ".points", ".flops", ".bytes", "perturbation.terms", "muntz.table_entries")
EXPECTED_LAYERS = {
    "forward-shoot": ("weyl_titchmarsh.wt_from_ode.calls",),
    "gl-wells": ("gelfand_levitan.solve_gl.calls", "gelfand_levitan.lu_factor.flops",
                 "gelfand_levitan.p_from_amplitude.points"),
    "holder-sweep": ("gelfand_levitan.solve_gl.calls", "weyl_titchmarsh.wt_from_amplitude.calls",
                     "perturbation.terms"),
    "moments-diagnostics": ("muntz.table_entries", "perturbation.terms",
                            "weyl_titchmarsh.wt_from_amplitude.calls"),
}


def bench_run(workload: str, seed: int, trace: int, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="0,1")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in run.PER_LAYER]
    e2e = sorted(m["name"] for m in bench["end_to_end"])
    layer = sorted(m["name"] for m in bench["per_layer"])

    failures = []
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            out = result(bench_run(workload, seed, 0))
            traced = [result(bench_run(workload, seed, 1)) for _ in range(2)]
            problems = []
            for res, names in ((out, e2e), *((t, layer) for t in traced)):
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(res)}")
                if not res["correct"] or res["failed"]:
                    problems.append(f"{res['failed']} of {res['attempted']} ops failed")
                if sorted(res["metrics"]) != names:
                    problems.append("metric names differ from BENCHMARK.json")
            first, second = (t["metrics"] for t in traced)
            for name in first:
                if name.endswith(EXACT) and first[name]["value"] != second[name]["value"]:
                    problems.append(f"{name} differs between runs: "
                                    f"{first[name]['value']} vs {second[name]['value']}")
            for name in EXPECTED_LAYERS[workload]:
                if not first[name]["value"] > 0:
                    problems.append(f"no {name} recorded")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} seed {seed}: {status}", flush=True)
            failures += problems

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = bench_run("gl-wells", 0, 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("run.py ran without the package sources")
    print(f"bare directory: exit {proc.returncode}, {proc.stderr.strip()}")
    shutil.rmtree(bare)

    print("selftest:", "ok" if not failures else f"{len(failures)} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
