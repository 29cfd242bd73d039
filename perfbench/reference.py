"""Compute the holder-sweep references stored in reference.json.

    python3 perfbench/reference.py

For each of workloads.HOLDER_POINTS parameter points, runs the sweep op
through the CLI at twice the benchmark's M and stores its q_gap column. Takes
about a minute per point on one core. Rerun only when the points, the sweep
config or the reference method change.
"""

from __future__ import annotations

import json
import sys

import run


def compute(config: dict) -> list[float]:
    """q_gap of the sweep op run through the CLI at 2M."""
    import workloads
    from steklovlab import cli
    fine = dict(config, M=2 * config["M"])
    workdir = run.WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    cfg, out = workdir / f"sweep-{fine['M']}.json", workdir / f"sweep-{fine['M']}.csv"
    cfg.write_text(json.dumps(fine, sort_keys=True))
    if cli.main(["--config", str(cfg), "--output", str(out)]) != 0:
        raise RuntimeError(f"reference sweep failed for {fine}")
    _, rows = workloads._parse(out.read_text())
    return [float(r[2]) for r in workloads._table(rows, "s,eps,q_gap,a_gap,bound,theta,"
                                                        "C_T_running,verdict")]


def main() -> int:
    run.prepare()
    import workloads
    points = {}
    for i in range(workloads.HOLDER_POINTS):
        p = workloads.draw("holder-sweep", i)
        config = workloads.sweep_config(p)
        points[str(i)] = {"a": p["a"], "rho": p["rho"], "M": 2 * config["M"],
                          "scales": config["scales"], "q_gap": compute(config)}
        print(f"point {i}: {points[str(i)]}", file=sys.stderr, flush=True)
    workloads.REFERENCE.write_text(json.dumps({"points": points}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
