#!/usr/bin/env python3
"""steklovlab benchmark.

    python3 perfbench/run.py --workload gl-wells --seed 3 --seconds 25 --trace 0

Drives the public CLI (steklovlab.cli.main) in this one process as a closed
loop: one client, one pass at a time, workers=1, one BLAS thread (the plain
single-threaded baseline, and the steadiest on a shared host). Every op's
CSV is checked against a closed-form oracle or a stored reference, and
against the bytes of the first pass.

--trace 0 times passes untraced and reports the end-to-end metrics of
BENCHMARK.json. Pass and set-up times are scaled to a reference host speed
that a probe measures on the same core (see Speedometer and probe.py).
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics; the spans go to .perfbench_run/ when the run ends.
The last line of standard output is the JSON result; the line before it is
the run record (parameters, per-op figures, host facts, line counts).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
MIN_PASSES = 2
MAX_SECONDS = 150.0   # stop starting passes past this, whatever --seconds says
SETUP_PROBES = 3
BLAS_THREADS = 1
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 5e-4  # probe time that defines the reference host speed

# (metric, unit) for --trace 1; BENCHMARK.json lists the same, all lower-is-better.
LAYER_MODULES = ("cli", "stability_harness", "gelfand_levitan", "weyl_titchmarsh",
                 "perturbation", "muntz", "radial_model")
PER_LAYER = [
    ("weyl_titchmarsh.wt_from_ode.calls", "count"),
    ("weyl_titchmarsh.wt_from_ode.self_s", "s"),
    ("weyl_titchmarsh.wt_from_ode.p50_ms", "ms"),
    ("weyl_titchmarsh.wt_from_ode.p80_ms", "ms"),
    ("weyl_titchmarsh.wt_from_amplitude.calls", "count"),
    ("weyl_titchmarsh.wt_from_amplitude.self_s", "s"),
    ("weyl_titchmarsh.steklov_spectrum.calls", "count"),
    ("weyl_titchmarsh.steklov_spectrum.self_s", "s"),
    ("gelfand_levitan.p_from_amplitude.calls", "count"),
    ("gelfand_levitan.p_from_amplitude.self_s", "s"),
    ("gelfand_levitan.p_from_amplitude.points", "count"),
    ("gelfand_levitan.p_prime_from_amplitude.self_s", "s"),
    ("gelfand_levitan.p_prime_from_amplitude.points", "count"),
    ("gelfand_levitan.solve_gl.calls", "count"),
    ("gelfand_levitan.solve_gl.self_s", "s"),
    ("gelfand_levitan.recover_potential.self_s", "s"),
    ("gelfand_levitan.gl_residual.self_s", "s"),
    ("gelfand_levitan.lu_factor.calls", "count"),
    ("gelfand_levitan.lu_factor.self_s", "s"),
    ("gelfand_levitan.lu_factor.flops", "flop"),
    ("gelfand_levitan.lu_factor.bytes", "B"),
    ("gelfand_levitan.lu_solve.self_s", "s"),
    ("perturbation.build_perturbed_amplitude.calls", "count"),
    ("perturbation.build_perturbed_amplitude.self_s", "s"),
    ("perturbation.terms", "count"),
    ("perturbation.ks_check_positivity.self_s", "s"),
    ("perturbation.ks_check_quasi_szego.self_s", "s"),
    ("perturbation.ks_check_normalization.self_s", "s"),
    ("muntz.system_for_params.self_s", "s"),
    ("muntz.muntz_coeffs.self_s", "s"),
    ("muntz.gram_residual.self_s", "s"),
    ("muntz.table_entries", "count"),
    ("stability_harness.run_sweep.self_s", "s"),
    ("stability_harness.fit_holder.self_s", "s"),
    ("stability_harness.emit_records.self_s", "s"),
    ("cli.build_config.self_s", "s"),
    ("cli.run.self_s", "s"),
    *((f"{m}.share", "ratio") for m in LAYER_MODULES),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
]
# Per-layer metrics whose span or counter has another name.
ALIASES = {
    "muntz.gram_residual.self_s": "muntz.MuntzSystem.gram_residual.self_s",
    "perturbation.terms": "perturbation.build_perturbed_amplitude.terms",
    "muntz.table_entries": "muntz.system_for_params.table_entries",
}


class BenchError(Exception):
    """The benchmark cannot run here (sources missing, bad arguments)."""


def prepare() -> int:
    """Point imports at the checkout's sources and pin the BLAS thread count.

    Must run before numpy is imported. Returns the thread count set.
    """
    if not (SRC / "steklovlab" / "cli.py").is_file():
        raise BenchError(f"no steklovlab sources under {SRC}")
    threads = BLAS_THREADS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return threads


def write_configs(ops, workdir: Path) -> list[list[str]]:
    """One JSON config per op; returns the CLI argument lists."""
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for op in ops:
        cfg = workdir / f"{op.name}.json"
        cfg.write_text(json.dumps(op.config, sort_keys=True))
        argvs.append(["--config", str(cfg), "--output", str(workdir / f"{op.name}.csv")])
    return argvs


def run_ops(argvs) -> tuple[list, list[float]]:
    """Call cli.main once per op; returns exit codes (None for an escaped
    exception) and per-op wall times."""
    from steklovlab import cli
    codes, times = [], []
    for argv in argvs:
        Path(argv[-1]).unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an escaped exception is a failed op, not a crash
            traceback.print_exc(file=sys.stderr)
            code = None
        times.append(time.perf_counter() - t0)
        codes.append(code)
    return codes, times


def _probe() -> float:
    """Time of a fixed pure-Python loop: the speed of this core right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(10000):
        s += i
    return time.perf_counter() - t0


class Speedometer:
    """Samples the host speed on the benchmark's own core while a pass runs.

    A SIGALRM every PROBE_INTERVAL_S runs _probe between the program's
    bytecodes, so the probe sees the same core, at the same moment, as the
    program. The shared host's speed drifts by tens of percent over minutes;
    per pass, the probe time tracks the pass time with a correlation near 0.9,
    so factor() scales that drift out of wall_norm_s.
    """

    def __enter__(self):
        self.samples: list[float] = []
        self._old = signal.signal(signal.SIGALRM, lambda *_: self.samples.append(_probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(_probe())

    def factor(self) -> float:
        """Reference probe time over the median probe time of the pass."""
        return PROBE_REF_S / statistics.median(self.samples)


class Ledger:
    """Counts ops attempted and failed; an op fails on a nonzero exit code, an
    escaped exception, a failed output check, or CSV bytes that differ from the
    first pass of the same config."""

    def __init__(self, ops, argvs):
        self.ops, self.argvs = ops, argvs
        self.first: dict[str, bytes] = {}
        self.checks: dict[str, object] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, pass_id: int, codes) -> None:
        for op, argv, code in zip(self.ops, self.argvs, codes):
            self.attempted += 1
            problem = None
            if code != 0:
                problem = f"exit code {code}"
            elif not Path(argv[-1]).is_file():
                problem = "no output file"
            else:
                data = Path(argv[-1]).read_bytes()
                if op.name not in self.first:
                    self.first[op.name] = data
                    self.checks[op.name] = op.check(data.decode())
                if data != self.first[op.name]:
                    problem = "CSV bytes differ from the first pass"
                elif not self.checks[op.name].ok:
                    problem = "; ".join(self.checks[op.name].problems)
            if problem:
                self.failed += 1
                self.problems.append(f"pass {pass_id} {op.name}: {problem}")

    def oracle_err(self) -> float:
        """Worst oracle error over the ops; the largest float when an op gave none."""
        errs = [c.err for c in self.checks.values() if c.err is not None]
        worst = max(errs) if len(self.checks) == len(self.ops) and errs else math.inf
        return min(worst, sys.float_info.max)


def setup_seconds(config: Path, n: int) -> list[tuple[float, float]]:
    """(set-up time, host speed factor) in n fresh interpreters (see probe.py)."""
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC), str(config)],
                              capture_output=True, text=True, timeout=120, check=True)
        setup, probe = map(float, proc.stdout.split())
        out.append((setup, PROBE_REF_S / probe))
    return out


def host_facts(threads: int) -> dict:
    import mpmath
    import numpy
    import scipy
    loc = {f"loc.{p.stem}": len(p.read_text().splitlines())
           for p in sorted((SRC / "steklovlab").glob("*.py"))}
    loc["loc.total"] = sum(loc.values())
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, **loc}


def layer_metrics(summary: dict, untraced_norm: list[float], traced_norm: float) -> dict:
    dur = sorted(summary["durations"].get("weyl_titchmarsh.wt_from_ode", []))
    values = {
        "weyl_titchmarsh.wt_from_ode.p50_ms": 1e3 * statistics.median(dur) if dur else 0.0,
        "weyl_titchmarsh.wt_from_ode.p80_ms":
            1e3 * statistics.quantiles(dur, n=5)[3] if len(dur) > 1 else 0.0,
        "trace.overhead_frac": traced_norm / statistics.median(untraced_norm) - 1.0,
        "trace.unattributed_frac": summary["unattributed_frac"],
    }
    for m in LAYER_MODULES:
        values[f"{m}.share"] = summary.get(f"share.{m}", 0.0)
    out = {}
    for name, unit in PER_LAYER:
        val = values[name] if name in values else summary.get(ALIASES.get(name, name), 0.0)
        out[name] = {"value": float(val), "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="scale K, M and n down and compute the holder-sweep "
                             "reference on the fly (self-test only)")
    args = parser.parse_args(argv)
    try:
        threads = prepare()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import workloads
    from spans import Tracer
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    t_run = time.perf_counter()
    tag = f"{args.workload}-{args.seed}-{args.trace}{'-tiny' if args.tiny else ''}"
    if args.tiny:
        import reference
        params, ops = workloads.build(args.workload, args.seed, tiny=True,
                                      reference=reference.compute)
    else:
        params, ops = workloads.build(args.workload, args.seed)
    workdir = WORK / tag
    argvs = write_configs(ops, workdir)
    ledger = Ledger(ops, argvs)
    setups = [] if args.trace else setup_seconds(workdir / f"{ops[0].name}.json", SETUP_PROBES)

    tracer = Tracer() if args.trace else None
    wall, factor, traced, op_times = {}, {}, set(), []  # wall and factor by pass id
    t_start = time.perf_counter()
    while True:
        pass_id = len(wall)
        if tracer is not None and pass_id % 2 == 1:
            traced.add(pass_id)
            tracer.install()
        try:
            with Speedometer() as speed, (tracer.traced_pass(pass_id) if pass_id in traced
                                           else contextlib.nullcontext()):
                t0 = time.perf_counter()
                codes, times = run_ops(argvs)
                wall[pass_id] = time.perf_counter() - t0
        finally:
            if pass_id in traced:
                tracer.uninstall()
        factor[pass_id] = speed.factor()
        op_times.append(times)
        ledger.record(pass_id, codes)
        elapsed = time.perf_counter() - t_start
        budget = min(args.seconds, MAX_SECONDS)
        if len(wall) >= MIN_PASSES and elapsed + statistics.median(wall.values()) > budget:
            break
    norm = {p: wall[p] * factor[p] for p in wall}
    norm_untraced = [v for p, v in norm.items() if p not in traced]

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "params": params, "ops": {op.name: op.config for op in ops},
        "passes": len(wall), "traced_passes": sorted(traced),
        "wall_s": list(wall.values()), "host_speed_factor": list(factor.values()),
        "wall_norm_s": list(norm.values()), "op_wall_s": op_times,
        "setup_s_samples": [s for s, _ in setups],
        "setup_speed_factor": [f for _, f in setups],
        "fail_ratio": ledger.failed / ledger.attempted, "problems": ledger.problems,
        "figures": {name: c.figures for name, c in ledger.checks.items()},
        "gl_residual_max": max((c.figures["gl_residual"] for c in ledger.checks.values()
                                if "gl_residual" in c.figures), default=None),
        "host": host_facts(threads),
    }
    if tracer is not None:
        summary = tracer.summarize({p: wall[p] for p in traced})
        metrics = layer_metrics(summary, norm_untraced,
                                statistics.median(norm[p] for p in traced))
        spans = WORK / f"spans-{tag}.jsonl.gz"
        tracer.write(spans)
        record.update(spans=str(spans.relative_to(ROOT)), span_count=len(tracer.spans))
    else:
        metrics = {
            "wall_norm_s": {"value": statistics.median(norm_untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(s * f for s, f in setups), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "unit": "MiB"},
            "oracle_err": {"value": ledger.oracle_err(), "unit": "1"},
        }
    record["run_s"] = time.perf_counter() - t_run
    record_line = json.dumps({"perfbench": record}, default=str)
    (WORK / f"record-{tag}.json").write_text(record_line + "\n")
    print(record_line)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
