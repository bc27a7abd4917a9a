"""kepes benchmark: four marching workloads through ``kepes.driver.run``.

    python3 perfbench/run.py --workload shock_sweep_small --seed 0 \\
        --seconds 20 --trace 0

Run it from the root of a checkout; it imports kepes from ``src/`` and
writes run artifacts under ``.perfbench_out/``.  Each workload is a closed
loop in this one process: it repeats a pass (every config of the workload,
one ``driver.run`` call after another) until ``--seconds`` have passed.  One
untimed pass runs first, to warm caches.  Every call's outputs are checked
(see checks.py); a failed check counts the call as failed.

Timings are scaled to a reference host speed (see hostspeed.py): the
calibration kernel runs between calls whenever ``CALIBRATION_INTERVAL_S``
has passed, for about ``CALIBRATION_SHARE`` of the time since the last
calibration, and each call's wall time is multiplied by ``REFERENCE_S``
over the mean of the calibrations just before and just after it.  The
unscaled values are in the detail line.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

- cell_steps_per_s: sum of n_cells x RK3 steps over a pass divided by the
  pass's summed driver.run time; median over passes.
- run_s: time of one driver.run call, artifacts included; median over
  the measured calls (their count, and the highest percentile with ten
  samples beyond it, are in the detail line).
- setup_s: importing kepes, building the workload's configs and its seeded
  initial states, in a fresh interpreter; median of ``SETUP_REPEATS``.
- peak_rss_mb: peak resident set of this process.
- success_ratio: calls that passed every check over calls attempted, the
  complement of the fail ratio (which is 0 on a healthy build).

With ``--trace 1`` one untraced pass after the warm-up is the base of the
trace overhead; the tracer of tracing.py is then installed and the
measured passes give the per-layer metrics.  Traced outputs must be
byte-identical to the untraced ones.
The line before the last holds the run details and the one before that
the environment.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_ROOT = workloads.ROOT / ".perfbench_out"
SETUP_REPEATS = 7
CALIBRATION_INTERVAL_S = 0.25
CALIBRATION_SHARE = 0.04
# environment variables that set thread counts or interpreter behaviour
RECORDED_ENV_PREFIXES = ("OMP_", "MKL_", "OPENBLAS_", "BLIS_", "NUMEXPR_",
                         "VECLIB_", "GOTO_", "PYTHON")

# Modules whose summed self time is reported as <module>.self_share.
SELF_SHARE_LAYERS = ("thermo", "fluxes", "dissipation", "reconstruction",
                     "spatial", "timeint", "diagnostics", "riemann", "driver")


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(RECORDED_ENV_PREFIXES)},
    }


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, calibration seconds) from one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    setup, calibration = done.stdout.split()[-2:]
    return float(setup), float(calibration)


def tail_percentile(samples: list[float]):
    """Highest percentile with ten samples beyond it, or None if too few."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 2),
            "value": sorted(samples)[n - 11]}


class Bench:
    """Runs passes of one workload and keeps every count and timing."""

    def __init__(self, cases, reference: dict | None, out_dir: Path):
        import kepes.driver

        self.driver = kepes.driver
        self.cases = cases
        self.reference = reference
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        # per call, in call order; pass k is calls k*n .. k*n + n - 1
        self.times: list[tuple[float, float]] = []  # (start, end)
        self.cells: list[int] = []
        self.steps: list[int] = []
        self.output_bytes: list[int] = []
        # (end time, seconds) of every calibration, in order
        self.calibrations: list[tuple[float, float]] = []

    def calibrate(self):
        """Time the kernel for about CALIBRATION_SHARE of the time since the
        last calibration (at least once) and keep the mean: calls longer
        than the interval get a proportionally steadier estimate."""
        since = (time.perf_counter() - self.calibrations[-1][0]
                 if self.calibrations else 0.0)
        reps = max(1, round(CALIBRATION_SHARE * since / hostspeed.REFERENCE_S))
        seconds = statistics.fmean(hostspeed.calibrate() for _ in range(reps))
        self.calibrations.append((time.perf_counter(), seconds))

    def _check(self, case, result) -> tuple[list[str], int]:
        """(problems, output bytes) of one finished call."""
        reference = (None if self.reference is None
                     else self.reference[case.tag])
        try:
            problems = checks.check_run(case, result, reference)
            digest = checks.output_digest(result)
            size = sum(os.path.getsize(p) for p in checks.output_files(result))
        except (OSError, ValueError) as exc:
            return [f"unreadable outputs: {exc}"], 0
        # every call of a case must write the same bytes, traced or not
        if self.digests.setdefault(case.tag, digest) != digest:
            problems.append("outputs differ from the first run of this case")
        return problems, size

    def run_case(self, case):
        """One checked driver.run call, calibrating first when one is due."""
        if (not self.calibrations or time.perf_counter()
                - self.calibrations[-1][0] >= CALIBRATION_INTERVAL_S):
            self.calibrate()
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.driver.run(case.config, str(self.out_dir / case.tag))
        except Exception:  # a crash is a failed call; keep measuring
            result, crash = None, traceback.format_exc(limit=3)
        end = time.perf_counter()
        if result is None:
            problems, size, steps = [crash], 0, 0
        else:
            (problems, size), steps = self._check(case, result), result.steps
        if problems:
            self.failed += 1
            self.failures += [f"{case.tag}: {p}" for p in problems]
        self.times.append((start, end))
        self.cells.append(case.n_cells)
        self.steps.append(steps)
        self.output_bytes.append(size)

    def run_pass(self):
        for case in self.cases:
            self.run_case(case)

    def measure(self, seconds: float) -> int:
        """Passes until ``seconds`` have elapsed (at least one); returns the
        index of the first measured call."""
        first_call = len(self.times)
        start = time.perf_counter()
        while True:
            self.run_pass()
            if time.perf_counter() - start >= seconds:
                break
        self.calibrate()  # closes the last call
        return first_call

    def walls(self, first: int) -> list[float]:
        return [end - start for start, end in self.times[first:]]

    def scaled_walls(self, first: int) -> list[float]:
        """Wall times of the calls from index ``first`` on, at the
        reference host speed."""
        ends = [t for t, _ in self.calibrations]
        scaled = []
        for start, end in self.times[first:]:
            before = self.calibrations[bisect.bisect_right(ends, start) - 1][1]
            after = self.calibrations[bisect.bisect_left(ends, end)][1]
            scaled.append((end - start) * hostspeed.REFERENCE_S
                          / (0.5 * (before + after)))
        return scaled

    def pass_rates(self, walls: list[float], first: int) -> list[float]:
        """n_cells x steps per second of each pass, from per-call walls of
        the calls from index ``first`` on."""
        n = len(self.cases)
        work = [c * s for c, s in zip(self.cells[first:], self.steps[first:])]
        return [sum(work[i:i + n]) / sum(walls[i:i + n])
                for i in range(0, len(walls), n)]


def end_to_end(bench: Bench, first_call: int,
               setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    walls = bench.scaled_walls(first_call)
    raw_walls = bench.walls(first_call)
    rates = bench.pass_rates(walls, first_call)
    setup_s = [s * hostspeed.REFERENCE_S / c for s, c in setup]
    metrics = {
        "cell_steps_per_s": {"value": statistics.median(rates),
                             "unit": "cell-steps/s"},
        "run_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0, "unit": "MB"},
        "success_ratio": {
            "value": (bench.attempted - bench.failed) / bench.attempted,
            "unit": "ratio"},
    }
    detail = {
        "passes": len(rates), "run_samples": len(walls),
        "run_s_tail": tail_percentile(walls),
        "cell_steps_per_s_passes": rates,
        "setup_s_samples": setup_s,
        "unscaled": {
            "cell_steps_per_s": statistics.median(
                bench.pass_rates(raw_walls, first_call)),
            "run_s": statistics.median(raw_walls),
            "run_s_tail": tail_percentile(raw_walls),
            "setup_s": statistics.median(s for s, _ in setup)},
        "calibration_s": {
            "median": statistics.median(c for _, c in bench.calibrations),
            "min": min(c for _, c in bench.calibrations),
            "max": max(c for _, c in bench.calibrations),
            "count": len(bench.calibrations)},
    }
    return metrics, detail


TIME_UNITS = {"us", "ns", "s"}


def per_layer(table: tracing.SpanTable, bench: Bench, first_call: int,
              overhead: float, scale: float) -> dict:
    """Per-layer metrics; times are multiplied by ``scale``, the median
    host-speed factor of the traced calls."""
    t = table
    values = {
        "thermo.log_mean.calls_per_rhs":
            (t.calls_per_rhs("thermo.log_mean"), "count"),
        "thermo.log_mean.self_share": (t.self_share("thermo.log_mean"), "ratio"),
        "thermo.entropy_vars.calls_per_rhs":
            (t.calls_per_rhs("thermo.entropy_vars"), "count"),
        "spatial.assemble_rhs.us_per_call":
            (t.us_per_call(tracing.RHS), "us"),
        "spatial.assemble_rhs.ns_per_cell":
            (t.ns_per_cell(tracing.RHS), "ns"),
        "spatial.assemble_rhs.self_share": (t.self_share(tracing.RHS), "ratio"),
        "spatial.assemble_rhs.calls_per_step":
            (t.calls_of(tracing.RHS) / t.steps, "count"),
        "spatial.apply_boundary.us_per_call":
            (t.us_per_call("spatial.apply_boundary"), "us"),
        "spatial.viscous_face_flux.us_per_call":
            (t.us_per_call("spatial.viscous_face_flux"), "us"),
        "dissipation.matrix_dissipation.us_per_call":
            (t.us_per_call("dissipation.matrix_dissipation"), "us"),
        "dissipation.matrix_dissipation.ns_per_cell":
            (t.ns_per_cell("dissipation.matrix_dissipation"), "ns"),
        "dissipation.matrix_dissipation.share":
            (t.share("dissipation.matrix_dissipation"), "ratio"),
        "dissipation.jst_dissipation.us_per_call":
            (t.us_per_call("dissipation.jst_dissipation"), "us"),
        "reconstruction.reconstruct_face.ns_per_cell":
            (t.ns_per_cell("reconstruction.reconstruct_face"), "ns"),
        "fluxes.flux_kepec.us_per_call":
            (t.us_per_call("fluxes.flux_kepec"), "us"),
        "fluxes.flux_kepec.ns_per_cell":
            (t.ns_per_cell("fluxes.flux_kepec"), "ns"),
        "timeint.ssp_rk3_step.self_us_per_call":
            (t.self_us_per_call("timeint.ssp_rk3_step"), "us"),
        "timeint.compute_dt.us_per_call":
            (t.us_per_call("timeint.compute_dt"), "us"),
        "diagnostics.budget_report.calls_per_run":
            (t.calls_of("diagnostics.budget_report") / t.runs, "count"),
        "diagnostics.budget_report.us_per_call":
            (t.us_per_call("diagnostics.budget_report"), "us"),
        "diagnostics.solution_metrics.us_per_call":
            (t.us_per_call("diagnostics.solution_metrics"), "us"),
        "riemann.solve_riemann.us_per_call":
            (t.us_per_call("riemann.solve_riemann"), "us"),
        "riemann.RiemannSolution.profile.us_per_call":
            (t.us_per_call("riemann.RiemannSolution.profile"), "us"),
        "driver.run.self_s": (t.self_us_per_call(tracing.RUN) * 1e-6, "s"),
        "driver.output_bytes":
            (sum(bench.output_bytes[first_call:]) / t.runs, "bytes"),
        "config.config_from_dict.us_per_call":
            (t.setup_us_per_call("config.config_from_dict"), "us"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    for layer in SELF_SHARE_LAYERS:
        values[f"{layer}.self_share"] = (t.layer_self_share(layer), "ratio")
    return {name: {"value": float(v) * (scale if unit in TIME_UNITS else 1.0),
                   "unit": unit}
            for name, (v, unit) in values.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads.import_kepes()
        cases = workloads.build_cases(args.workload)
    except workloads.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment()
    states = workloads.initial_states(cases, args.seed)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = checks.load_reference()[args.workload]

    out_dir = OUT_ROOT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    bench = Bench(cases, reference, out_dir)
    with workloads.seeded_inputs(states):
        bench.run_pass()  # warm-up: untimed, but checked
        if args.trace:
            base_call = len(bench.times)
            bench.run_pass()  # the untraced base of the trace overhead
            tracer = tracing.Tracer()
            with tracer:
                workloads.build_cases(args.workload)  # config-layer spans
                first_call = bench.measure(args.seconds)
            scaled = bench.scaled_walls(base_call)
            n = len(cases)
            traced = [sum(scaled[i:i + n]) for i in range(n, len(scaled), n)]
            table = tracing.SpanTable(tracer, bench.cells[first_call:],
                                      bench.steps[first_call:])
            raw = bench.walls(first_call)
            scale = statistics.median(
                s / w for s, w in zip(scaled[n:], raw))
            metrics = per_layer(table, bench, first_call,
                                statistics.median(traced) / sum(scaled[:n]),
                                scale)
            detail = {"passes": len(traced), "spans": len(tracer.span_name),
                      "host_scale": scale}
            tracer.save(out_dir / "spans.npz")
        else:
            first_call = bench.measure(args.seconds)
            setup = [probe_setup(args.workload, args.seed)
                     for _ in range(SETUP_REPEATS)]
            metrics, detail = end_to_end(bench, first_call, setup)

    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  fail_ratio=bench.failed / bench.attempted,
                  failures=bench.failures[:20])
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    with open(out_dir / f"result_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"environment": env, "detail": detail, **result}, fh,
                  indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
