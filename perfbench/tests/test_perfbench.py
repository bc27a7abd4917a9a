"""Tests of the benchmark itself: tracing changes no output, count metrics
repeat exactly, and the output checks catch what they claim to catch.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

workloads.import_kepes()

import kepes.driver  # noqa: E402
import kepes.dissipation  # noqa: E402
import kepes.fluxes  # noqa: E402
import kepes.thermo  # noqa: E402

COUNT_UNITS = ("count", "bytes")


def small_cases():
    """One cheap case from each output-shape family."""
    return (workloads.build_cases("shock_sweep_small")[:1]
            + workloads.build_cases("ns_viscous")[:1]
            + workloads.build_cases("budget_dense"))


def traced_bench(tmp_path, seed=workloads.DEFAULT_SEED):
    """An untraced pass, then a traced one; returns (bench, metrics)."""
    cases = small_cases()
    states = workloads.initial_states(cases, seed)
    bench = run.Bench(cases, None, tmp_path)
    with workloads.seeded_inputs(states):
        bench.run_pass()
        tracer = tracing.Tracer()
        with tracer:
            workloads.build_cases("sod_large")
            first_call = bench.measure(0.0)
    table = tracing.SpanTable(tracer, bench.cells[first_call:],
                              bench.steps[first_call:])
    return bench, run.per_layer(table, bench, first_call, 1.0, 1.0)


def test_traced_outputs_are_byte_identical(tmp_path):
    # Bench compares each run's output digest with the case's first run,
    # which here is the untraced pass.
    bench, _ = traced_bench(tmp_path)
    assert bench.attempted == 2 * len(small_cases())
    assert bench.failures == []
    assert bench.failed == 0


def test_count_metrics_repeat_exactly(tmp_path):
    _, first = traced_bench(tmp_path / "a")
    _, second = traced_bench(tmp_path / "b")
    counts = {k: v["value"] for k, v in first.items()
              if v["unit"] in COUNT_UNITS}
    assert counts == {k: second[k]["value"] for k in counts}
    assert counts["thermo.log_mean.calls_per_rhs"] > 0
    assert counts["diagnostics.budget_report.calls_per_run"] > 2


def test_tracer_rebinds_every_holder_and_restores_them():
    original = kepes.thermo.log_mean
    kepec = kepes.fluxes.CENTRAL_FLUXES["kepec"]
    with tracing.Tracer():
        assert kepes.thermo.log_mean is not original
        assert kepes.dissipation.log_mean is kepes.thermo.log_mean
        assert kepes.fluxes.CENTRAL_FLUXES["kepec"] is kepes.fluxes.flux_kepec
        assert kepes.fluxes.flux_kepec is not kepec
    assert kepes.thermo.log_mean is original
    assert kepes.dissipation.log_mean is original
    assert kepes.fluxes.CENTRAL_FLUXES["kepec"] is kepec


def test_self_time_excludes_children(tmp_path):
    _, metrics = traced_bench(tmp_path)
    shares = [metrics[f"{layer}.self_share"]["value"]
              for layer in run.SELF_SHARE_LAYERS]
    assert all(s >= 0.0 for s in shares)
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)


def test_scaled_walls_use_the_calibrations_around_each_call(tmp_path):
    bench = run.Bench(small_cases()[:1], None, tmp_path)
    ref = hostspeed.REFERENCE_S
    bench.calibrations = [(1.0, ref), (3.0, 3.0 * ref), (6.0, ref)]
    bench.times = [(1.5, 2.5), (3.5, 5.5)]
    assert bench.scaled_walls(0) == pytest.approx([0.5, 1.0])


def _one_run(tmp_path, case, seed=workloads.DEFAULT_SEED):
    states = workloads.initial_states([case], seed)
    with workloads.seeded_inputs(states):
        return kepes.driver.run(case.config, str(tmp_path / case.tag))


def test_checks_pass_and_match_reference(tmp_path):
    case = workloads.build_cases("ns_viscous")[0]
    result = _one_run(tmp_path, case)
    reference = checks.load_reference()["ns_viscous"][case.tag]
    assert checks.check_run(case, result, reference) == []


def test_truncated_run_fails_the_termination_guard(tmp_path):
    case = workloads.build_cases("ns_viscous")[0]
    short = dataclasses.replace(case.config, time=dataclasses.replace(
        case.config.time, max_steps=case.steps - 1))
    result = _one_run(tmp_path, dataclasses.replace(case, config=short))
    assert result.status == 0 and result.message == "ok"
    problems = checks.check_run(case, result, None)
    assert any("expected" in p for p in problems)


def test_broken_budget_and_state_are_caught(tmp_path):
    case = workloads.build_cases("ns_viscous")[0]
    result = _one_run(tmp_path, case)
    path = Path(result.budget_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    names = lines[0].split(",")
    row = lines[-1].split(",")
    row[names.index("dke_dt_numerical")] = "1.0"
    row[names.index("energy_error")] = "1e-6"
    path.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n",
                    encoding="utf-8")
    problems = checks.check_run(case, result, None)
    assert any("dke_dt does not close" in p for p in problems)
    assert any("energy_error" in p for p in problems)

    other = _one_run(tmp_path / "other", case, seed=1)
    reference = checks.load_reference()["ns_viscous"][case.tag]
    assert any("differs from the reference" in p
               for p in checks.check_run(case, other, reference))


def test_benchmark_json_names_what_run_reports(tmp_path):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    _, layer = traced_bench(tmp_path)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(layer[m["name"]]["unit"] == m["unit"]
               for m in spec["per_layer"])
    bench = run.Bench(small_cases()[:1], None, tmp_path / "e2e")
    states = workloads.initial_states(bench.cases, 0)
    with workloads.seeded_inputs(states):
        first_call = bench.measure(0.0)
    e2e, _ = run.end_to_end(bench, first_call, [(0.1, 0.01)])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(e2e[m["name"]]["unit"] == m["unit"]
               for m in spec["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
         "sod_large", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
