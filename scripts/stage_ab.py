#!/usr/bin/env python3
"""A/B timing of one RHS stage (spatial.assemble_rhs) of two source trees:

    python scripts/stage_ab.py OLD_SRC NEW_SRC [--rounds 25] [--seed 0]

Both kepes packages are imported in one process under their own names.
Per config the two trees' rhs must be np.array_equal and the budget rows
their face records give (diagnostics.budget_report, csv_row) equal, which
holds for trees whose budget_report takes no prim; then each round
times a batch of calls per tree, alternating which goes first, and the
medians and quartiles in us per call, old/new of the medians and the
rounds the new tree won are printed.  The data are the config's initial
state perturbed by a seeded relative 1e-3.  The trees share one heap, so
at 10^4 cells one tree's page faults depend on the other's allocations:
time large grids in separate processes as well.
"""

import argparse
import importlib.util
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

CONFIGS = ([("stationary_shock_m4", 24, law)
            for law in ("roe", "ec1", "kes", "hyb")]
           + [(name, n, None) for name in ("sod", "ns_shock_structure_n200_d4")
              for n in (200, 10_000)])
BATCH_S = 0.02


def load(src, name):
    """The modules of the kepes package under src, imported as name."""
    spec = importlib.util.spec_from_file_location(
        name, f"{src}/kepes/__init__.py",
        submodule_search_locations=[f"{src}/kepes"])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("config", "diagnostics", "presets", "spatial",
                      "thermo")}


def stage(tree, name, n, law, seed):
    """assemble_rhs of the tree, bound to the config and its data, and the
    budget row of its result."""
    cfg = tree["presets"].preset(name)
    cfg = replace(cfg, grid=replace(cfg.grid, n_cells=n))
    if law:
        cfg = replace(cfg, diss=replace(cfg.diss, matrix_law=law))
    th = tree["thermo"]
    rho, u, p = th.cons_to_prim(tree["config"].initial_state(cfg), cfg.gas)
    r = 1e-3 * np.random.default_rng(seed).uniform(-1.0, 1.0, (3, n))
    a = th.sound_speed((rho, u, p), cfg.gas)
    q = (rho * (1 + r[0]), u + r[1] * a, p * (1 + r[2]))
    # prim_to_cons gives a (3, n) array, or a row triple in older trees
    w = np.array(th.prim_to_cons(q, cfg.gas), dtype=float)
    call = (lambda: tree["spatial"].assemble_rhs(
        w, cfg.grid, cfg.gas, cfg.flux_kind, cfg.diss, cfg.recon, cfg.bcs))
    budget = (lambda rhs, faces: tree["diagnostics"].budget_report(
        0.0, rhs, faces, cfg.grid, cfg.gas).csv_row())
    return call, budget


def rounds(text):
    """--rounds: an int of at least 2, the fewest the quartiles need."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--rounds", type=rounds, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    trees = (load(args.old_src, "kepes_old"), load(args.new_src, "kepes_new"))
    print("config n | old us [q1, q3] | new us [q1, q3] | old/new | new won")
    for name, n, law in CONFIGS:
        calls, budgets = zip(*(stage(t, name, n, law, args.seed)
                               for t in trees))
        out = [call() for call in calls]
        if not np.array_equal(out[0][0], out[1][0]):
            sys.exit(f"{name} {law or ''} n={n}: rhs differ")
        if budgets[0](*out[0]) != budgets[1](*out[1]):
            sys.exit(f"{name} {law or ''} n={n}: budget differ")
        start = time.perf_counter()
        calls[0]()
        reps = max(1, int(BATCH_S / (time.perf_counter() - start)))
        us = ([], [])
        for k in range(args.rounds):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                start = time.perf_counter()
                for _ in range(reps):
                    calls[side]()
                us[side].append((time.perf_counter() - start) / reps * 1e6)
        (o1, o2, o3), (n1, n2, n3) = (statistics.quantiles(t, n=4) for t in us)
        won = sum(b < a for a, b in zip(*us))
        print(f"{name} {law or ''} {n} | {o2:.1f} [{o1:.1f}, {o3:.1f}] | "
              f"{n2:.1f} [{n1:.1f}, {n3:.1f}] | {o2 / n2:.3f} | "
              f"{won}/{args.rounds}", flush=True)


if __name__ == "__main__":
    main()
