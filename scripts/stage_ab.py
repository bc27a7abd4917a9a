#!/usr/bin/env python3
"""A/B timing of one RHS stage (spatial.assemble_rhs), the CFL step
(timeint.compute_dt), one SSP-RK3 combination (timeint.ssp_rk3_step), one
budget sample (diagnostics.budget_report), the formatting of one
snapshot (driver._write_blocks) and the recording of a stage workspace
(spatial._StageWork and its bind) of two source trees:

    python scripts/stage_ab.py OLD_SRC NEW_SRC [--rounds 25] [--seed 0]

Both kepes packages are imported in one process under their own names.
Each tree's stage is timed the way its march calls it: a tree whose
assemble_rhs takes a workspace (work) refills one held
spatial._StageWork per config on every call, and that tree's one-shot
call, which builds a workspace of its own, is timed beside it.  compute_dt
is timed on the config's (rho, u, p) rows, and ssp_rk3_step on its
conserved state with a stub operator that returns the stage's rhs, so a
step times the three combinations alone; each takes the held rows or
buffers that its tree's march passes, where it takes them.
budget_report is timed on its tree's stage result, each call on a new
FaceData of the same arrays (dataclasses.replace), so that no call reads
a face field cached by an earlier one.  The snapshot is formatted from
the config's (rho, u, p) rows, every block of it into an in-memory sink,
the way its tree's writer formats it: a tree that holds the x column as
text (driver._x_prefixes) formats it once, before the timing, and a tree
with a block formatter (driver._Fields) holds one.  bind is the
process time of building the config's workspace and recording its calls
(_StageWork(...) and bind, a lane process's fork included), measured
around those two in each call, which then closes the workspace.  Per
config the two trees' rhs must be np.array_equal, and so must their
FaceData central, diss, visc, net and cells (FACE_FIELDS); the budget
rows their face records give (diagnostics.budget_report, csv_row) must
be equal, which holds for trees whose budget_report takes no prim, as
must a held call's rhs and its tree's one-shot rhs, the two trees' dt
and stepped states, and the bytes of their snapshots; then each round
times a batch of calls per call kind, alternating which goes first, and
for each of rhs, dt, rk3, budget, snapshot and bind the medians and
quartiles in us per call, old/new of the medians and the rounds the new
tree won are printed, with the median of each tree's one-shot rhs.  The
data are the config's initial state perturbed by a seeded relative
1e-3.  Two trees in one process share one heap, and at 10^4 cells the
first-listed tree read 2-4 % faster on identical call lists, so a
config of at least CHILD_CELLS cells is timed in child processes (this
script with --child), each timing at most CHILD_ROUNDS rounds of one
tree alone; the two trees' children take turns, the tree whose child
runs first alternating from one batch, and from one such config, to
the next, so that load that comes and goes on the host falls on both
trees.  The checks above run in this process for every config.  A
child of a tree whose
stage runs in two lanes from spatial.LANES cells, at a config of at least
that many, also times a held stage in one lane (its spatial._cpus read as
1 while the workspace is built), whose rhs must be np.array_equal to the
two-lane rhs; its median is printed beside the one-shot medians.
"""

import argparse
import importlib.util
import inspect
import json
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

CONFIGS = ([("stationary_shock_m4", 24, law)
            for law in ("roe", "ec1", "kes", "hyb")]
           + [("ns_shock_structure_n50", 50, None), ("sod_viscous", 500, None)]
           + [(name, n, None) for name in ("sod", "ns_shock_structure_n200_d4")
              for n in (200, 10_000)]
           + [("sod", 100_000, None)])
# a config of at least this many cells is timed in child processes, each
# of at most CHILD_ROUNDS rounds: the trees' children take turns, so load
# that comes and goes on the host falls on both trees
CHILD_CELLS = 10_000
CHILD_ROUNDS = 5
# the timed call kinds of each config, in printed order
KINDS = ("rhs", "dt", "rk3", "budget", "snapshot", "bind")
# the FaceData arrays of the stage that the two trees must give equal
FACE_FIELDS = ("central", "diss", "visc", "net", "cells")
BATCH_S = 0.02


def load(src, name):
    """The modules of the kepes package under src, imported as name."""
    spec = importlib.util.spec_from_file_location(
        name, f"{src}/kepes/__init__.py",
        submodule_search_locations=[f"{src}/kepes"])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("config", "diagnostics", "driver", "presets",
                      "spatial", "thermo", "timeint")}


class Sink(list):
    """An in-memory text or binary file: the list of what was written."""
    write = list.append

    def bytes(self) -> bytes:
        return b"".join(s.encode() if isinstance(s, str) else bytes(s)
                        for s in self)


def snapshot(driver, x, rows, gas):
    """A call that formats every block of the snapshot of the (rho, u, p)
    rows of the cells at x into a new Sink, and returns it, as the tree's
    writer formats it."""
    if hasattr(driver, "_x_prefixes"):
        prefixes = driver._x_prefixes(x)
        for k in range(len(prefixes)):
            prefixes[k]  # the writer formats the x text once
        args = (prefixes, driver._columns(rows, gas), range(len(prefixes)))
    else:
        # a tree with no _blocks (block indices) writes a range of rows
        args = (driver._Fields(), driver._columns(x, rows, gas),
                getattr(driver, "_blocks", range)(len(x)))

    def call():
        sink = Sink()
        driver._write_blocks(sink, *args)
        return sink
    return call


def stage(tree, name, n, law, seed):
    """The tree's calls on the config and its data: assemble_rhs as a
    one-shot call and as a call that refills one held workspace (None if
    the tree's assemble_rhs takes none), the budget sample of a result,
    compute_dt, ssp_rk3_step with a stub operator that returns rhs (the
    timed step's dt and rhs are given later), the snapshot, and a call
    that builds and binds a workspace and returns the process time it
    took (bind)."""
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
    spatial, timeint = tree["spatial"], tree["timeint"]
    args = (w, cfg.grid, cfg.gas, cfg.flux_kind, cfg.diss, cfg.recon,
            cfg.bcs)
    held = None
    if "work" in inspect.signature(spatial.assemble_rhs).parameters:
        work = spatial._StageWork(n, cfg.recon, cfg.diss, cfg.gas.is_viscous)
        held = (lambda: spatial.assemble_rhs(*args, work))
    budget = (lambda rhs, faces: tree["diagnostics"].budget_report(
        0.0, rhs, faces, cfg.grid, cfg.gas))
    rows = np.array(q)
    dt_held = rk3_held = ()
    if "rows" in inspect.signature(timeint.compute_dt).parameters:
        dt_held = (tuple(np.empty((2, n))),)
    if "bufs" in inspect.signature(timeint.ssp_rk3_step).parameters:
        rk3_held = (None, (np.empty((3, n)), np.empty((3, n))))
    dt = (lambda: timeint.compute_dt(rows, cfg.grid, cfg.gas, cfg.time.cfl,
                                     *dt_held))
    rk3 = (lambda step_dt, rhs: timeint.ssp_rk3_step(
        w, step_dt, lambda _: rhs, *rk3_held))

    def bind():
        start = time.process_time()
        work = spatial._StageWork(n, cfg.recon, cfg.diss, cfg.gas.is_viscous)
        work.bind(cfg.grid, cfg.gas, cfg.flux_kind, cfg.bcs)
        spent = time.process_time() - start
        work.close()
        return spent
    return ((lambda: spatial.assemble_rhs(*args)), held, budget, dt, rk3,
            snapshot(tree["driver"], cfg.grid.cell_centers(), rows, cfg.gas),
            bind)


def rounds(text):
    """--rounds: an int of at least 2, the fewest the quartiles need."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def time_rounds(timed, n_rounds, kind=None):
    """us per call of every call in timed, one batch per round, with the
    order reversed every other round; the batch size is set by the first
    call's time.  A bind call returns the time it took, which is summed."""
    def batch(call, reps):
        start = time.perf_counter()
        spent = [call() for _ in range(reps)]
        return sum(spent) if kind == "bind" else time.perf_counter() - start

    reps = max(1, int(BATCH_S / batch(next(iter(timed.values())), 1)))
    us = {key: [] for key in timed}
    for k in range(n_rounds):
        for key in (list(timed) if k % 2 == 0 else list(timed)[::-1]):
            us[key].append(batch(timed[key], reps) / reps * 1e6)
    return us


def one_lane(tree, name, n, law, seed):
    """The tree's held stage of the config in one lane, or None where its
    stage would take one lane anyway (a tree without spatial.LANES, or
    fewer cells)."""
    spatial = tree["spatial"]
    if n < getattr(spatial, "LANES", np.inf):
        return None
    cpus, spatial._cpus = spatial._cpus, lambda: 1
    try:
        return stage(tree, name, n, law, seed)[1]
    finally:
        spatial._cpus = cpus


def timed_calls(st, calls, dt, rhs, faces):
    """{kind: {"march": call, "shot": call}} of one tree's stage st: its
    march call of each kind and, for a held rhs, its one-shot call; the
    RK step takes dt and rhs, and the budget sample rhs and faces."""
    shot, held, budget, dt_call, rk3, snap, bind = st
    kinds = {"rhs": {"march": calls}, "dt": {"march": dt_call},
             "rk3": {"march": lambda: rk3(dt, rhs)},
             # a new FaceData per call
             "budget": {"march": lambda: budget(rhs, replace(faces))},
             "snapshot": {"march": snap}, "bind": {"march": bind}}
    if held:
        kinds["rhs"]["shot"] = shot
    return kinds


def child(argv):
    """--child SRC NAME N LAW ROUNDS SEED: time one tree's calls of the
    config alone and print {kind: {"march"/"shot": us}} as JSON."""
    src, name, n, law, n_rounds, seed = argv
    tree = load(src, "kepes_child")
    st = stage(tree, name, int(n), law or None, int(seed))
    calls = st[1] or st[0]
    rhs, faces = calls()
    kinds = timed_calls(st, calls, st[3](), rhs.copy(), faces)
    lane = one_lane(tree, name, int(n), law or None, int(seed))
    if lane:
        if not np.array_equal(lane()[0], rhs):
            sys.exit(f"{name} {law or ''} n={n}: one-lane rhs differ")
        kinds["rhs"]["lane"] = lane
    print(json.dumps({kind: time_rounds(timed, int(n_rounds), kind)
                      for kind, timed in kinds.items()}))


def timed_apart(srcs, name, n, law, args, first):
    """us per call of both trees' calls of the config, {kind: {(side,
    key): us}}, each tree timed in child processes of its own of at most
    CHILD_ROUNDS rounds each, the two trees' children in turn, tree
    first's child first and then first in every other batch."""
    us = {}
    for done in range(0, args.rounds, CHILD_ROUNDS):
        rounds = min(CHILD_ROUNDS, args.rounds - done)
        for side in (first, 1 - first):
            out = subprocess.run(
                [sys.executable, __file__, "--child", srcs[side], name,
                 str(n), law or "", str(rounds), str(args.seed)],
                check=True, capture_output=True, text=True).stdout
            for kind, timed in json.loads(out).items():
                for key, t in timed.items():
                    us.setdefault(kind, {}).setdefault((side, key),
                                                       []).extend(t)
        first = 1 - first
    return us


def row(label, old, new, shot="-"):
    """The printed line of one call kind: the two trees' us per call."""
    (o1, o2, o3), (n1, n2, n3) = (statistics.quantiles(t, n=4)
                                  for t in (old, new))
    won = sum(b < a for a, b in zip(old, new))
    return (f"{label} | {o2:.1f} [{o1:.1f}, {o3:.1f}] | "
            f"{n2:.1f} [{n1:.1f}, {n3:.1f}] | {o2 / n2:.3f} | {shot} | "
            f"{won}/{len(old)}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child(argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--rounds", type=rounds, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    srcs = (args.old_src, args.new_src)
    trees = (load(args.old_src, "kepes_old"), load(args.new_src, "kepes_new"))
    print("config n call | old us [q1, q3] | new us [q1, q3] | old/new | "
          "one-shot old, new us [; one lane old, new us] | new won")
    apart = 0
    for name, n, law in CONFIGS:
        case = f"{name} {law or ''} n={n}"
        stages = [stage(t, name, n, law, args.seed) for t in trees]
        # each tree's call the way its march makes it
        calls = [held or shot for shot, held, *_ in stages]
        out = [call() for call in calls]
        if not np.array_equal(out[0][0], out[1][0]):
            sys.exit(f"{case}: rhs differ")
        for field in FACE_FIELDS:
            if not np.array_equal(getattr(out[0][1], field),
                                  getattr(out[1][1], field)):
                sys.exit(f"{case}: {field} differ")
        # a held result is read before its workspace is refilled
        if (stages[0][2](*out[0]).csv_row()
                != stages[1][2](*out[1]).csv_row()):
            sys.exit(f"{case}: budget differ")
        for shot, held, *_ in stages:
            if held and not np.array_equal(held()[0], shot()[0]):
                sys.exit(f"{case}: held rhs differ")
        dts = [stage[3]() for stage in stages]
        if dts[0] != dts[1]:
            sys.exit(f"{case}: dt differ")
        # both trees step the same state with the same dt and rhs
        dt, rhs = dts[0], out[0][0].copy()
        steps = [(lambda rk3=stage[4]: rk3(dt, rhs)) for stage in stages]
        if not np.array_equal(steps[0](), steps[1]()):
            sys.exit(f"{case}: rk3 differ")
        snapshots = [stage[5] for stage in stages]
        if snapshots[0]().bytes() != snapshots[1]().bytes():
            sys.exit(f"{case}: snapshot differ")
        if n >= CHILD_CELLS:
            us = timed_apart(srcs, name, n, law, args, apart % 2)
            apart += 1
        else:
            # each tree samples its own stage result
            kinds = [timed_calls(st, call, dt, rhs, faces)
                     for st, call, (_, faces) in zip(
                         stages, calls, [call() for call in calls])]
            # each tree's march call and, for rhs, the one-shot call of a
            # tree whose march call is held
            us = {kind: time_rounds(
                {(side, key): kinds[side][kind][key]
                 for key in ("march", "shot") for side in (0, 1)
                 if key in kinds[side][kind]}, args.rounds, kind)
                for kind in KINDS}
        for kind in KINDS:
            shot = "-"
            if kind == "rhs":
                medians = (statistics.median(us[kind].get(
                    (side, "shot"), us[kind][side, "march"]))
                           for side in (0, 1))
                shot = ", ".join(f"{m:.1f}" for m in medians)
                lanes = [us[kind].get((side, "lane")) for side in (0, 1)]
                if any(lanes):
                    shot += "; one lane " + ", ".join(
                        f"{statistics.median(t):.1f}" if t else "-"
                        for t in lanes)
            print(row(f"{name} {law or ''} {n} {kind}", us[kind][0, "march"],
                      us[kind][1, "march"], shot), flush=True)


if __name__ == "__main__":
    main()
