#!/usr/bin/env python3
"""Print the sha256 of every artifact of every preset.

Each preset runs capped at --max-steps, with a snapshot and budget sample
every min(t_final / 4, 0.03) time units, into a temporary directory.  One
Two fixed cases follow, both of which take the forked writer
(driver._FORK_ROWS) on a host with a spare CPU: sod at 2e4 cells, 6 steps,
a snapshot every 2.5e-5 (two mid-run marks), which forks at its first
snapshot; and sod_viscous (500 cells) for 120 steps with a snapshot every
1.25e-4, as in perfbench's budget_dense, whose rows cross the threshold
mid-run.  The last line digests all the others.  Run it against two checkouts and
compare the output to show that a change leaves every snapshot,
budget.csv and metrics.txt byte-identical:

    PYTHONPATH=src python scripts/preset_digests.py > digests.txt
    PYTHONPATH=src python scripts/preset_digests.py --compare digests.txt

With --compare the presets are rerun and only the artifacts whose digest
differs from FILE, or that only one side has, are printed; the exit
status is 1 if there are any and 0 otherwise.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from dataclasses import replace

from kepes.driver import run
from kepes.presets import list_presets, preset


def cases(max_steps: int):
    """(name, config) of every digested run, in a stable order."""
    for name in list_presets():
        base = preset(name)
        yield name, replace(base,
                            snapshot_interval=min(base.time.t_final / 4.0,
                                                  0.03),
                            time=replace(base.time, max_steps=max_steps))
    base = preset("sod")
    yield "sod_n20000", replace(base,
                                grid=replace(base.grid, n_cells=20_000),
                                snapshot_interval=2.5e-5,
                                time=replace(base.time, max_steps=6))
    base = preset("sod_viscous")
    yield "sod_viscous_dense", replace(base, snapshot_interval=1.25e-4,
                                       time=replace(base.time,
                                                    max_steps=120))


def preset_blocks(max_steps: int):
    """Per case, its header line and one "digest  case/artifact" line
    per artifact, in a stable order."""
    with tempfile.TemporaryDirectory() as root:
        for name, config in cases(max_steps):
            output_dir = os.path.join(root, name)
            result = run(config, output_dir)
            block = [f"# {name}: status {result.status}, "
                     f"{result.steps} steps, {result.message}"]
            for artifact in sorted(os.listdir(output_dir)):
                with open(os.path.join(output_dir, artifact), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                block.append(f"{digest}  {name}/{artifact}")
            yield block


def digest_table(lines) -> dict:
    """{artifact: digest} of the digest lines, the "all" line included; a
    preset's header line enters as {"# preset": its status text}."""
    table = {}
    for line in lines:
        if line.startswith("#"):
            name, status = line.split(":", 1)
            table[name] = status
        elif line:
            digest, name = line.split("  ", 1)
            table[name] = digest
    return table


def compare(expected: dict, actual: dict) -> int:
    """Print every artifact that differs or that one side lacks; the
    number of such artifacts."""
    bad = 0
    for name in sorted(expected.keys() | actual.keys()):
        if name not in actual:
            print(f"missing from this run: {name}")
        elif name not in expected:
            print(f"missing from the reference: {name}")
        elif expected[name] != actual[name]:
            print(f"differs: {name}")
        else:
            continue
        bad += 1
    print(f"{bad} of {len(expected.keys() | actual.keys())} artifacts "
          "differ or are missing")
    return bad


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-steps", type=int, default=1500)
    parser.add_argument("--compare", metavar="FILE",
                        help="digest file of an earlier run to check "
                             "against")
    args = parser.parse_args()

    lines = []
    for block in preset_blocks(args.max_steps):
        if args.compare is None:
            print("\n".join(block), flush=True)
        lines += block
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    lines.append(f"{total}  all")
    if args.compare is None:
        print(lines[-1])
        return 0
    with open(args.compare, encoding="utf-8") as fh:
        expected = digest_table(fh.read().splitlines())
    return 1 if compare(expected, digest_table(lines)) else 0


if __name__ == "__main__":
    sys.exit(main())
