#!/usr/bin/env python3
"""Print the sha256 of every artifact of every preset.

Each preset runs capped at --max-steps, with a snapshot and budget sample
every min(t_final / 4, 0.03) time units, into a temporary directory.  The last line digests all the others.  Run it against
two checkouts and compare the output to show that a change leaves every
snapshot, budget.csv and metrics.txt byte-identical:

    PYTHONPATH=src python scripts/preset_digests.py > digests.txt
"""

import argparse
import hashlib
import os
import tempfile
from dataclasses import replace

from kepes.driver import run
from kepes.presets import list_presets, preset


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-steps", type=int, default=1500)
    args = parser.parse_args()

    lines = []
    with tempfile.TemporaryDirectory() as root:
        for name in list_presets():
            base = preset(name)
            config = replace(base,
                             snapshot_interval=min(base.time.t_final / 4.0,
                                                   0.03),
                             time=replace(base.time,
                                          max_steps=args.max_steps))
            output_dir = os.path.join(root, name)
            result = run(config, output_dir)
            block = [f"# {name}: status {result.status}, "
                     f"{result.steps} steps, {result.message}"]
            for artifact in sorted(os.listdir(output_dir)):
                with open(os.path.join(output_dir, artifact), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                block.append(f"{digest}  {name}/{artifact}")
            print("\n".join(block), flush=True)
            lines += block
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{total}  all")


if __name__ == "__main__":
    main()
