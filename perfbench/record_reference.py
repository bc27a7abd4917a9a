"""Record reference.json: the default-seed final state of every case.

Each case is run once through driver.run with its default-seed initial
data; the run must pass every other check before its final snapshot is
sampled (rho, u, p at up to checks.REFERENCE_SAMPLES cells).  Re-record
only on purpose: the benchmark holds later code to these values.

    python3 perfbench/record_reference.py
"""

import json
import sys

import checks
import workloads

OUT = workloads.ROOT / ".perfbench_out" / "reference"


def main() -> int:
    workloads.import_kepes()
    import kepes.driver

    reference = {}
    for workload in workloads.WORKLOADS:
        cases = workloads.build_cases(workload)
        states = workloads.initial_states(cases, workloads.DEFAULT_SEED)
        reference[workload] = {}
        with workloads.seeded_inputs(states):
            for case in cases:
                result = kepes.driver.run(case.config,
                                          str(OUT / workload / case.tag))
                problems = checks.check_run(case, result, None)
                if problems:
                    print(f"{workload}/{case.tag}: {problems}",
                          file=sys.stderr)
                    return 1
                _, rows = checks.read_csv(result.snapshots[-1])
                reference[workload][case.tag] = checks.final_sample(rows)
    # one line per case keeps the file small and its diffs readable
    lines = [f" {json.dumps(workload)}: {{\n" + ",\n".join(
        f"  {json.dumps(tag)}: {json.dumps(sample)}"
        for tag, sample in cases.items()) + "\n }"
        for workload, cases in reference.items()]
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
