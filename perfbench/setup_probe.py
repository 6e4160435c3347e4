"""Set-up probe: one fresh interpreter that gets ready to send the first request.

It imports `expbounds.cli`, builds the workload's inputs and loads every
config and lattice file they name, then prints one JSON line with the time
the import took.  `run.py` times the probe from spawn to that line.

    python3 perfbench/setup_probe.py --workload W --seed N --tmpdir DIR [--quick]
"""

import argparse
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    t0 = perf_counter()
    import expbounds.cli  # noqa: F401  (the import is what is timed)

    import_s = perf_counter() - t0
    import workloads

    workloads.load_inputs(workloads.build(args.workload, args.seed, args.tmpdir, args.quick))
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
