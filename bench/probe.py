"""Set-up probe, run in a fresh interpreter by run.py: import the package
(``shapeapprox.cli`` and everything it pulls in) and build the workload's
inputs, then print the elapsed time and the median of a few reference
readings (see reference.py) as JSON.

    python3 bench/probe.py --workload gen_build --seed 1 --seconds 20
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


READINGS = 9  # reference readings after set-up


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    import workloads

    tasks = workloads.draw(args.workload, args.seed, args.seconds)
    inputs = [workloads.make_inputs(args.workload, t) for t in tasks]
    elapsed = time.perf_counter() - START
    import reference

    readings = [reference.reading() for _ in range(READINGS)]
    print(json.dumps({"setup_s": elapsed, "reference_s": statistics.median(readings),
                      "tasks": len(inputs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
