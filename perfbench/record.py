"""Record every workload's deterministic outputs into ``expected.json``.

Run it from a clean checkout of the commit whose outputs are the
reference, never from code under test::

    python3 perfbench/record.py --seeds 0-39 1009

It records every workload at each given seed, so that all of
``expected.json`` comes from one source tree.  ``--src`` points the
workers at that tree.  The default and held-out seeds already in
``expected.json`` are kept.
"""

import argparse
import json
import os
import sys

from run import HERE, SRC, WORKLOADS, run_pass

#: Generous per-pass limit: recording is not timed.
PASS_TIMEOUT_S = 600


def parse_seeds(items):
    seeds = []
    for item in items:
        low, _, high = item.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="seeds or inclusive ranges, e.g. 0-39 1009")
    parser.add_argument("--src", default=SRC)
    args = parser.parse_args(argv)

    path = os.path.join(HERE, "expected.json")
    with open(path) as handle:
        expected = json.load(handle)
    for workload in WORKLOADS:
        seeds = expected["workloads"][workload]["seeds"]
        for seed in parse_seeds(args.seeds):
            result = run_pass(workload, seed, "full", False, PASS_TIMEOUT_S,
                              src=os.path.abspath(args.src))
            if result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} units failed", file=sys.stderr)
            seeds[str(seed)] = {"outputs": result["outputs"],
                                "sim": result["sim"]}
            print(f"{workload} seed {seed}: recorded", flush=True)
            with open(path, "w") as handle:
                json.dump(expected, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
