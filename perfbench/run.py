"""Run one workload of the repo benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fuzz-campaign --seed 1 \\
        --seconds 40 --trace 0

Each pass runs in a fresh process (``worker.py``): set-up, then one
timed pass.  With ``--trace 0`` passes repeat until ``--seconds`` is
used up and the end-to-end metrics are medians over the passes.  With
``--trace 1`` one untraced and one traced pass run; the traced pass
gives the per-layer metrics and must reproduce every deterministic
output and ``sim.*`` count of the untraced one.

Every pass is checked: its outputs must equal those of the other
passes and, at a seed recorded in ``expected.json``, the recorded
ones.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when the run is correct, 1 when a check failed and 2 when a
pass could not run at all (then no JSON is printed).
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from hostspeed import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("fuzz-campaign", "compute-suite", "serve-kv")

#: Passes a timed run makes even when ``--seconds`` is short.
MIN_PASSES = 3
#: A run must end within 180 s; no pass may start that cannot end
#: before this many seconds.
RUN_LIMIT_S = 160


class PassFailed(Exception):
    """A worker process did not produce a result."""


def run_pass(workload: str, seed: int, size: str, traced: bool,
             timeout: float, src: str = SRC) -> Dict:
    """One worker process running ``repro`` from ``src``; returns its
    JSON result."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), workload,
             str(seed), size, "1" if traced else "0"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload} pass exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} pass exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def load_expected() -> Dict:
    with open(os.path.join(HERE, "expected.json")) as handle:
        return json.load(handle)


def check(passes: List[Dict], recorded) -> List[str]:
    """Problems with a run's passes; an empty list means correct."""
    problems = []
    first = passes[0]
    for index, result in enumerate(passes):
        if not result["restored"]:
            problems.append(f"pass {index}: a wrapper was not restored")
        if result.get("silent_spans"):
            problems.append(f"pass {index}: spans never fired: "
                            f"{result['silent_spans']}")
        for key in ("outputs", "sim"):
            if result[key] != first[key]:
                problems.append(f"pass {index}: {key} differ from pass 0")
    if recorded is not None:
        for key in ("outputs", "sim"):
            if first[key] != recorded[key]:
                problems.append(f"{key} differ from expected.json")
    return problems


def summary(values: List[float]) -> str:
    """Median, the highest value and the sample count.  A run has too
    few passes for any percentile below the maximum to have samples
    beyond it."""
    return (f"median {statistics.median(values):.4f}  max {max(values):.4f}"
            f"  n={len(values)}")


def timed_metrics(passes: List[Dict]) -> Dict[str, Dict]:
    """Medians over passes.  Host seconds are scaled to the reference
    host speed of ``hostspeed.py``, pass by pass; the raw medians are
    printed beside them."""
    scales = [REFERENCE_S / statistics.mean(p["reference_s"])
              for p in passes]
    wall = [p["wall_s"] * k for p, k in zip(passes, scales)]
    series = {
        "wall_s": ("s", wall),
        "sim_mcycles_per_s": ("Mcycle/s", [p["sim"]["sim.cycles"] / 1e6 / w
                                           for p, w in zip(passes, wall)]),
        "setup_s": ("s", [p["setup_s"] * k for p, k in zip(passes, scales)]),
        "rss_peak_mb": ("MB", [p["rss_mb"] for p in passes]),
    }
    for name, (unit, values) in series.items():
        print(f"  {name:<18} {summary(values)} {unit}")
    for name in ("wall_s", "setup_s"):
        raw = [p[name] for p in passes]
        print(f"  raw {name:<14} {summary(raw)} s")
    print(f"  host speed         {summary(scales)} x reference")
    return {name: {"value": statistics.median(values), "unit": unit}
            for name, (unit, values) in series.items()}


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name == "sim.cycles":
        return "cycles"
    if name.endswith("ratio"):
        return "ratio"
    if name.startswith("self_s.") or name.endswith(("_s", ".s")):
        return "s"
    return "count"


def traced_metrics(untraced: Dict, traced: Dict) -> Dict[str, Dict]:
    values = dict(traced["layers"], **traced["sim"])
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    metrics = {}
    for name in sorted(values):
        unit = unit_of(name)
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<34} {values[name]:>16.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the workload for the self-test; "
                             "its outputs are not in expected.json")
    args = parser.parse_args(argv)

    expected = load_expected()["workloads"][args.workload]
    seed = args.seed if args.seed is not None else expected["default_seed"]
    recorded = (expected["seeds"].get(str(seed))
                if args.size == "full" else None)
    # Byte-compile once so that no pass pays for it in setup_s.
    compileall.compile_dir(SRC, quiet=1)

    started = time.monotonic()
    passes: List[Dict] = []
    try:
        if args.trace:
            passes.append(run_pass(args.workload, seed, args.size, False,
                                   RUN_LIMIT_S))
            remaining = RUN_LIMIT_S - (time.monotonic() - started)
            passes.append(run_pass(args.workload, seed, args.size, True,
                                   remaining))
        else:
            durations: List[float] = []
            while True:
                begun = time.monotonic()
                passes.append(run_pass(args.workload, seed, args.size, False,
                                       RUN_LIMIT_S - (begun - started)))
                durations.append(time.monotonic() - begun)
                elapsed = time.monotonic() - started
                budget = (min(args.seconds, RUN_LIMIT_S)
                          if len(passes) >= MIN_PASSES else RUN_LIMIT_S)
                if elapsed + statistics.median(durations) > budget:
                    break
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    problems = check(passes, recorded)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"{args.workload} seed={seed} size={args.size} "
          f"passes={len(passes)} expected="
          f"{'recorded' if recorded is not None else 'not recorded'} "
          f"error_rate={failed / attempted:.4f} ({failed}/{attempted})")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if problems:
        # Outputs that differ fail every unit, and are never a timing.
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1
    if args.trace:
        metrics = traced_metrics(passes[0], passes[1])
    else:
        metrics = timed_metrics(passes)
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
