"""Wall-clock benchmark harness: how fast the *simulator itself* runs.

Every number the reproduction reports is a virtual-cycle count; wall
clock never appears in any result.  This harness measures the other
axis — how much host time the machine burns producing those numbers —
so host-performance work (vectorized crypto, zero-copy memory paths)
can be held to a recorded trajectory without ever being allowed to
move a virtual-cycle figure.

The contract, enforced here and by CI:

* **virtual cycles are the result** — each workload reports the cycle
  totals of its runs, and ``cycle_hash`` digests them; any host-side
  optimisation must leave the hash bit-identical;
* **wall clock is the harness** — per-workload wall time is measured
  with warmup + repeats + median and recorded next to the cycles in
  ``BENCH_wallclock.json``, so speed and correctness travel together.

Usage::

    python -m repro wallclock                    # full run, writes JSON
    python -m repro wallclock --repeats 1 --warmup 0   # CI smoke
    python -m repro wallclock --check BENCH_wallclock.json
"""

import hashlib
import json
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import cli
from repro.apps.microbench import MICRO_SUITE
from repro.bench.runner import fresh_machine, measure_program

DEFAULT_OUT = "BENCH_wallclock.json"
SCHEMA = 1

#: Cloak-transition stat counters summed into the ``pages`` figure:
#: each is one page-sized crypto or scrub operation.
PAGE_OP_STATS = (
    "cloak.encrypts",
    "cloak.decrypts",
    "cloak.zero_fills",
    "cloak.ct_restores",
)


class WorkloadRun:
    """Deterministic outcome of one workload execution."""

    __slots__ = ("cycles", "pages")

    def __init__(self, cycles: int, pages: int):
        self.cycles = cycles
        self.pages = pages


def _page_ops(stats: Dict[str, int]) -> int:
    return sum(stats.get(key, 0) for key in PAGE_OP_STATS)


# ----------------------------------------------------------------------
# the workload basket
# ----------------------------------------------------------------------

def _wl_mb_suite() -> WorkloadRun:
    """Every syscall microbenchmark, cloaked, default iterations."""
    machine = fresh_machine(cloaked=True)
    cycles = 0
    pages = 0
    for program_cls in MICRO_SUITE:
        result = measure_program(machine, program_cls.name, ())
        cycles += result.cycles_total
        pages += _page_ops(result.stats)
    return WorkloadRun(cycles, pages)


def _wl_fileio_protected() -> WorkloadRun:
    """Protected-file streaming I/O: write then read 256 KiB through
    the cloaked mmap-emulation path (every page encrypts + decrypts)."""
    machine = fresh_machine(cloaked=True, programs=("filestreamer",))
    args = ("/secure/data.bin", "4096", str(256 * 1024))
    write = measure_program(machine, "filestreamer", ("write",) + args)
    read = measure_program(machine, "filestreamer", ("read",) + args)
    return WorkloadRun(write.cycles_total + read.cycles_total,
                       _page_ops(write.stats) + _page_ops(read.stats))


def _wl_forkstress() -> WorkloadRun:
    """Fork-heavy cloaked run: address-space copies drag every parent
    page through the encrypt path."""
    machine = fresh_machine(cloaked=True, programs=("forkstress",))
    result = measure_program(machine, "forkstress", ("4", "20000"))
    return WorkloadRun(result.cycles_total, _page_ops(result.stats))


def _wl_faults_oracle() -> WorkloadRun:
    """Subset of the differential-conformance oracle: each program runs
    native and cloaked from one spec; console transparency is asserted
    exactly as the full oracle does."""
    from repro.faults.oracle import ORACLE_SPECS, run_once

    cycles = 0
    for name in ("shaloop", "filestreamer", "forkstress"):
        spec = ORACLE_SPECS[name]
        native = run_once(spec, cloaked=False)
        cloaked = run_once(spec, cloaked=True)
        if native.console != cloaked.console:
            raise AssertionError(
                f"cloaking not transparent for {name}: "
                f"{native.console!r} != {cloaked.console!r}"
            )
        cycles += native.cycles + cloaked.cycles
    return WorkloadRun(cycles, 0)


WORKLOADS: Dict[str, Callable[[], WorkloadRun]] = {
    "mb-suite": _wl_mb_suite,
    "fileio-protected": _wl_fileio_protected,
    "forkstress": _wl_forkstress,
    "faults-oracle": _wl_faults_oracle,
}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

def time_workload(fn: Callable[[], WorkloadRun], warmup: int,
                  repeats: int) -> Tuple[float, WorkloadRun]:
    """Median wall seconds over ``repeats`` timed runs.

    Every repeat must reproduce the same virtual-cycle total — the
    harness re-checks the determinism guarantee it depends on, and a
    drifting workload is a harness error, not noise.
    """
    for __ in range(warmup):
        fn()
    times: List[float] = []
    reference: Optional[WorkloadRun] = None
    for __ in range(max(1, repeats)):
        # repro: allow(DET001) — this module *is* the wall-clock
        # harness: host time is measured here so it can be kept out of
        # every other module.  Wall seconds go to BENCH_wallclock.json
        # only, never into a virtual-cycle result.
        start = time.perf_counter()
        run = fn()
        # repro: allow(DET001) — second endpoint of the same stopwatch.
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        if reference is None:
            reference = run
        elif (run.cycles, run.pages) != (reference.cycles, reference.pages):
            raise RuntimeError(
                f"workload drifted across repeats: cycles "
                f"{reference.cycles} -> {run.cycles}"
            )
    return statistics.median(times), reference


def cycle_hash(cycles_by_workload: Dict[str, int]) -> str:
    """Digest of every workload's virtual-cycle total, the invariant a
    host-speed change must not move."""
    canonical = json.dumps(cycles_by_workload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def run(warmup: int = 1, repeats: int = 3,
        only: Optional[Tuple[str, ...]] = None,
        verbose: bool = True) -> Dict:
    """Run the basket; returns the report dict (see DEFAULT_OUT)."""
    names = tuple(only) if only else tuple(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise KeyError(f"unknown workloads: {', '.join(unknown)} "
                       f"(available: {', '.join(WORKLOADS)})")
    workloads: Dict[str, Dict] = {}
    cycles_by_workload: Dict[str, int] = {}
    for name in names:
        seconds, ref = time_workload(WORKLOADS[name], warmup, repeats)
        pages_per_sec = (ref.pages / seconds) if (ref.pages and seconds > 0) \
            else None
        workloads[name] = {
            "seconds": round(seconds, 6),
            "cycles": ref.cycles,
            "pages": ref.pages,
            "pages_per_sec": round(pages_per_sec, 1)
            if pages_per_sec is not None else None,
        }
        cycles_by_workload[name] = ref.cycles
        if verbose:
            rate = (f"{pages_per_sec:10.0f} pages/s"
                    if pages_per_sec is not None else " " * 18)
            print(f"  {name:<18} {seconds:9.3f} s  {rate}  "
                  f"cycles={ref.cycles}")
    report = {
        "schema": SCHEMA,
        "warmup": warmup,
        "repeats": repeats,
        "workloads": workloads,
        "cycle_hash": cycle_hash(cycles_by_workload),
    }
    return report


def write_report(report: Dict, out: str = DEFAULT_OUT) -> Path:
    path = Path(out)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def check_against(report: Dict, committed_path: str,
                  seconds_tolerance: Optional[float] = None) -> List[str]:
    """Compare a fresh report against a committed one.

    Returns a list of human-readable problems (empty = consistent).
    Virtual cycles always gate: when the fresh report covers the same
    workload set as the committed one the ``cycle_hash`` values must
    match; for a subset run (``--workloads``) the hash would trivially
    differ, so each covered workload's cycle total is compared
    individually instead.

    Wall seconds are host-dependent by design and gate nothing unless
    ``seconds_tolerance`` (a percentage) is given — then each covered
    workload must run within that margin of its committed wall time.
    That mode exists to bound the *cost of instrumentation*: with no
    sink attached, disabled probes must not slow the simulator.
    """
    problems: List[str] = []
    try:
        committed = json.loads(Path(committed_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"cannot read committed benchmark {committed_path}: {exc}"]
    old = committed.get("workloads", {})
    same_basket = set(old) == set(report["workloads"])
    if same_basket and committed.get("cycle_hash") != report["cycle_hash"]:
        problems.append(
            f"virtual-cycle hash drifted: committed "
            f"{committed.get('cycle_hash')} != fresh {report['cycle_hash']}"
        )
    for name, entry in report["workloads"].items():
        before = old.get(name, {}).get("cycles")
        if before is None:
            if not same_basket:
                problems.append(
                    f"  {name}: not in committed benchmark, cannot compare")
            continue
        if before != entry["cycles"]:
            problems.append(
                f"  {name}: cycles {before} -> {entry['cycles']}"
            )
    if seconds_tolerance is not None:
        for name, entry in report["workloads"].items():
            before = old.get(name, {}).get("seconds")
            if before is None or before <= 0:
                continue
            overhead = (entry["seconds"] - before) / before * 100.0
            if overhead > seconds_tolerance:
                problems.append(
                    f"  {name}: wall time {before:.3f}s -> "
                    f"{entry['seconds']:.3f}s (+{overhead:.1f}% > "
                    f"{seconds_tolerance:g}% tolerance)"
                )
    return problems


def _parser():
    parser = cli.command_parser(
        "wallclock", "Time the workload basket on the host. Virtual "
        "cycles are the result; wall clock is the harness.")
    parser.add_argument("--warmup", type=int, default=1, metavar="N",
                        help="untimed runs per workload "
                             "(default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="timed runs per workload, median reported "
                             "(default: %(default)s)")
    sink = parser.add_mutually_exclusive_group()
    cli.add_out(sink, default=DEFAULT_OUT)
    sink.add_argument("--no-write", dest="out", action="store_const",
                      const=None, help="write no report")
    parser.add_argument("--check", metavar="PATH",
                        help="fail if the cycle hash differs from the "
                             "report at PATH")
    parser.add_argument("--seconds-tolerance", type=float, metavar="PCT",
                        help="with --check, also fail if a workload's "
                             "wall time grew by more than PCT percent")
    parser.add_argument("--workloads", type=cli.comma_list, default=(),
                        metavar="NAME,...",
                        help=f"run only these ({', '.join(WORKLOADS)})")
    return parser


def main(argv: List[str]) -> int:
    """``python -m repro wallclock`` entry point."""
    opts, status = cli.parse(_parser(), argv)
    if opts is None:
        return status
    unknown = [name for name in opts.workloads if name not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)} "
              f"(available: {', '.join(WORKLOADS)})")
        return 2
    print(f"## wall-clock harness (warmup {opts.warmup}, "
          f"repeats {opts.repeats}; "
          "virtual cycles are the result, wall clock is the harness)")
    report = run(warmup=opts.warmup, repeats=opts.repeats,
                 only=opts.workloads or None, verbose=True)
    print(f"cycle hash: {report['cycle_hash']}")
    if opts.out is not None:
        path = write_report(report, opts.out)
        print(f"wrote {path}")
    if opts.check is not None:
        problems = check_against(report, opts.check,
                                 seconds_tolerance=opts.seconds_tolerance)
        for problem in problems:
            print(problem)
        if problems:
            print("wallclock check: FAILED")
            return 1
        what = "cycles"
        if opts.seconds_tolerance is not None:
            what += f" and wall time (±{opts.seconds_tolerance:g}%)"
        print(f"wallclock check: {what} consistent with {opts.check}")
    return 0
