"""The cycle ledger: four fixed workloads and their virtual-cycle totals.

Every number the reproduction reports is a virtual-cycle count, the
same on every host.  ``CYCLES.json`` at the repository root commits
the totals of four workloads and their digest, ``cycle_hash``.  A
change that is meant to leave the simulated machine alone (a host-speed
optimisation, a new probe, a refactor) must reproduce every total to
the cycle.  Host speed is measured by perfbench, never here.

Usage::

    python -m repro cycles           # run, check against CYCLES.json
    python -m repro cycles --write   # re-record CYCLES.json
"""

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List

import repro
from repro import cli
from repro.apps.microbench import MICRO_SUITE
from repro.bench.runner import fresh_machine, measure_program
from repro.obs import bus

#: The committed ledger: ``{"cycle_hash": ..., "cycles": {name: total}}``.
LEDGER = Path(repro.__file__).resolve().parents[2] / "CYCLES.json"


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------

def mb_suite_cycles(sink=None) -> int:
    """Every syscall microbenchmark, cloaked, default iterations; with
    ``sink`` attached to the probe bus for the run when given."""
    machine = fresh_machine(cloaked=True)
    if sink is not None:
        bus.attach(sink, machine.cycles)
    try:
        return sum(measure_program(machine, cls.name, ()).cycles_total
                   for cls in MICRO_SUITE)
    finally:
        if sink is not None:
            bus.detach(sink)


def fileio_protected_cycles() -> int:
    """Protected-file streaming I/O: write then read 256 KiB through
    the cloaked mmap-emulation path (every page encrypts + decrypts)."""
    machine = fresh_machine(cloaked=True, programs=("filestreamer",))
    args = ("/secure/data.bin", "4096", str(256 * 1024))
    return sum(measure_program(machine, "filestreamer",
                               (mode,) + args).cycles_total
               for mode in ("write", "read"))


def forkstress_cycles() -> int:
    """Fork-heavy cloaked run: address-space copies drag every parent
    page through the encrypt path."""
    machine = fresh_machine(cloaked=True, programs=("forkstress",))
    return measure_program(machine, "forkstress",
                           ("4", "20000")).cycles_total


def faults_oracle_cycles() -> int:
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
    return cycles


WORKLOADS: Dict[str, Callable[[], int]] = {
    "mb-suite": mb_suite_cycles,
    "fileio-protected": fileio_protected_cycles,
    "forkstress": forkstress_cycles,
    "faults-oracle": faults_oracle_cycles,
}


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------

def cycle_hash(cycles: Dict[str, int]) -> str:
    """Digest of every workload's virtual-cycle total."""
    canonical = json.dumps(cycles, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def ledger(cycles: Dict[str, int]) -> Dict:
    """The ledger recording ``cycles``."""
    return {"cycle_hash": cycle_hash(cycles), "cycles": dict(cycles)}


def committed() -> Dict:
    """The committed ledger; raises ``OSError``/``ValueError`` when it
    is missing or is not JSON."""
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def committed_cycles(workload: str) -> int:
    """One workload's committed total; raises ``OSError``/``ValueError``
    when the ledger is unreadable and ``KeyError``/``TypeError`` when it
    holds no total for the workload."""
    return committed()["cycles"][workload]


def drift(fresh: Dict, old: Dict) -> List[str]:
    """What differs between two ledgers, one line per problem."""
    before, after = old.get("cycles", {}), fresh["cycles"]
    problems = [f"  {name}: cycles {before.get(name)} -> {after.get(name)}"
                for name in sorted(set(before) | set(after))
                if before.get(name) != after.get(name)]
    if old.get("cycle_hash") != fresh["cycle_hash"]:
        problems.append(f"  cycle hash: {old.get('cycle_hash')} -> "
                        f"{fresh['cycle_hash']}")
    return problems


def main(argv: List[str]) -> int:
    """``python -m repro cycles`` entry point."""
    parser = cli.command_parser(
        "cycles", "Run the four ledger workloads and fail if any "
        f"virtual-cycle total differs from {LEDGER.name}.")
    parser.add_argument("--write", action="store_true",
                        help=f"re-record {LEDGER.name} instead of "
                             "checking against it")
    opts, status = cli.parse(parser, argv)
    if opts is None:
        return status
    cycles = {}
    for name, workload in WORKLOADS.items():
        cycles[name] = workload()
        print(f"  {name:<18} {cycles[name]:>10} cycles")
    fresh = ledger(cycles)
    print(f"cycle hash: {fresh['cycle_hash']}")
    if opts.write:
        LEDGER.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"wrote {LEDGER}")
        return 0
    try:
        problems = drift(fresh, committed())
    except (OSError, ValueError) as exc:
        problems = [f"  cannot read {LEDGER}: {exc}"]
    for problem in problems:
        print(problem)
    print(f"cycles check: {'FAILED' if problems else 'consistent'} "
          f"with {LEDGER.name}")
    return 1 if problems else 0
