"""``python -m repro``: regenerate the evaluation.

Usage::

    python -m repro [KEY ...]      # run experiments (default: all)
    python -m repro --list         # the experiment index
    python -m repro faults         # differential conformance + fault matrix
    python -m repro fuzz           # seeded differential fuzzing campaign
    python -m repro serve          # open-loop cluster serving -> JSON report
    python -m repro trace PROGRAM  # probe-bus trace -> Perfetto JSON
    python -m repro cycles         # check the virtual-cycle ledger CYCLES.json

``python -m repro <command> --help`` lists each command's flags.
"""

import sys
from importlib import import_module
from typing import Callable, Dict, List

from repro import cli


def _experiments() -> Dict[str, Callable]:
    from repro.bench import (
        ablation,
        sensitivity,
        exp_attacks,
        exp_channels,
        exp_cluster,
        exp_compute,
        exp_decomp,
        exp_faults,
        exp_fileio,
        exp_forkexec,
        exp_fuzz,
        exp_overhead,
        exp_pressure,
        exp_syscalls,
        exp_transitions,
        exp_webserver,
    )

    return {
        "r-t1": exp_transitions.run,
        "r-t2": exp_syscalls.run,
        "r-t3": exp_overhead.run,
        "r-t4": exp_attacks.run,
        "r-t5": exp_faults.run,
        "r-t6": exp_fuzz.run,
        "r-t7": exp_cluster.run,
        "r-f1": exp_compute.run,
        "r-f2": exp_fileio.run,
        "r-f3": exp_webserver.run,
        "r-f4": exp_forkexec.run,
        "r-f5": exp_pressure.run,
        "r-f6": exp_channels.run,
        "r-f7": exp_decomp.run,
        "r-a1": ablation.run_lazy_vs_eager,
        "r-a2": ablation.run_integrity_modes,
        "r-a3": ablation.run_shadow_policy,
        "r-a4": sensitivity.run,
    }


DESCRIPTIONS = {
    "r-t1": "cloaking state-transition cost matrix",
    "r-t2": "syscall microbenchmarks (native vs cloaked)",
    "r-t3": "VMM resource overhead + event counts",
    "r-t4": "security evaluation (attack outcome matrix)",
    "r-t5": "fault-injection recovery matrix (extension)",
    "r-t6": "differential fuzzing campaign over generated guests (extension)",
    "r-t7": "cluster serving: open-loop capacity scaling + tail overhead "
            "(extension)",
    "r-f1": "compute workloads, normalized runtime",
    "r-f2": "file-I/O bandwidth vs buffer size",
    "r-f3": "web-server throughput vs concurrency",
    "r-f4": "fork/exec-heavy workloads",
    "r-f5": "overhead vs memory pressure (extension)",
    "r-f6": "sealed-IPC throughput vs message size (extension)",
    "r-f7": "transition costs decomposed from probe-bus events (extension)",
    "r-a1": "ablation: lazy vs eager re-encryption",
    "r-a2": "ablation: protection modes",
    "r-a3": "ablation: multi-shadowing vs flush",
    "r-a4": "cost-model sensitivity analysis",
}


#: ``python -m repro <command> ...`` -> ``module:function``.  The
#: function takes the argv after the command and returns the exit
#: status; its module is imported only when the command runs.
COMMANDS = {
    "faults": "repro.bench.exp_faults:faults_main",
    "fuzz": "repro.bench.exp_fuzz:fuzz_main",
    "serve": "repro.bench.exp_cluster:serve_main",
    "cycles": "repro.bench.cycles:main",
    "trace": "repro.obs.cli:main",
}


def _run_experiments(argv: List[str]) -> int:
    parser = cli.command_parser(
        description="Run the selected experiments (default: all) and "
                    "print their tables.")
    parser.epilog = (f"commands: {', '.join(COMMANDS)} "
                     "(python -m repro <command> --help)")
    parser.add_argument("-l", "--list", action="store_true",
                        help="show available experiments")
    parser.add_argument("keys", nargs="*", type=str.lower, metavar="KEY",
                        help="experiment key, e.g. r-f1")
    opts, status = cli.parse(parser, argv)
    if opts is None:
        return status

    experiments = _experiments()
    if opts.list:
        for key in experiments:
            print(f"{key:6s} {DESCRIPTIONS[key]}")
        return 0

    unknown = [key for key in opts.keys if key not in experiments]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(experiments)}", file=sys.stderr)
        return 2

    for key in opts.keys or experiments:
        print(f"\n### {key.upper()}: {DESCRIPTIONS[key]}")
        experiments[key](verbose=True)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    entry = COMMANDS.get(argv[0].lower()) if argv else None
    if entry is None:
        return _run_experiments(argv)
    module, _, function = entry.partition(":")
    return getattr(import_module(module), function)(argv[1:])


if __name__ == "__main__":
    sys.exit(main())
