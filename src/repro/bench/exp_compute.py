"""R-F1: compute-workload suite, normalized runtime.

The SPECint-style figure: bars of cloaked runtime normalized to the
native (uncloaked-on-VMM) baseline.  Expected shape: compute-bound
workloads pay only startup + periodic CTC/world-switch costs — single-
digit percent once the run is long enough — because pure user-mode
execution never triggers cloaking transitions.

``compare_program`` also asserts output transparency: native and
cloaked runs must print identical checksums.
"""

from typing import List, Tuple

from repro.apps.compute import COMPUTE_SUITE
from repro.bench.runner import compare_program, overhead_pct
from repro.bench.tables import Table


def run(verbose: bool = True) -> List[Tuple[str, int, int, float]]:
    """Returns rows (kernel, native cycles, cloaked cycles, overhead %)."""
    rows = []
    for program_cls in COMPUTE_SUITE:
        native, cloaked = compare_program(program_cls.name)
        rows.append((
            program_cls.name,
            native.cycles_total,
            cloaked.cycles_total,
            overhead_pct(native.cycles_total, cloaked.cycles_total),
        ))

    if verbose:
        table = Table(
            "R-F1: compute workloads (virtual cycles, normalized)",
            ["kernel", "native", "cloaked", "overhead"],
        )
        for name, native_cycles, cloaked_cycles, pct in rows:
            table.add_row(name, native_cycles, cloaked_cycles, f"{pct:.1f}%")
        mean = sum(r[3] for r in rows) / len(rows)
        table.add_row("geomean-ish (arith.)", "", "", f"{mean:.1f}%")
        table.show()
    return rows
