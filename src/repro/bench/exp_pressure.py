"""R-F5 (extension): cloaking overhead under memory pressure.

Not a figure from the paper's evaluation proper, but the experiment
its paging protocol exists for: the guest kernel evicts application
pages on a cadence while the application keeps walking its working
set.  Each steal costs the native run a swap roundtrip; the cloaked
run pays encryption on the way out and verification + decryption on
the way back, so its overhead *grows with pressure* — and, crucially,
the application stays correct throughout (the walker checks every
page it reads).
"""

from typing import List, Tuple

from repro.bench.runner import fresh_machine, measure_program, overhead_pct
from repro.bench.tables import Table
from repro.hw.params import MachineParams

#: Reclaim cadence sweep: 0 = no pressure; smaller = harsher.
PRESSURE_LEVELS: Tuple[Tuple[str, int], ...] = (
    ("none", 0),
    ("mild", 400_000),
    ("moderate", 150_000),
    ("harsh", 60_000),
)

WALK_ARGS = ("24", "10", "1500")  # pages, rounds, alu per touch


def _run(cloaked: bool, interval: int):
    # A finer timeslice lets the reclaim cadence actually differ
    # between levels (reclaim fires at scheduling boundaries).
    params = MachineParams(reclaim_interval_cycles=interval,
                           reclaim_batch_pages=8,
                           timeslice_cycles=40_000)
    machine = fresh_machine(cloaked=cloaked, params=params)
    result = measure_program(machine, "memwalk", WALK_ARGS)
    assert "walked" in result.text, result.text
    return result


def run(verbose: bool = True) -> List[Tuple[str, int, int, float, int]]:
    """Rows: (pressure, native, cloaked, overhead %, cloaked swap-ins)."""
    rows = []
    for label, interval in PRESSURE_LEVELS:
        native = _run(False, interval)
        cloaked = _run(True, interval)
        rows.append((
            label,
            native.cycles_total,
            cloaked.cycles_total,
            overhead_pct(native.cycles_total, cloaked.cycles_total),
            cloaked.stats.get("kernel.pages_swapped_in", 0),
        ))

    if verbose:
        table = Table(
            "R-F5 (ext): overhead vs memory pressure (working-set walk)",
            ["pressure", "native", "cloaked", "overhead", "swap-ins"],
        )
        for label, n, c, pct, swapins in rows:
            table.add_row(label, n, c, f"{pct:.1f}%", swapins)
        table.show()
    return rows
