"""R-F7: overhead decomposition from probe-bus data alone.

R-T1 (:mod:`repro.bench.exp_transitions`) measures transition costs by
differencing the cycle ledger around each thunk.  This experiment
re-derives the same table *without ever reading the ledger delta*: it
attaches a :class:`repro.obs.export.TraceRecorder` around the measured
thunk and sums the ``cost`` fields of the ``cloak.*`` probe events the
engine emitted.  Agreement is the end-to-end proof that the probe
stream is complete — every cycle the cloaking protocol charges on
these paths is visible to observability tooling, so flame summaries
and Perfetto traces built from probes can be trusted to add up.

(The ISSUE text names this table R-F6; that id was already taken by
the sealed-IPC extension, so it registers as ``r-f7``.)
"""

from typing import Dict

from repro.bench import exp_transitions
from repro.bench.tables import Table
from repro.obs import bus
from repro.obs.export import TraceRecorder


def _measure_from_probes(fn) -> Dict[str, int]:
    """Run one scenario; returns probe-derived cost and event count.

    The recorder attaches only around the measured thunk, so prep
    traffic (which R-T1's ledger snapshot also excludes) never lands
    in the sum.
    """
    engine, domain, phys, cycles = exp_transitions._engine()
    prepared = fn(engine, domain, phys)
    recorder = TraceRecorder()
    bus.attach(recorder, cycles)
    try:
        prepared()
    finally:
        bus.detach(recorder)
    cost = 0
    transitions = 0
    for name, __cycle, args in recorder.events:
        fields = bus.PROBES[name]
        if "cost" in fields:
            cost += args[fields.index("cost")]
            transitions += 1
    return {"cycles": cost, "transitions": transitions}


def run(verbose: bool = True) -> Dict[str, int]:
    """Decompose each R-T1 transition from probes; returns
    {transition: probe-derived cycles}."""
    rows = {name: _measure_from_probes(fn)
            for name, fn in exp_transitions.scenarios().items()}
    results = {name: row["cycles"] for name, row in rows.items()}

    if verbose:
        ledger = exp_transitions.run(verbose=False)
        table = Table("R-F7: transition costs decomposed from probe events",
                      ["transition", "probe cycles", "ledger cycles",
                       "events", "match"])
        for name, row in rows.items():
            table.add_row(name, row["cycles"], ledger[name],
                          row["transitions"],
                          "yes" if row["cycles"] == ledger[name] else "NO")
        table.show()
        if results == ledger:
            print("probe decomposition matches the cycle ledger exactly")
        else:
            print("MISMATCH between probe decomposition and cycle ledger")
    return results
