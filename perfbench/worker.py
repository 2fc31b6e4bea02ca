"""One pass of one workload in a fresh process.

Run by ``run.py``, never by hand::

    python3 perfbench/worker.py WORKLOAD SEED {full,tiny} {0,1}

The process imports ``repro``, sets the workload up, runs one timed
pass and prints one JSON object on its last line of standard output.
A fresh process per pass means a per-process cache (golden boot
snapshots, the crypto memo) can only show a gain that every user of
``python -m repro`` would also get.  The host-speed reference of
``hostspeed.py`` is timed before the imports and after the pass,
outside both timings.  With trace 1 the pass runs under
the layer trace of ``tracing.py`` and the JSON carries its metrics.
"""

import time

from hostspeed import reference_s

REFERENCE_BEFORE_S = reference_s()
START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from tracing import EXPECTED_SPANS, LayerTrace, Patcher, SimMeter  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    workload, seed, size, traced = argv[0], int(argv[1]), argv[2], argv[3]
    setup, run = WORKLOADS[workload]
    traced = traced == "1"

    from repro.machine import Machine

    patcher = Patcher()
    meter = SimMeter()
    trace = LayerTrace(patcher) if traced else None
    try:
        if trace is None:
            patcher.wrap_method(Machine, "run", meter.wrap)
        else:
            trace.install()
            machine_run_span = trace.spans.wrap("machine.run")
            patcher.wrap_method(Machine, "run",
                                lambda fn: machine_run_span(meter.wrap(fn)))
            trace.start()
        state = setup(seed, size == "tiny")
        setup_done = time.perf_counter()
        result = run(state)
        pass_done = time.perf_counter()
        if trace is not None:
            trace.stop()
    finally:
        patcher.restore()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference_after_s = reference_s()

    out = {
        "setup_s": setup_done - START,
        "wall_s": pass_done - setup_done,
        "reference_s": [REFERENCE_BEFORE_S, reference_after_s],
        "rss_mb": rss_mb,
        "attempted": result.attempted,
        "failed": result.failed,
        "outputs": dict(result.outputs, cycle_digest=meter.cycle_digest()),
        "sim": meter.counts(),
        "restored": patcher.restored(),
    }
    if trace is not None:
        out["layers"] = trace.metrics()
        out["silent_spans"] = trace.silent_spans(EXPECTED_SPANS[workload])
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
