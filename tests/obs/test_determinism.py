"""End-to-end determinism and zero-cost guarantees of observability.

Two properties anchor the subsystem:

* **determinism** — identical runs produce byte-identical JSONL
  traces and metric snapshots (the virtual-cycle clock is the only
  timestamp source);
* **neutrality** — attaching sinks changes no virtual-cycle figure:
  the mb-suite total committed in the cycle ledger must come out
  identical with and without a recorder attached;
* **cheap when off** — with no sink attached, the mb-suite run makes
  no more Python calls into ``repro/obs/`` than a committed ceiling.
"""

import json
import os
import sys
from collections import Counter

from repro.bench import cycles
from repro.bench.runner import fresh_machine, measure_program
from repro.obs import bus
from repro.obs.export import (TraceRecorder, to_jsonl, to_chrome_trace,
                              validate_chrome_trace)
from repro.obs.metrics import MetricsRegistry

#: Python calls into ``repro/obs/`` during one sink-less mb-suite run
#: (all of them ``bus._noop`` from unguarded probe sites).  This may
#: only go down, or go up with a CHANGES.md note saying why.
MB_SUITE_OBS_CALL_CEILING = 345


def traced_run(program="mb-readsec4k", args=("4",)):
    machine = fresh_machine(cloaked=True)
    recorder = TraceRecorder()
    metrics = MetricsRegistry()
    bus.attach(recorder, machine.cycles)
    bus.attach(metrics, machine.cycles)
    try:
        measure_program(machine, program, args)
    finally:
        bus.detach(metrics)
        bus.detach(recorder)
    return machine, recorder, metrics


class TestTraceDeterminism:
    def test_repeated_runs_emit_byte_identical_jsonl(self):
        __, first, __m = traced_run()
        __, second, __m2 = traced_run()
        assert to_jsonl(first.events) == to_jsonl(second.events)

    def test_repeated_runs_emit_identical_metric_snapshots(self):
        __, __r, first = traced_run()
        __, __r2, second = traced_run()
        assert first.to_json() == second.to_json()

    def test_repeated_runs_emit_identical_chrome_traces(self):
        __, first, __m = traced_run()
        __, second, __m2 = traced_run()
        a = json.dumps(to_chrome_trace(first.events), sort_keys=True)
        b = json.dumps(to_chrome_trace(second.events), sort_keys=True)
        assert a == b

    def test_cloaked_run_covers_a_wide_probe_surface(self):
        __, recorder, __m = traced_run()
        distinct = {name for name, __c, __a in recorder.events}
        assert len(distinct) >= 8, sorted(distinct)
        obj = to_chrome_trace(recorder.events)
        assert validate_chrome_trace(obj) == []


class TestSinkNeutrality:
    def test_attached_sink_moves_no_virtual_cycle(self):
        assert cycles.mb_suite_cycles(sink=TraceRecorder()) \
            == cycles.mb_suite_cycles()

    def test_traced_totals_match_committed_benchmark(self):
        assert cycles.mb_suite_cycles(sink=TraceRecorder()) \
            == cycles.committed_cycles("mb-suite")


class TestProbeCostWhenOff:
    def test_no_sink_obs_calls_within_ceiling(self):
        """Counts calls, not seconds, so it holds on any host: a new
        probe fired on a per-op path without an ``ACTIVE`` guard shows
        up as thousands of extra ``bus._noop`` calls."""
        cycles.mb_suite_cycles()  # warm the golden-boot cache first
        obs_dir = os.sep + os.path.join("repro", "obs") + os.sep
        calls = []

        def profile(frame, event, arg):
            if event == "call" and obs_dir in frame.f_code.co_filename:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            cycles.mb_suite_cycles()
        finally:
            sys.setprofile(None)
        assert len(calls) <= MB_SUITE_OBS_CALL_CEILING, \
            Counter(calls).most_common(5)
