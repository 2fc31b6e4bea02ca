"""Tracing a cloaked run end to end with the cycle profiler (the sink
behind ``python -m repro trace``)."""

import pytest

from repro.apps.secrets import SecretHolder
from repro.bench.runner import fresh_machine, measure_program
from repro.hw.mmu import MODE_KERNEL, SYSTEM_VIEW
from repro.machine import Machine
from repro.obs import bus
from repro.obs.profile import CycleProfiler


def traced_secret_run():
    machine = Machine.build()
    machine.register(SecretHolder, cloaked=True)
    profiler = CycleProfiler(machine.cycles).attach()
    proc = machine.spawn("secretholder", ("6",))
    machine.run_until_output(proc.pid, b"ready\n")
    vaddr = proc.runtime.program.secret_vaddr
    machine.mmu.set_context(proc.asid, SYSTEM_VIEW, MODE_KERNEL)
    machine.mmu.read(vaddr, 8)   # force encrypt
    machine.run()
    profiler.detach()
    return machine, profiler, proc


class TestTracer:
    def test_records_transitions(self):
        machine, profiler, proc = traced_secret_run()
        counts = profiler.transition_counts()
        assert counts.get("zero-fill", 0) >= 1
        assert counts.get("encrypt", 0) + counts.get("ct-restore", 0) >= 1
        assert counts.get("decrypt", 0) >= 1
        # Victim finished fine under tracing.
        assert "intact" in machine.kernel.console.text_of(proc.pid)

    def test_events_are_timestamped_monotonically(self):
        __, profiler, __p = traced_secret_run()
        cycles = [t.cycle for t in profiler.transitions]
        assert cycles and cycles == sorted(cycles)

    def test_hottest_pages_include_secret_page(self):
        __, profiler, proc = traced_secret_run()
        secret_vpn = proc.runtime.program.secret_vaddr >> 12
        assert any(vpn == secret_vpn
                   for __o, vpn, __n, __c in profiler.hottest_pages())

    def test_thrash_report_renders(self):
        __, profiler, __p = traced_secret_run()
        report = profiler.render_thrash()
        assert "page thrash report" in report
        assert "hottest pages" in report
        assert "decrypt" in report

    def test_detach_restores_bus(self):
        machine = Machine.build()
        engine = machine.vmm.cloak
        profiler = CycleProfiler(machine.cycles).attach()
        # The profiler is a probe-bus sink: the cloak methods stay
        # pristine while it is attached.
        assert "_encrypt" not in engine.__dict__
        assert profiler in bus.attached_sinks()
        profiler.detach()
        assert profiler not in bus.attached_sinks()
        assert not bus.ACTIVE

    def test_context_manager(self):
        machine = fresh_machine(cloaked=True)
        with CycleProfiler(machine.cycles) as profiler:
            measure_program(machine, "matmul")
            assert isinstance(profiler.transition_counts(), dict)
        assert profiler not in bus.attached_sinks()
        assert not bus.ACTIVE

    def test_empty_trace_renders(self):
        machine = Machine.build()
        profiler = CycleProfiler(machine.cycles).attach()
        profiler.detach()
        assert "no cloaking transitions" in profiler.render_thrash()

    def test_double_attach_rejected(self):
        machine = Machine.build()
        profiler = CycleProfiler(machine.cycles).attach()
        with pytest.raises(RuntimeError):
            profiler.attach()
        profiler.detach()
        assert not bus.ACTIVE
