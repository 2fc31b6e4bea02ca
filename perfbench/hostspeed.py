"""A fixed reference workload that measures how fast the host runs now.

A shared host changes speed under a benchmark: a vCPU can run ~1.6x
slower for seconds to minutes while its neighbours are busy.  Every
pass times :func:`reference_s` before its set-up and after its timed
pass, and ``run.py`` scales the pass's host seconds by
``REFERENCE_S / (mean of the two reference times)``.  The scaled
figures are the seconds the pass would take on a host that runs the
reference in ``REFERENCE_S``: a slow spell stretches the workload and
the reference alike, so their ratio stays.

The reference uses nothing from ``repro``, so no change to the program
can move it.  It mixes the kinds of host work ``repro`` does: a
dispatch loop over instruction tuples on a slotted object (the
interpreter), building and walking a dict of small lists (page tables,
caches), compiling and executing class definitions and unmarshalling
a nested structure (imports).  A tight arithmetic loop or a hash over
a buffer was tried as the reference and dropped: the slow spells
barely touch the hash and stretch the tight loop more than the
workloads.  The collector is off while the reference runs, so the heap
a workload leaves behind does not change its time.  Peak RSS is read
before the second reference and the first one frees all it built, so
the reference adds about 2 MB to ``rss_peak_mb``, the same at every
commit.
"""

import gc
import hashlib
import marshal
import statistics
import time

#: About the seconds of one reference on the 2-vCPU 2.1 GHz Xeon host
#: the benchmark was built on.  It only sets the scale of the figures;
#: any fixed value would do.
REFERENCE_S = 0.035
#: Timings per measurement; the median is kept.
REPEATS = 5


class _Cpu:
    __slots__ = ("regs", "mem", "pc", "flags", "ticks")

    def __init__(self):
        self.regs = [0] * 8
        self.mem = bytearray(4096)
        self.pc = 0
        self.flags = {}
        self.ticks = 0

    def load(self, reg, addr):
        self.regs[reg] = self.mem[addr & 4095]

    def store(self, reg, addr):
        self.mem[addr & 4095] = self.regs[reg] & 255

    def alu(self, reg, imm):
        value = (self.regs[reg] * 31 + imm) & 0xFFFFFFFF
        self.regs[reg] = value
        self.flags["z"] = value == 0

    def branch(self, reg, target):
        if self.regs[reg] & 1:
            self.pc = target - 1


_PROGRAM = tuple(
    (("load", "store", "alu", "alu", "branch")[i % 5], i % 8, (i * 37) % 4096)
    for i in range(64))

_SOURCE = "\n".join(
    f"class C{i}:\n"
    f"    __slots__ = ('a', 'b')\n"
    f"    def __init__(self, a, b):\n"
    f"        self.a = a\n"
    f"        self.b = b\n"
    f"    def m{i}(self, x):\n"
    f"        return {{'k': x + {i}, 'v': [self.a, self.b, {i}]}}\n"
    f"def f{i}(x, y={i}):\n"
    f"    return C{i}(x, y).m{i}(x) if x else (x, y, '{i}' * 3)\n"
    for i in range(60))

_BLOB = marshal.dumps([
    {"name": f"n{i}", "vals": tuple(range(i % 17)), "s": "x" * (i % 40),
     "f": i * 0.5, "sub": {"a": [i, str(i)], "b": (i, i + 1)}}
    for i in range(4000)])


def _interpret(steps: int = 20_000) -> int:
    cpu = _Cpu()
    ops = {"load": cpu.load, "store": cpu.store, "alu": cpu.alu,
           "branch": cpu.branch}
    program = _PROGRAM
    digest = 0
    for _ in range(steps):
        name, reg, arg = program[cpu.pc]
        ops[name](reg, arg)
        cpu.pc = (cpu.pc + 1) % len(program)
        cpu.ticks += 1
        if cpu.ticks & 1023 == 0:
            digest ^= hashlib.sha256(bytes(cpu.mem[:512])).digest()[0]
    return digest ^ sum(cpu.regs)


def _walk(entries: int = 15_000) -> int:
    table = {(i, i & 7): [i, i * 3, str(i)] for i in range(entries)}
    total = 0
    for key in table:
        total += table[key][1] ^ key[1]
    return total


def _load() -> int:
    namespace = {}
    exec(compile(_SOURCE, "<reference>", "exec"), namespace)
    return len(namespace) + len(marshal.loads(_BLOB))


def reference_s() -> float:
    """Median seconds of :data:`REPEATS` runs of the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            begun = time.perf_counter()
            _interpret()
            _walk()
            _load()
            times.append(time.perf_counter() - begun)
    finally:
        if enabled:
            gc.enable()
        # The compiled classes are cycles; free them now so the arenas
        # they pin are reused and do not raise the pass's peak RSS.
        gc.collect()
    return statistics.median(times)
