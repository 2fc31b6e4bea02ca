"""Instrumentation the benchmark installs around ``repro``'s public API.

* :class:`SimMeter` is installed on every pass, traced or not.  It
  wraps ``Machine.run`` and reads the public ``machine.cycles``,
  ``machine.tlb`` and ``machine.stats`` around each call, so every
  pass reports the virtual work it simulated.  It costs a few
  microseconds per ``Machine.run`` call, which runs for milliseconds.
* :class:`LayerTrace` is installed only on a traced pass.  It wraps one
  public function per layer boundary (a span: call count and busy
  seconds), profiles the pass with ``cProfile`` aggregated by
  ``repro`` package, and times the garbage collector.

Wrappers are installed where callers look the names up: a module
function is replaced in every ``repro`` module that imported it by
name, and a method is replaced on the class that defines it.  Every
replacement is undone by :meth:`Patcher.restore`.
"""

import cProfile
import functools
import gc
import hashlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layers of ``repro`` whose cProfile calls and self time are reported:
#: the first path component below ``repro/`` (``machine`` is
#: ``repro/machine.py``).
LAYERS = ("hw", "core", "guestos", "machine", "apps", "gen", "faults",
          "serve", "obs")

#: Spans whose time is subtracted from their parent's self time.  What
#: is left of ``faults.run_once`` is the oracle's own work: the
#: exposure scan over every frame and the file checks.
EXCLUDED_CHILDREN = frozenset({"hw.snapshot.restore", "hw.snapshot.capture",
                               "hw.boot", "machine.run"})


class Patcher:
    """Replaces attributes and puts every original back on restore."""

    def __init__(self):
        self._patched: List[Tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module_name: str, attr: str,
                      make: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function in every ``repro`` module that
        holds it, under whatever name it was imported."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for held, value in list(vars(module).items()):
                if value is original:
                    self._set(module, held, wrapper)

    def wrap_method(self, cls: type, attr: str,
                    make: Callable[[Callable], Callable]) -> None:
        """Wrap a method (plain or classmethod) on the class defining it."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched attribute holds its original again."""
        return all(owner.__dict__[attr] is original
                   for owner, attr, original in self._patched)


class SimMeter:
    """Virtual work simulated by every ``Machine.run`` call of a pass.

    The counts come from the simulated machine, so they are identical
    on every host and must not move for a change that only makes the
    simulator faster.
    """

    def __init__(self):
        self.cycles = 0
        self.ops = 0
        self.tlb_hits = 0
        self.tlb_misses = 0
        self.encrypts = 0
        self.decrypts = 0
        self._ledger: List[Tuple[int, int]] = []

    def wrap(self, run: Callable) -> Callable:
        @functools.wraps(run)
        def metered_run(machine, *args, **kwargs):
            cycles0 = machine.cycles.total
            hits0, misses0 = machine.tlb.hits, machine.tlb.misses
            enc0 = machine.stats.get("cloak.encrypts")
            dec0 = machine.stats.get("cloak.decrypts")
            ops = 0
            try:
                ops = run(machine, *args, **kwargs)
                return ops
            finally:
                cycles = machine.cycles.total - cycles0
                self.cycles += cycles
                self.ops += ops or 0
                self.tlb_hits += machine.tlb.hits - hits0
                self.tlb_misses += machine.tlb.misses - misses0
                self.encrypts += machine.stats.get("cloak.encrypts") - enc0
                self.decrypts += machine.stats.get("cloak.decrypts") - dec0
                self._ledger.append((cycles, ops or 0))
        return metered_run

    def cycle_digest(self) -> str:
        """Digest of every Machine.run call's (cycles, ops), in order."""
        blob = json.dumps(self._ledger).encode()
        return hashlib.sha256(blob).hexdigest()

    def counts(self) -> Dict[str, float]:
        lookups = self.tlb_hits + self.tlb_misses
        return {
            "sim.cycles": self.cycles,
            "machine.ops": self.ops,
            "sim.tlb.hit_ratio": (round(self.tlb_hits / lookups, 9)
                                  if lookups else 0.0),
            "sim.cloak.encrypts": self.encrypts,
            "sim.cloak.decrypts": self.decrypts,
        }


class SpanBook:
    """Call counts, busy seconds and self seconds per span name."""

    def __init__(self):
        #: name -> [calls, seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self._stack: List[float] = []

    def wrap(self, name: str) -> Callable[[Callable], Callable]:
        record = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        excluded = name in EXCLUDED_CHILDREN
        clock = time.perf_counter

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def span(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - stack.pop()
                    if excluded and stack:
                        stack[-1] += elapsed
            return span
        return make

    def calls(self, name: str) -> int:
        return self.totals[name][0]


class LayerTrace:
    """Spans at each layer boundary, cProfile by package, GC time."""

    def __init__(self, patcher: Patcher):
        self.patcher = patcher
        self.spans = SpanBook()
        self.profiler = cProfile.Profile()
        self.gc_collections = 0
        self.gc_seconds = 0.0
        self._gc_start = 0.0

    def install(self) -> None:
        from repro.apps.compute import COMPUTE_SUITE
        from repro.core.crypto import PageCipher
        from repro.core.vmm import VMM
        from repro.guestos.kernel import Kernel
        from repro.hw.phys import PhysicalMemory
        from repro.machine import Machine
        # Imported so that wrap_function finds every by-name importer.
        import repro.faults.oracle  # noqa: F401
        import repro.gen.driver  # noqa: F401
        import repro.serve.cluster  # noqa: F401

        book = self.spans
        patch = self.patcher
        patch.wrap_function("repro.faults.oracle", "run_once",
                            book.wrap("faults.run_once"))
        patch.wrap_function("repro.gen.generator", "generate",
                            book.wrap("gen.generate"))
        patch.wrap_function("repro.serve.loadgen", "build_schedule",
                            book.wrap("serve.build_schedule"))
        patch.wrap_function("repro.serve.loadgen", "drive_open_loop",
                            book.wrap("serve.drive_open_loop"))
        patch.wrap_function("repro.hw.snapshot", "capture",
                            book.wrap("hw.snapshot.capture"))
        patch.wrap_method(Machine, "from_snapshot",
                          book.wrap("hw.snapshot.restore"))
        patch.wrap_method(Machine, "__init__", book.wrap("hw.boot"))
        patch.wrap_method(PhysicalMemory, "read_frame",
                          book.wrap("hw.phys.read_frame"))
        patch.wrap_method(Kernel, "handle_syscall",
                          book.wrap("guestos.syscall"))
        patch.wrap_method(VMM, "fill", book.wrap("core.vmm.fill"))
        for attr in ("enter_user", "exit_user"):
            patch.wrap_method(VMM, attr, book.wrap("core.vmm.world_switch"))
        for attr in ("encrypt_page", "decrypt_page", "verify_page"):
            patch.wrap_method(PageCipher, attr, book.wrap("core.crypto.page"))
        for attr in ("seal_message", "open_message"):
            patch.wrap_method(PageCipher, attr,
                              book.wrap("core.crypto.channel"))
        for cls in COMPUTE_SUITE:
            patch.wrap_method(cls, "transform",
                              book.wrap("apps.compute.transform"))
            patch.wrap_method(cls, "generate_input",
                              book.wrap("apps.compute.generate_input"))

    # -- cProfile and GC -------------------------------------------------

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_seconds += time.perf_counter() - self._gc_start

    def start(self) -> None:
        gc.callbacks.append(self._on_gc)
        self.profiler.enable()

    def stop(self) -> None:
        self.profiler.disable()
        gc.callbacks.remove(self._on_gc)

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """cProfile calls and self seconds summed per ``repro`` layer."""
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        self.profiler.create_stats()
        for (filename, _line, _func), stat in self.profiler.stats.items():
            layer = layer_of(filename)
            if layer in calls:
                calls[layer] += stat[1]
                self_s[layer] += stat[2]
        return {"calls": calls, "self_s": self_s}

    # -- report ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        spans = self.spans.totals

        def calls(name):
            return spans[name][0]

        def secs(name):
            return spans[name][1]

        out: Dict[str, float] = {}
        layers = self.by_layer()
        for layer in LAYERS:
            out[f"calls.{layer}"] = layers["calls"][layer]
            out[f"self_s.{layer}"] = layers["self_s"][layer]
        for name in ("faults.run_once", "hw.phys.read_frame",
                     "apps.compute.transform", "apps.compute.generate_input",
                     "machine.run", "guestos.syscall", "hw.snapshot.restore",
                     "core.crypto.page", "core.crypto.channel",
                     "gen.generate"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = secs(name)
        out["faults.run_once.self_s"] = spans["faults.run_once"][2]
        out["core.vmm.fill.calls"] = calls("core.vmm.fill")
        out["core.vmm.world_switch.calls"] = calls("core.vmm.world_switch")
        out["hw.snapshot.capture.s"] = secs("hw.snapshot.capture")
        out["hw.boot.calls"] = calls("hw.boot")
        restores = calls("hw.snapshot.restore")
        boots = calls("hw.boot")
        out["hw.snapshot.hit_ratio"] = (restores / (restores + boots)
                                        if restores + boots else 0.0)
        out["serve.build_schedule.s"] = secs("serve.build_schedule")
        out["serve.drive_open_loop.s"] = secs("serve.drive_open_loop")
        out["py.gc.collections"] = self.gc_collections
        out["py.gc.s"] = self.gc_seconds
        return out

    def silent_spans(self, expected: Tuple[str, ...]) -> List[str]:
        """Spans this workload must reach that never fired."""
        return [name for name in expected if self.spans.calls(name) == 0]


def layer_of(filename: str) -> Optional[str]:
    """The ``repro`` layer a source file belongs to, or None."""
    marker = "/repro/"
    index = filename.replace("\\", "/").rfind(marker)
    if index < 0:
        return None
    rest = filename[index + len(marker):]
    head = rest.split("/", 1)[0]
    return head[:-3] if head.endswith(".py") else head


#: Spans each workload exercises; one that never fires is a benchmark
#: error (its wrapper sits where no caller looks it up).
EXPECTED_SPANS = {
    "fuzz-campaign": ("faults.run_once", "gen.generate", "machine.run",
                      "guestos.syscall", "core.vmm.fill",
                      "core.vmm.world_switch", "hw.snapshot.restore",
                      "hw.snapshot.capture", "hw.boot", "hw.phys.read_frame",
                      "core.crypto.page"),
    "compute-suite": ("apps.compute.transform", "apps.compute.generate_input",
                      "machine.run", "guestos.syscall", "core.vmm.fill",
                      "core.vmm.world_switch", "hw.snapshot.restore",
                      "hw.snapshot.capture", "hw.boot"),
    "serve-kv": ("serve.build_schedule", "serve.drive_open_loop",
                 "machine.run", "guestos.syscall", "core.vmm.fill",
                 "core.vmm.world_switch", "hw.snapshot.restore",
                 "hw.snapshot.capture", "hw.boot", "core.crypto.channel"),
}
