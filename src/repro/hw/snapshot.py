"""Copy-on-write machine snapshots: boot once, restore per run.

A snapshot clones a quiescent booted machine the way a hypervisor
forks a VM: guest-physical memory is captured **once** as immutable
per-frame ``bytes`` shared by every restore (COW — see
:class:`repro.hw.phys.PhysicalMemory`), and the small mutable state
(allocator free lists, pagetables/TLB, cloak metadata, ramfs,
scheduler, RNG streams, the cycle ledger) is unpickled per restore.
A restored machine is therefore *architecturally indistinguishable*
from the machine that was captured — same cycle total, same register
file, same free-list order, same fault-plan substream positions — so
a run started from a restore is cycle- and state-identical to the
same run started from a fresh boot that reached the capture point.
The snapshot equivalence property test proves this for all registered
guest programs, native and cloaked.

What is shared vs. copied (module-scope state is inventoried in
:data:`SNAPSHOT_DISPOSITIONS` and checked by :func:`check_inventory`):

* **shared** — frozen frame contents (immutable ``bytes``), program
  images and factories, cost tables / machine params (frozen
  dataclasses), and the pure memoized derivations in
  ``repro.core.crypto`` (module-scope caches keyed by immutable
  inputs).
* **copied** — everything reachable from the machine object graph:
  kernel, VMM, MMU/TLB, CPU, allocator, disk, cycle ledger, fault
  plan.  Capture pickles the live machine once into an immutable
  blob; every restore unpickles it.  Pickle's memo preserves interior
  aliasing (e.g. the TLB entry a translation returned, the metadata
  record two cloak paths share) *inside* a restore, and the blob is
  bytes, so nothing mutable is shared *across* restores or with the
  source machine.  A machine that cannot be pickled cannot be
  captured (:class:`SnapshotError`).

Restrictions, by construction:

* **Quiescence.** Only a machine whose every process has exited
  (ZOMBIE/DEAD) can be captured: live runtimes are Python generators,
  which cannot be cloned.  This mirrors the fork limitation
  documented in ``docs/PERFORMANCE.md`` — snapshots capture machine
  state, not guest control flow.
* **Fault plans.** A snapshot captured under a fault plan can only be
  restored under a fault plan (the injector wrappers are part of the
  machine structure), and vice versa.  Restore rebinds every wrapper
  to the *caller's* plan and fast-forwards it over the boot window's
  opportunity stream; if the caller's arms would have fired inside
  that window, the snapshot is declared unusable
  (:class:`SnapshotUnusable`) and the caller falls back to a fresh
  boot — never a silently different fault schedule.

Golden boots: :func:`golden` is the one process-wide boot cache.
Harnesses (faults oracle, microbench runner, cluster shards) ask it
for a snapshot by key and restore per run; fork-context workers
inherit it.  The :func:`force_fresh` context manager makes
:func:`snapshots_enabled` return False, and those harnesses then boot
fresh machines instead — the reference the determinism checks compare
restores against.
"""

import enum
import io
import pickle
from contextlib import contextmanager
from typing import Any, Callable, Dict, FrozenSet, Hashable, Iterable, List

from repro.hw.phys import BaseFrames, PhysicalMemory
from repro.obs import bus

#: Process states a capturable machine may contain (quiescence).
_QUIESCENT_STATES = frozenset({"ZOMBIE", "DEAD"})

#: Session-level kill switch (see :func:`force_fresh`).
_enabled = True


class SnapshotError(RuntimeError):
    """The machine cannot be captured (not quiescent, live runtimes,
    or an object graph that cannot be pickled)."""


class SnapshotUnusable(SnapshotError):
    """This snapshot cannot honour the requested restore (plan
    mismatch, or an arm would have fired inside the captured boot
    window).  Callers fall back to a fresh boot."""


def snapshots_enabled() -> bool:
    """False inside :func:`force_fresh`."""
    return _enabled


@contextmanager
def force_fresh():
    """Context manager: disable snapshot reuse (fresh boots only).

    The determinism guard in ``benchmarks/conftest.py`` replays
    experiments under this to prove both boot modes agree.
    """
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


class _InertRuntime:
    """Tombstone replacing the runtime of an exited process.

    Runtimes of live processes are generators and cannot be cloned;
    quiescence guarantees the kernel never resumes an exited task, so
    its runtime only needs to *exist*.  Any attempt to drive it is a
    snapshot-layer bug, reported as such.
    """

    def next_op(self, result):
        raise SnapshotError("resumed the runtime of an exited process "
                            "after a snapshot restore")

    def deliver_signal(self, sig) -> bool:
        raise SnapshotError("signalled the runtime of an exited process "
                            "after a snapshot restore")


class _SnapPickler(pickle.Pickler):
    """Pickler that externalises the snapshot's shared objects.

    Objects tagged in ``pids`` (the physical memory, frozen params and
    cost tables, exited runtimes, registry entries — whose runtime
    factories are closures and could not be pickled anyway) are written
    as persistent references; :meth:`SnapshotState.restore` swaps in
    the per-restore replacements.  Everything else round-trips through
    pickle's C implementation, whose memo preserves interior aliasing.
    """

    def __init__(self, file, pids: Dict[int, tuple],
                 dynamic: Dict[tuple, Any]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._pids = pids
        self._dynamic = dynamic

    def persistent_id(self, obj):
        pid = self._pids.get(id(obj))
        if pid is None and isinstance(obj, enum.Enum):
            # Enum members are process-wide singletons; sharing them
            # skips the slow EnumType.__call__ reconstruction that
            # pickle would otherwise run on every restore.
            pid = ("enum", type(obj).__qualname__, obj.name)
            self._dynamic[pid] = obj
        return pid


class SnapshotState:
    """One captured machine: shared frozen frames + a pickled image.

    Build with :func:`capture`; clone machines with :meth:`restore`.
    The object is immutable from the caller's point of view — any
    number of machines can be restored from it, concurrently safe in
    the single-thread sense (restores share only immutable state).
    """

    __slots__ = ("base", "frames_captured", "procs", "planned",
                 "capture_armed", "boot_opportunities", "boot_fires",
                 "_blob", "_shared", "_fresh")

    def __init__(self, machine, base: BaseFrames):
        plan = machine.faults
        self.base = base
        self.frames_captured = sum(1 for b in base if b is not None)
        self.procs = len(machine.kernel.processes)
        self.planned = plan is not None
        self.capture_armed: FrozenSet[str] = (
            frozenset(plan._arms) if plan is not None else frozenset())
        self.boot_opportunities: Dict[str, int] = (
            dict(plan._opportunities) if plan is not None else {})
        self.boot_fires = plan.total_fires() if plan is not None else 0
        self._serialize(machine)

    def _serialize(self, machine) -> None:
        """Pickle the live ``machine`` into the restore blob, so each
        restore is one C-speed ``loads``.

        Shared/per-restore objects become persistent references:
        the COW physical memory (fresh :meth:`PhysicalMemory.from_base`
        per restore), the frozen params/costs, the registry entries,
        one shared :class:`_InertRuntime` standing in for every exited
        process's runtime, and the fault plan (rebound to the caller's
        plan).  The blob is bytes, so it shares nothing mutable with
        the source machine, which stays usable.  Raises
        :class:`SnapshotError` if the object graph cannot be pickled.
        """
        shared: Dict[tuple, Any] = {
            ("params",): machine.params,
            ("costs",): machine.params.costs,
            ("inert",): _InertRuntime(),
        }
        for name, entry in machine.kernel._registry.items():
            shared[("registry", name)] = entry
        pids = {id(obj): tag for tag, obj in shared.items()}
        for proc in machine.kernel.processes.values():
            pids[id(proc.runtime)] = ("inert",)
        pids[id(machine.phys)] = ("phys",)
        if machine.faults is not None:
            pids[id(machine.faults)] = ("plan",)
        # Large flat lists (allocator/block free lists, disk blocks)
        # restore as one C-speed copy of a frozen template instead of
        # element-by-element unpickling.  Only private, non-aliased
        # attributes are tagged this way: each restore gets exactly one
        # copy per tag, so a second reference would alias it.
        fresh = {
            "alloc._free": machine.alloc._free,
            "cache._free": machine.kernel.cache._free,
            "disk._blocks": machine.disk._blocks,
        }
        for tag, lst in fresh.items():
            pids[id(lst)] = ("list", tag)
        buf = io.BytesIO()
        dynamic: Dict[tuple, Any] = {}
        try:
            _SnapPickler(buf, pids, dynamic).dump(machine)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise SnapshotError(
                f"cannot snapshot: the machine's object graph cannot be "
                f"pickled ({exc})") from exc
        shared.update(dynamic)
        self._blob = buf.getvalue()
        self._shared = shared
        self._fresh = {tag: tuple(lst) for tag, lst in fresh.items()}

    # -- restore -----------------------------------------------------------

    def restore(self, plan=None):
        """A fresh machine, architecturally identical to the captured
        one, with COW physical memory over the shared frozen frames.

        ``plan`` must be given iff the snapshot was captured under a
        fault plan; every injector wrapper in the restored machine is
        rebound to it, and the plan is fast-forwarded over the boot
        window (see module docstring).  Raises
        :class:`SnapshotUnusable` when that cannot be done faithfully.
        """
        if self.planned != (plan is not None):
            raise SnapshotUnusable(
                "snapshot captured %s a fault plan; restore requested %s one"
                % ("under" if self.planned else "without",
                   "under" if plan is not None else "without"))
        if plan is not None:
            self._check_plan(plan)
        resolve = dict(self._shared)
        resolve[("phys",)] = PhysicalMemory.from_base(self.base)
        resolve[("plan",)] = plan
        for tag, template in self._fresh.items():
            resolve[("list", tag)] = list(template)
        unpickler = pickle.Unpickler(io.BytesIO(self._blob))
        unpickler.persistent_load = resolve.__getitem__
        machine = unpickler.load()
        if plan is not None:
            self._seed_plan(plan)
        if bus.ACTIVE:
            bus.snapshot_restore(self.frames_captured)
        return machine

    # -- fault-plan fast-forward -------------------------------------------

    def _check_plan(self, plan) -> None:
        """Would restoring under ``plan`` replay the boot faithfully?"""
        if self.boot_fires:
            raise SnapshotUnusable(
                f"{self.boot_fires} fault(s) fired before capture; the "
                "payload RNG draws cannot be replayed into a new plan")
        for site, arm in plan._arms.items():
            if site not in self.capture_armed:
                raise SnapshotUnusable(
                    f"site {site!r} was not armed at capture, so its boot "
                    "opportunity count is unknown")
            count = self.boot_opportunities.get(site, 0)
            if count == 0:
                continue
            if arm.nth is not None:
                would_fire = arm.nth < count
            else:
                would_fire = count >= arm.every
            if would_fire:
                raise SnapshotUnusable(
                    f"arm {arm.spec()} would have fired within the captured "
                    f"boot window ({count} opportunities)")

    def _seed_plan(self, plan) -> None:
        """Fast-forward ``plan`` over the captured boot window.

        After this, the plan's opportunity counters sit exactly where a
        fresh boot under the same plan would have left them
        (``_check_plan`` proved no arm fires in the window, so no
        payload draws are owed and the substreams are untouched).
        """
        for site in plan._arms:
            count = self.boot_opportunities.get(site, 0)
            if count == 0:
                continue
            plan._opportunities[site] = \
                plan._opportunities.get(site, 0) + count


def capture(machine) -> SnapshotState:
    """Snapshot a quiescent machine (see module docstring).

    The source machine remains usable — its frame contents are frozen
    by value and the image is pickled — but the cheap pattern is
    boot → capture → discard, then :meth:`SnapshotState.restore` per
    run.
    """
    _check_quiescent(machine)
    snapshot = SnapshotState(machine, machine.phys.freeze_base())
    if bus.ACTIVE:
        bus.snapshot_capture(snapshot.frames_captured, snapshot.procs)
    return snapshot


def _check_quiescent(machine) -> None:
    for proc in machine.kernel.processes.values():
        if proc.state.name not in _QUIESCENT_STATES:
            raise SnapshotError(
                f"cannot snapshot: process {proc.pid} ({proc.name}) is "
                f"{proc.state.name} — live runtimes are generators and "
                "cannot be cloned; snapshot at a quiescent point")
    if getattr(machine.kernel, "_sleepers", ()):
        raise SnapshotError("cannot snapshot: sleepers are pending")
    if getattr(machine.kernel.scheduler, "_ready", ()):
        raise SnapshotError("cannot snapshot: the run queue is not empty")


# ---------------------------------------------------------------------------
# the golden-boot cache
# ---------------------------------------------------------------------------

#: Golden boot snapshots, by caller-chosen key (first element: the
#: calling module's name, so harnesses cannot collide).
_golden: Dict[Hashable, SnapshotState] = {}


def golden(key: Hashable, boot: Callable[[], Any]) -> SnapshotState:
    """The golden snapshot for ``key``, booting it on first use.

    ``boot()`` returns a freshly booted, quiescent machine; it runs
    once per key and is captured through :func:`capture`.  Later calls
    return the same :class:`SnapshotState`, so each harness boots once
    per configuration and restores per run.

    A snapshot cannot cross a pickling process boundary (the kernel
    registry's runtime factories are closures), but the cache rides
    POSIX fork inheritance: a parent that fills a key before forking
    hands every ``multiprocessing`` "fork" worker a copy-on-write view
    of it.  The cluster harness (:mod:`repro.serve.cluster`) does this
    for its shard workers — one boot, N machines, zero serialization.
    """
    snapshot = _golden.get(key)
    if snapshot is None:
        snapshot = capture(boot())
        _golden[key] = snapshot
    return snapshot


def clear_golden() -> None:
    """Drop every golden snapshot (test teardown / memory hygiene)."""
    _golden.clear()


# ---------------------------------------------------------------------------
# shared-state cross-check
# ---------------------------------------------------------------------------

#: Disposition of every piece of process-wide mutable state in
#: ``hw``/``core`` (module globals and class attributes, as found by
#: :func:`repro.analysis.shared_state.shared_state_keys`) under
#: snapshot/restore.  Such state lives outside the machine object graph,
#: so it is ``shared`` by every restore and must be immutable-valued or
#: a pure memo keyed only by immutable inputs.
SNAPSHOT_DISPOSITIONS: Dict[str, str] = {
    # Pure derivation caches: (key material, inputs) -> derived bytes.
    # Values are immutable and the mapping is keyed by content (LRU
    # eviction only drops entries a miss recomputes identically), so
    # sharing across restores cannot couple two machines.
    "repro.core.crypto:_derive_memo": "shared",
    "repro.core.crypto:_keystream_memo": "shared",
    "repro.core.crypto:_principal_memo": "shared",
    # The golden-boot cache: deliberately module-scope (fork
    # inheritance is the only way a SnapshotState crosses a process
    # boundary), holding only immutable-from-the-caller's-view
    # SnapshotStates — restores from one share nothing mutable with
    # each other.
    "repro.hw.snapshot:_golden": "shared",
}


def check_inventory(keys: Iterable[str]) -> List[str]:
    """Cross-check the shared-state ``keys`` against
    :data:`SNAPSHOT_DISPOSITIONS`.

    Every piece of process-wide mutable state in ``hw``/``core`` must
    have an explicit snapshot disposition, and every disposition must
    still correspond to such state — so new shared state cannot
    silently alias across restores, and stale entries cannot mask one.
    Returns a list of problems (empty = consistent); the snapshot test
    suite asserts it is empty for the committed tree.
    """
    found = set(keys)
    problems = []
    for item in sorted(found - set(SNAPSHOT_DISPOSITIONS)):
        problems.append(
            f"shared state {item!r} has no snapshot disposition — "
            "classify it in repro.hw.snapshot.SNAPSHOT_DISPOSITIONS")
    for item in sorted(set(SNAPSHOT_DISPOSITIONS) - found):
        problems.append(
            f"snapshot disposition for {item!r} is stale — the item is "
            "no longer process-wide mutable state")
    return problems
