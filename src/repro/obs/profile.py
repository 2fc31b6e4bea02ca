"""Cycle profiler: attribute the virtual-cycle ledger to components.

The machine's :class:`~repro.hw.cycles.CycleAccount` already splits
time into flat categories (``crypto``, ``mmu``, ``sched``, ...); this
profiler maps that breakdown onto the component tree the paper's
overhead argument is phrased in::

    vmm    — world switches, hypercalls, shadow bookkeeping
      crypto — page encrypt/decrypt/MAC (the cloaking tax proper)
    mmu    — TLB fills, page-table walks, memory traffic
    disk   — block DMA
    guest  — application compute, kernel, scheduler, shim, faults

and renders it as a text flame summary.  Attached to the probe bus it
additionally collects every cloak transition, yielding the per-page
*thrash report*: which (domain, vpn) pairs ping-pong between the
application and system views.

The profiler is a pure observer: it charges nothing, mutates nothing,
and two identical runs produce identical reports.
"""

from typing import Dict, List, Optional, Tuple

from repro.hw.cycles import CycleAccount
from repro.obs import bus

#: component -> cycle-ledger categories it owns (children listed under
#: their parent render indented).  Categories absent here render under
#: "other" so nothing is silently dropped.
COMPONENT_TREE: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "vmm": {"monitor": ("vmm",), "crypto": ("crypto",)},
    "mmu": {"translation": ("mmu",), "memory": ("mem",)},
    "disk": {"dma": ("disk",)},
    "guest": {
        "user": ("user",),
        "kernel": ("kernel",),
        "sched": ("sched",),
        "shim": ("shim",),
        "fault": ("fault",),
    },
}

#: Probe name -> transition kind label.
TRANSITION_KINDS: Dict[str, str] = {
    "cloak.zero_fill": "zero-fill",
    "cloak.decrypt": "decrypt",
    "cloak.encrypt": "encrypt",
    "cloak.ct_restore": "ct-restore",
}


class Transition:
    """One cloak transition observed through the probe bus."""

    __slots__ = ("cycle", "kind", "owner", "vpn", "gpfn", "cost")

    def __init__(self, cycle: int, kind: str, owner: int, vpn: int,
                 gpfn: int, cost: int):
        self.cycle = cycle
        self.kind = kind
        self.owner = owner
        self.vpn = vpn
        self.gpfn = gpfn
        self.cost = cost

    def __repr__(self) -> str:
        return (f"Transition({self.kind}, owner={self.owner}, "
                f"vpn={self.vpn:#x}, cost={self.cost})")


class CycleProfiler:
    """Probe-bus sink + ledger-interval profiler.

    Usage::

        profiler = CycleProfiler(machine.cycles)
        profiler.attach()
        ...run...
        profiler.detach()
        print(profiler.render_flame())
        print(profiler.render_thrash())
    """

    def __init__(self, cycles: CycleAccount):
        self._cycles = cycles
        self._snap = None
        self._delta: Optional[Dict[str, int]] = None
        self._attached = False
        self.transitions: List[Transition] = []
        self.probe_counts: Dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def attach(self) -> "CycleProfiler":
        if self._attached:
            raise RuntimeError("profiler already attached")
        self._snap = self._cycles.snapshot()
        self._delta = None
        bus.attach(self, self._cycles)
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        self._delta = self._cycles.since(self._snap).breakdown()
        bus.detach(self)
        self._attached = False

    def __enter__(self) -> "CycleProfiler":
        if not self._attached:
            self.attach()
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- sink protocol -----------------------------------------------------

    def on_event(self, name: str, cycle: int, args: tuple) -> None:
        self.probe_counts[name] = self.probe_counts.get(name, 0) + 1
        kind = TRANSITION_KINDS.get(name)
        if kind is not None:
            owner, vpn, gpfn, cost = args
            self.transitions.append(
                Transition(cycle, kind, owner, vpn, gpfn, cost))

    # -- attribution -------------------------------------------------------

    def breakdown(self) -> Dict[str, int]:
        """Per-category cycles of the profiled interval (live while
        attached, frozen at detach)."""
        if self._delta is not None:
            return dict(self._delta)
        if self._snap is not None:
            return self._cycles.since(self._snap).breakdown()
        return self._cycles.breakdown()

    def component_tree(self) -> Dict[str, Dict]:
        """{component: {"cycles": n, "children": {child: n}}} plus an
        "other" component for categories outside the tree."""
        categories = self.breakdown()
        remaining = dict(categories)
        tree: Dict[str, Dict] = {}
        for component, children in COMPONENT_TREE.items():
            child_cycles = {}
            for child, cats in children.items():
                count = sum(remaining.pop(cat, 0) for cat in cats)
                if count:
                    child_cycles[child] = count
            if child_cycles:
                tree[component] = {
                    "cycles": sum(child_cycles.values()),
                    "children": child_cycles,
                }
        if remaining:
            leftovers = {cat: n for cat, n in remaining.items() if n}
            if leftovers:
                tree["other"] = {
                    "cycles": sum(leftovers.values()),
                    "children": leftovers,
                }
        return tree

    def render_flame(self) -> str:
        """Text flame summary: components sorted by weight, children
        indented, each with its share of the interval."""
        tree = self.component_tree()
        total = sum(entry["cycles"] for entry in tree.values())
        lines = [f"cycle attribution ({total:,} virtual cycles)"]
        if total == 0:
            return "\n".join(lines + ["  (no cycles in interval)"])

        def bar(cycles: int, width: int = 24) -> str:
            filled = round(width * cycles / total)
            return "#" * filled + "." * (width - filled)

        for component, entry in sorted(tree.items(),
                                       key=lambda kv: -kv[1]["cycles"]):
            share = 100.0 * entry["cycles"] / total
            lines.append(f"  {component:<8} {entry['cycles']:>14,} "
                         f"{share:5.1f}%  {bar(entry['cycles'])}")
            for child, cycles in sorted(entry["children"].items(),
                                        key=lambda kv: -kv[1]):
                child_share = 100.0 * cycles / total
                lines.append(f"    {child:<10} {cycles:>10,} "
                             f"{child_share:5.1f}%")
        return "\n".join(lines)

    # -- per-page thrash ---------------------------------------------------

    def transition_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for t in self.transitions:
            counts[t.kind] = counts.get(t.kind, 0) + 1
        return counts

    def hottest_pages(self, top: int = 10) -> List[Tuple[int, int, int, int]]:
        """(owner, vpn, transitions, cycles) ranked by transition count
        — the pages ping-ponging between views."""
        per_page: Dict[Tuple[int, int], List[int]] = {}
        for t in self.transitions:
            entry = per_page.setdefault((t.owner, t.vpn), [0, 0])
            entry[0] += 1
            entry[1] += t.cost
        ranked = sorted(per_page.items(), key=lambda kv: (-kv[1][0], kv[0]))
        return [(owner, vpn, count, cycles)
                for (owner, vpn), (count, cycles) in ranked[:top]]

    def render_thrash(self, top: int = 10) -> str:
        counts = self.transition_counts()
        lines = ["page thrash report"]
        if not counts:
            return "\n".join(lines + ["  (no cloaking transitions)"])
        for kind in sorted(counts):
            lines.append(f"  {kind:<12} {counts[kind]:>8}")
        lines.append("  hottest pages (owner, vpn, transitions, cycles):")
        for owner, vpn, count, cycles in self.hottest_pages(top):
            lines.append(f"    domain {owner:<4} vpn {vpn:#010x}  "
                         f"x{count:<6} {cycles:>10,} cycles")
        return "\n".join(lines)
