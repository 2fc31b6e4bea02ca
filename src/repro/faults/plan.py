"""Deterministic fault plans: *which* faults fire, and *when*.

A :class:`FaultPlan` is the sole source of nondeterminism-shaped
behaviour in a fault-injected run, and it is not nondeterministic at
all: firing is a pure function of (arm, opportunity index), and every
armed injection site draws its corruption payloads from its own
``random.Random(f"{seed}:{site}")`` substream.  Two machines built from
equal plans observe byte-identical fault sequences, which is what lets
the differential oracle (:mod:`repro.faults.oracle`) compare a faulty
run against itself and the per-site tests replay any failure from the
seed printed in the assertion message.

Vocabulary:

* An **injection point** (or *site*) is a named place in the simulated
  stack where a fault class can physically occur (a disk read, a TLB
  invalidation, a shadow fill...).  The registry below is the complete
  catalog; arming an unknown site is an error.
* An **opportunity** is one dynamic occasion where an armed site could
  fire — e.g. one disk read.  Opportunities are only counted while the
  site is armed, so their indices are stable across identical runs.
* An **arm** selects a site and a firing rule over its opportunity
  stream: the *nth* opportunity, or *every* nth.

Containment contracts: every site declares the worst outcome the
cloaking protocol allows it.  ``recover`` sites are absorbed
transparently (the run completes with unchanged architectural state);
``detect`` sites may cost availability but must surface as a typed
:class:`repro.core.errors.IntegrityViolation` before any corrupted
byte reaches a cloaked application.  *Silently* corrupting cloaked
data is never acceptable — that invariant is what the per-site tests
and the fault-recovery matrix (R-T5) check.
"""

import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs import bus

#: Containment contract values.
CONTAIN_RECOVER = "recover"
CONTAIN_DETECT = "detect"

# -- site names (import these; string typos would silently disarm) ----------

SITE_DISK_READ_BITFLIP = "hw.disk.read.bitflip"
SITE_DISK_READ_ERROR = "hw.disk.read.error"
SITE_DISK_WRITE_BITFLIP = "hw.disk.write.bitflip"
SITE_DISK_WRITE_TORN = "hw.disk.write.torn"
SITE_DISK_WRITE_LOST = "hw.disk.write.lost"
SITE_TLB_FLUSH_LOST = "hw.tlb.flush.lost"
SITE_SHADOW_STALE = "core.vmm.shadow.stale"
SITE_HYPERCALL_DUPLICATE = "core.vmm.hypercall.duplicate"
SITE_HYPERCALL_RETRY = "core.vmm.hypercall.retry"
SITE_MAC_TRUNCATE = "core.cloak.mac.truncate"
SITE_IV_REUSE = "core.cloak.iv.reuse"
SITE_EVICT_UNDER_USE = "guestos.swap.evict_under_use"
SITE_SWAPIN_CORRUPT = "guestos.swap.corrupt_swapin"
SITE_WRITEBACK_LOST = "guestos.blockcache.lost_writeback"


class InjectionPoint:
    """Static description of one fault site (see module docstring)."""

    __slots__ = ("site", "layer", "description", "containment")

    def __init__(self, site: str, layer: str, description: str,
                 containment: str):
        if containment not in (CONTAIN_RECOVER, CONTAIN_DETECT):
            raise ValueError(f"bad containment {containment!r}")
        self.site = site
        self.layer = layer
        self.description = description
        self.containment = containment

    def __repr__(self) -> str:
        return f"InjectionPoint({self.site}, {self.containment})"


def _points(*points: InjectionPoint) -> Dict[str, InjectionPoint]:
    return {p.site: p for p in points}


#: The complete injection-point catalog.  docs/FAULTS.md mirrors this
#: table; tests/faults/test_injection_points.py demands one
#: detect-or-recover test per entry.
INJECTION_POINTS: Dict[str, InjectionPoint] = _points(
    InjectionPoint(
        SITE_DISK_READ_BITFLIP, "hw/disk",
        "one byte of a block read is flipped in flight",
        CONTAIN_DETECT,
    ),
    InjectionPoint(
        SITE_DISK_READ_ERROR, "hw/disk",
        "an unrecoverable sector: the read returns zeros",
        CONTAIN_DETECT,
    ),
    InjectionPoint(
        SITE_DISK_WRITE_BITFLIP, "hw/disk",
        "one byte of a block write is flipped before it lands",
        CONTAIN_DETECT,
    ),
    InjectionPoint(
        SITE_DISK_WRITE_TORN, "hw/disk",
        "torn write: only the first half of the block is persisted",
        CONTAIN_DETECT,
    ),
    InjectionPoint(
        SITE_DISK_WRITE_LOST, "hw/disk",
        "the device acks a write but never persists it",
        CONTAIN_DETECT,
    ),
    InjectionPoint(
        SITE_TLB_FLUSH_LOST, "hw/mmu",
        "a TLB invalidation is lost; the VMM's coherence audit flags "
        "any later use of the stale entry",
        CONTAIN_DETECT,
    ),
    InjectionPoint(
        SITE_SHADOW_STALE, "core/vmm",
        "a shadow fill of a cloaked page resolves to a previously "
        "cached guest-physical frame instead of the current one",
        CONTAIN_DETECT,
    ),
    InjectionPoint(
        SITE_HYPERCALL_DUPLICATE, "core/vmm",
        "an idempotent hypercall is delivered twice",
        CONTAIN_RECOVER,
    ),
    InjectionPoint(
        SITE_HYPERCALL_RETRY, "core/vmm",
        "an idempotent hypercall is dropped and re-issued (costs an "
        "extra trap, executes once)",
        CONTAIN_RECOVER,
    ),
    InjectionPoint(
        SITE_MAC_TRUNCATE, "core/cloak",
        "a page's stored MAC is truncated at encryption time; the "
        "next verification of that page must fail closed",
        CONTAIN_DETECT,
    ),
    InjectionPoint(
        SITE_IV_REUSE, "core/cloak",
        "a stuck version counter would reuse a (key, IV) pair; the "
        "engine's monotonicity guard refuses to encrypt",
        CONTAIN_DETECT,
    ),
    InjectionPoint(
        SITE_EVICT_UNDER_USE, "guestos/swap",
        "the kernel reclaims pages while the application is actively "
        "touching them (evict-under-use pressure)",
        CONTAIN_RECOVER,
    ),
    InjectionPoint(
        SITE_SWAPIN_CORRUPT, "guestos/swap",
        "a swapped-in frame is corrupted between disk and memory",
        CONTAIN_DETECT,
    ),
    InjectionPoint(
        SITE_WRITEBACK_LOST, "guestos/blockcache",
        "a page-cache writeback is dropped after DMA interposition "
        "(the kernel believes the flush happened)",
        CONTAIN_DETECT,
    ),
)


class FaultArm:
    """Arms one site with a firing rule.

    Exactly one of ``nth`` (fire once, at the 0-based nth
    opportunity) or ``every`` (fire at each multiple) must be given.
    ``limit`` caps total fires.
    """

    __slots__ = ("site", "nth", "every", "limit")

    def __init__(self, site: str, nth: Optional[int] = None,
                 every: Optional[int] = None,
                 limit: Optional[int] = None):
        if site not in INJECTION_POINTS:
            raise ValueError(f"unknown injection site {site!r}")
        if (nth is None) == (every is None):
            raise ValueError(
                f"arm for {site!r} needs exactly one of nth/every")
        if nth is not None and nth < 0:
            raise ValueError("nth must be >= 0")
        if every is not None and every <= 0:
            raise ValueError("every must be > 0")
        if limit is not None and limit <= 0:
            raise ValueError("limit must be > 0")
        self.site = site
        self.nth = nth
        self.every = every
        self.limit = limit

    def spec(self) -> str:
        if self.nth is not None:
            rule = f"nth={self.nth}"
        else:
            rule = f"every={self.every}"
        if self.limit is not None:
            rule += f",limit={self.limit}"
        return f"{self.site}@{rule}"

    @classmethod
    def parse(cls, text: str) -> "FaultArm":
        """Inverse of :meth:`spec`: ``site@rule[,limit=N]``."""
        site, sep, rules = text.strip().partition("@")
        if not sep or not rules:
            raise ValueError(f"bad arm spec {text!r} (want site@rule)")
        kwargs: Dict[str, object] = {}
        for clause in rules.split(","):
            key, sep, value = clause.strip().partition("=")
            if not sep:
                raise ValueError(f"bad arm clause {clause!r} in {text!r}")
            key = key.strip()
            if key in ("nth", "every", "limit"):
                kwargs[key] = int(value)
            else:
                raise ValueError(f"unknown arm clause {key!r} in {text!r}")
        return cls(site, **kwargs)

    def __repr__(self) -> str:
        return f"FaultArm({self.spec()})"


class FaultDecision:
    """One fired fault, recorded for replay diagnostics."""

    __slots__ = ("site", "opportunity", "fire_index")

    def __init__(self, site: str, opportunity: int, fire_index: int):
        self.site = site
        self.opportunity = opportunity
        self.fire_index = fire_index

    def __repr__(self) -> str:
        return (f"FaultDecision({self.site}, opportunity={self.opportunity}, "
                f"fire={self.fire_index})")


class FaultPlan:
    """A seeded, fully deterministic schedule of fault firings."""

    def __init__(self, seed: int = 0, arms: Iterable[FaultArm] = ()):
        self.seed = seed
        self._arms: Dict[str, FaultArm] = {}
        for arm in arms:
            if arm.site in self._arms:
                raise ValueError(f"site {arm.site!r} armed twice")
            self._arms[arm.site] = arm
        self._opportunities: Dict[str, int] = {}
        self._fires: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        #: Every fired fault, in program order.
        self.log: List[FaultDecision] = []

    # -- construction helpers -------------------------------------------------

    @classmethod
    def once(cls, site: str, seed: int = 0, nth: int = 0) -> "FaultPlan":
        """Arm a single site to fire at its nth opportunity."""
        return cls(seed, [FaultArm(site, nth=nth)])

    @classmethod
    def audit(cls, seed: int = 0) -> "FaultPlan":
        """Arm every site so far out it never fires.

        Opportunities are only counted while a site is armed, so an
        audit plan measures *fault-site opportunity coverage* of a
        workload — which sites a program actually walks past — without
        perturbing a single cycle of the run.
        """
        return cls(seed, [FaultArm(site, nth=2 ** 62)
                          for site in INJECTION_POINTS])

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`replay_spec`:
        ``FaultPlan(seed=7, arms=[site@nth=3, ...])`` (the wrapper and
        arm list are both optional: ``7: site@every=2`` also parses).
        """
        body = text.strip()
        if body.startswith("FaultPlan(") and body.endswith(")"):
            body = body[len("FaultPlan("):-1]
        seed = 0
        arm_text = body
        if "arms=" in body:
            seed_part, __, arm_text = body.partition("arms=")
            seed_part = seed_part.strip().rstrip(",").strip()
            if seed_part.startswith("seed="):
                seed = int(seed_part[len("seed="):])
            arm_text = arm_text.strip()
            if arm_text.startswith("[") and arm_text.endswith("]"):
                arm_text = arm_text[1:-1]
        elif ":" in body.split("@")[0]:
            seed_part, __, arm_text = body.partition(":")
            seed = int(seed_part)
        arms = [FaultArm.parse(chunk)
                for chunk in arm_text.split(", ") if chunk.strip()]
        return cls(seed, arms)

    def arms(self) -> Tuple[FaultArm, ...]:
        return tuple(self._arms.values())

    def is_armed(self, site: str) -> bool:
        return site in self._arms

    # -- the decision procedure -----------------------------------------------

    def rng(self, site: str) -> random.Random:
        """The site's private substream (payload corruption draws)."""
        rng = self._rngs.get(site)
        if rng is None:
            rng = random.Random(f"{self.seed}:{site}")
            self._rngs[site] = rng
        return rng

    def decide(self, site: str) -> bool:
        """Count one opportunity at ``site``; True when the fault fires.

        Unarmed sites never count opportunities, so arming one site
        cannot shift another site's opportunity indices.
        """
        arm = self._arms.get(site)
        if arm is None:
            return False
        index = self._opportunities.get(site, 0)
        self._opportunities[site] = index + 1
        fired = self._fires.get(site, 0)
        if arm.limit is not None and fired >= arm.limit:
            return False
        if arm.nth is not None:
            fire = index == arm.nth
        else:
            fire = index % arm.every == arm.every - 1
        if fire:
            self._fires[site] = fired + 1
            self.log.append(FaultDecision(site, index, fired))
            bus.fault_fire(site)
        return fire

    # -- accounting / replay --------------------------------------------------

    def opportunities(self, site: str) -> int:
        return self._opportunities.get(site, 0)

    def fires(self, site: str) -> int:
        return self._fires.get(site, 0)

    def total_fires(self) -> int:
        return len(self.log)

    def replay_spec(self) -> str:
        """Everything needed to rebuild this plan, one line.

        Printed by test failure messages: pasting the spec back into
        ``FaultPlan`` reproduces the identical fault sequence.
        """
        arms = ", ".join(arm.spec() for arm in self._arms.values())
        return f"FaultPlan(seed={self.seed}, arms=[{arms}])"

    def __repr__(self) -> str:
        return self.replay_spec()
