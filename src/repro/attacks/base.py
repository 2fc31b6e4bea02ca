"""Common scaffolding for the attack suite, including its one verdict."""

import enum

from repro.guestos.process import Process
from repro.hw.mmu import MODE_KERNEL, SYSTEM_VIEW
from repro.machine import Machine


class AttackOutcome(enum.Enum):
    LEAKED = "LEAKED"            # plaintext observed by the attacker
    DETECTED = "DETECTED"        # VMM raised a violation
    DEFEATED = "DEFEATED"        # attacker saw ciphertext / scrubbed state
    OUT_OF_SCOPE = "OUT-OF-SCOPE"  # paper's threat model excludes it


class AttackReport:
    """Result of one attack run."""

    def __init__(self, attack_name: str, cloaked: bool,
                 outcome: AttackOutcome, detail: str = ""):
        self.attack_name = attack_name
        self.cloaked = cloaked
        self.outcome = outcome
        self.detail = detail

    def __repr__(self) -> str:
        mode = "cloaked" if self.cloaked else "native"
        return f"AttackReport({self.attack_name}/{mode}: {self.outcome.value})"


class Attack:
    """Base class: run a victim to readiness, strike, assess."""

    name = "attack"
    description = ""
    #: Outcome when nothing leaked, nothing was flagged, and the victim
    #: still did not finish intact: it computed on corrupted state
    #: without any alarm.
    silent_outcome = AttackOutcome.LEAKED

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        raise NotImplementedError

    def verdict(self, machine: Machine, victim: Process, final: str,
                leaked: bool = False, detail: str = "") -> AttackReport:
        """The one rule that turns an attack run into an outcome.

        Plaintext seen by the attacker is a leak; otherwise a VMM
        violation is a detection; otherwise a victim that printed
        ``intact`` defeated the attack; otherwise the victim was
        silently corrupted (``silent_outcome``).
        """
        if leaked:
            outcome = AttackOutcome.LEAKED
        elif machine.violations:
            outcome = AttackOutcome.DETECTED
        elif "intact" in final:
            outcome = AttackOutcome.DEFEATED
        else:
            outcome = self.silent_outcome
        return AttackReport(self.name, victim.cloaked, outcome, detail)

    # -- helpers usable by any attack (kernel-level powers) -------------------

    @staticmethod
    def kernel_read(machine: Machine, victim: Process, vaddr: int,
                    nbytes: int) -> bytes:
        """Read victim memory from kernel context (system view)."""
        machine.mmu.set_context(victim.asid, SYSTEM_VIEW, MODE_KERNEL)
        return machine.mmu.read(vaddr, nbytes)

    @staticmethod
    def kernel_write(machine: Machine, victim: Process, vaddr: int,
                     data: bytes) -> None:
        machine.mmu.set_context(victim.asid, SYSTEM_VIEW, MODE_KERNEL)
        machine.mmu.write(vaddr, data)

    @staticmethod
    def read_disk(machine: Machine) -> bytes:
        """Every block of the disk, in LBA order."""
        return b"".join(machine.disk.read_block(lba)
                        for lba in range(machine.disk.num_blocks))

    @staticmethod
    def secret_vaddr(machine: Machine, victim: Process) -> int:
        """Where the victim program put its secret (the attacker can
        learn this from access patterns; we just ask the program)."""
        vaddr = victim.runtime.program.secret_vaddr
        if vaddr is None:
            raise RuntimeError("victim has not placed its secret yet")
        return vaddr

    @staticmethod
    def observed_plaintext(victim: Process, data: bytes) -> bool:
        """Whether ``data`` holds the marker the victim program guards."""
        return victim.runtime.program.MARKER in data

    @staticmethod
    def finish(machine: Machine, victim: Process) -> str:
        """Resume the world; returns the victim's final console text."""
        machine.run()
        return machine.kernel.console.text_of(victim.pid)
