"""Tampering: the kernel modifies cloaked data.

Two variants: flipping bits in the (encrypted) frame, and overwriting
with chosen plaintext.  Either way the MAC check on the victim's next
access must fail; for the uncloaked baseline the victim silently
computes on attacker-chosen data.
"""

from repro.attacks.base import Attack, AttackReport
from repro.apps.secrets import SECRET
from repro.guestos.process import Process
from repro.machine import Machine


class BitFlip(Attack):
    name = "tamper-bitflip"
    description = "kernel flips one bit in the victim's secret page"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        vaddr = self.secret_vaddr(machine, victim)
        current = self.kernel_read(machine, victim, vaddr, 1)
        self.kernel_write(machine, victim, vaddr,
                          bytes([current[0] ^ 0x80]))
        final = self.finish(machine, victim)
        return self.verdict(machine, victim, final,
                            detail=f"flipped 1 bit, victim: {final.strip()!r}")


class Overwrite(Attack):
    name = "tamper-overwrite"
    description = "kernel overwrites the secret with chosen plaintext"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        vaddr = self.secret_vaddr(machine, victim)
        forged = b"ATTACKER-CHOSEN-VALUE-0000000000"[: len(SECRET)]
        forged = forged.ljust(len(SECRET), b"#")
        self.kernel_write(machine, victim, vaddr, forged)
        final = self.finish(machine, victim)
        return self.verdict(
            machine, victim, final,
            detail=f"overwrote secret, victim: {final.strip()!r}")
