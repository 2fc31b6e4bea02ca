"""Swap-space attacks: the kernel forces pages out and reads the swap.

Paging is the OS's legal superpower — reclaim any page, any time.  A
malicious kernel weaponises it as an exfiltration primitive: evict the
victim's whole working set and read the swap device at leisure.
Cloaked pages cross the DMA interposition on the way out, so the swap
holds only ciphertext.
"""

from repro.attacks.base import Attack, AttackReport
from repro.guestos.process import Process
from repro.machine import Machine


class SwapScrape(Attack):
    name = "swap-scrape"
    description = "kernel evicts the victim's pages and reads swap space"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        evicted = machine.kernel.reclaimer.reclaim(200)
        leaked = self.observed_plaintext(victim, self.read_disk(machine))
        final = self.finish(machine, victim)
        return self.verdict(
            machine, victim, final, leaked=leaked,
            detail=f"evicted={evicted}, victim: {final.strip().splitlines()[-1]!r}")


class SwapTamper(Attack):
    name = "swap-tamper"
    description = "kernel corrupts swapped-out pages before swap-in"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        evicted = machine.kernel.reclaimer.reclaim(200)
        # Corrupt every non-empty disk block (the victim's swap slots
        # are in there somewhere).
        tampered = 0
        for lba in range(machine.disk.num_blocks):
            block = machine.disk.read_block(lba)
            if any(block):
                mutated = bytearray(block)
                mutated[0] ^= 0xFF
                machine.disk.write_block(lba, bytes(mutated))
                tampered += 1
        final = self.finish(machine, victim)
        return self.verdict(
            machine, victim, final,
            detail=(f"evicted={evicted}, tampered_blocks={tampered}, "
                    f"victim: {final.strip()!r}"))
