"""Memory scraping: the kernel reads application memory directly.

This is the paper's headline threat — a compromised OS walking a
process's pages for keys and records.  Against a cloaked victim the
kernel-context read triggers the encrypt transition and observes only
ciphertext; the victim then continues and still sees its own data.
"""

from repro.attacks.base import Attack, AttackReport
from repro.apps.secrets import SECRET
from repro.guestos.process import Process
from repro.machine import Machine


class MemoryScrape(Attack):
    name = "memory-scrape"
    description = "kernel reads the victim's secret page from system view"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        vaddr = self.secret_vaddr(machine, victim)
        observed = self.kernel_read(machine, victim, vaddr, len(SECRET))
        leaked = self.observed_plaintext(victim, observed)

        final = self.finish(machine, victim)
        return self.verdict(
            machine, victim, final, leaked=leaked,
            detail=f"observed={observed[:8].hex()}..., victim: {final.strip()!r}")


class FullSweep(Attack):
    """Scrape every mapped page of the victim, not just the known one."""

    name = "memory-sweep"
    description = "kernel sweeps the victim's whole address space"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        leaked_pages = 0
        scanned = 0
        for vpn, __ in victim.aspace.mapped_pages():
            data = self.kernel_read(machine, victim, vpn << 12, 4096)
            scanned += 1
            if self.observed_plaintext(victim, data):
                leaked_pages += 1
        final = self.finish(machine, victim)
        return self.verdict(
            machine, victim, final, leaked=leaked_pages > 0,
            detail=f"scanned={scanned}, leaked_pages={leaked_pages}")
