"""Data-at-rest attacks: the kernel inspects or tampers with the disk.

The OS owns the storage stack outright, so cloaked file protection has
to come from the data itself: pages reach the device already encrypted
(DMA interposition), and tampered blocks fail verification when mapped
back in.
"""

from repro.attacks.base import Attack, AttackReport
from repro.guestos.process import Process
from repro.machine import Machine


class DiskScrape(Attack):
    name = "disk-scrape"
    description = "kernel reads the protected file's disk blocks"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        # Flush everything so the data is at rest.
        for inode in machine.kernel.fs.all_inodes():
            if inode.itype.value == "regular":
                machine.kernel.fs.writeback(inode)
        leaked = self.observed_plaintext(victim, self.read_disk(machine))
        final = self.finish(machine, victim)
        return self.verdict(
            machine, victim, final, leaked=leaked,
            detail=(f"scanned {machine.disk.num_blocks} blocks, "
                    f"victim: {final.strip()!r}"))


class PageCacheScrape(Attack):
    name = "pagecache-scrape"
    description = "kernel reads the protected file's page-cache frames"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        observed = bytearray()
        for inode in machine.kernel.fs.all_inodes():
            for pfn in inode.pages.values():
                # Honest kernels use DMA/the MMU; the strongest attacker
                # reads the frame as the device would.
                observed += machine.dma.read_frame(pfn)
        leaked = self.observed_plaintext(victim, bytes(observed))
        final = self.finish(machine, victim)
        return self.verdict(machine, victim, final, leaked=leaked,
                            detail=f"victim: {final.strip()!r}")
