"""Remapping: the kernel rewires page tables under the victim.

Swapping the frames of two cloaked pages (or pointing a cloaked page
at a kernel-controlled frame) is fully within the OS's architectural
power; the MAC's binding to the page's identity is what must catch it.
"""

from repro.attacks.base import Attack, AttackReport
from repro.guestos.process import Process
from repro.machine import Machine


class PageSwap(Attack):
    name = "remap-swap"
    description = "kernel swaps the frames of two victim pages"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        vaddr = self.secret_vaddr(machine, victim)
        secret_vpn = vaddr >> 12
        mapped = dict(victim.aspace.mapped_pages())
        other_vpn = next(
            (vpn for vpn in mapped
             if vpn != secret_vpn and victim.aspace.find_vma(vpn) is not None
             and victim.aspace.find_vma(vpn).label == "data"),
            None,
        )
        if other_vpn is None:
            raise RuntimeError("victim has no sibling data page to swap")
        pfn_a, pfn_b = mapped[secret_vpn], mapped[other_vpn]
        # Force both to their system-visible form first (legal).
        self.kernel_read(machine, victim, secret_vpn << 12, 1)
        self.kernel_read(machine, victim, other_vpn << 12, 1)
        victim.aspace.map_page(secret_vpn, pfn_b, writable=True)
        victim.aspace.map_page(other_vpn, pfn_a, writable=True)

        final = self.finish(machine, victim)
        return self.verdict(
            machine, victim, final,
            detail=f"swapped vpn {secret_vpn:#x} <-> {other_vpn:#x}")


class FrameSubstitution(Attack):
    name = "remap-substitute"
    description = "kernel maps a kernel-filled frame under the secret"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        vaddr = self.secret_vaddr(machine, victim)
        secret_vpn = vaddr >> 12
        evil_pfn = machine.alloc.alloc()
        machine.phys.write(evil_pfn, 0, b"KERNEL-PLANTED-DATA " * 16)
        victim.aspace.map_page(secret_vpn, evil_pfn, writable=True)

        final = self.finish(machine, victim)
        return self.verdict(machine, victim, final,
                            detail=f"substituted frame {evil_pfn}")
