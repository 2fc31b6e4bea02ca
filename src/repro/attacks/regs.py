"""Register scraping: the kernel inspects trap-time register state.

Every interrupt hands the kernel the CPU's architectural registers.
For cloaked threads the VMM saves them into the CTC and scrubs, so the
kernel sees zeros (plus the syscall arguments it is entitled to); it
also must not be able to *plant* register values for the resume path.
"""

from repro.apps.secrets import SECRET_REG, SECRET_REG_VALUE
from repro.attacks.base import Attack, AttackReport
from repro.guestos.process import Process
from repro.machine import Machine


class RegisterScrape(Attack):
    name = "register-scrape"
    description = "kernel reads trap-time registers of the victim"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        # The victim is descheduled right now (the harness paused at a
        # slice boundary): its trap-time registers sit in the PCB the
        # kernel keeps — exactly what a malicious kernel would read.
        pcb = victim.saved_regs or {}
        observed = pcb.get(SECRET_REG, 0)
        leaked = observed == SECRET_REG_VALUE

        # Also try to plant a value for the resume path.
        if victim.saved_regs is not None:
            victim.saved_regs[SECRET_REG] = 0xBAD

        final = self.finish(machine, victim)
        return self.verdict(
            machine, victim, final, leaked=leaked,
            detail=f"observed={observed:#x}, victim: {final.strip()!r}")
