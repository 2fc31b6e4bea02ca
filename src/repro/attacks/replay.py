"""Replay / rollback: the kernel restores stale page contents.

The kernel snapshots the victim's page (forcing encryption — that part
is legal), lets the victim overwrite the secret with a newer version,
then rolls the frame back to the snapshot.  Freshness metadata
(version counters in the MAC) must reject the stale ciphertext.
"""

from repro.attacks.base import Attack, AttackReport
from repro.core.errors import FreshnessViolation
from repro.guestos.process import Process
from repro.machine import Machine


class Rollback(Attack):
    name = "replay-rollback"
    description = "kernel rolls the secret page back to an old snapshot"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        vaddr = self.secret_vaddr(machine, victim)

        # Phase 1: snapshot what the kernel can see now (ciphertext of
        # version N for a cloaked victim; plaintext for native).
        snapshot = self.kernel_read(machine, victim, vaddr & ~0xFFF, 4096)

        # Phase 2: let the victim write the next version.
        current = machine.kernel.console.output_of(victim.pid)
        versions = current.count(b"v")
        machine.run_until_output(victim.pid, b"v%d\n" % (versions + 1))

        # Phase 3: roll back.
        self.kernel_write(machine, victim, vaddr & ~0xFFF, snapshot)

        final = self.finish(machine, victim)
        freshness = any(isinstance(v.error, FreshnessViolation)
                        for v in machine.violations)
        return self.verdict(
            machine, victim, final,
            detail=(f"freshness_violation={freshness}, "
                    f"victim: {final.strip().splitlines()[-1]!r}"))
