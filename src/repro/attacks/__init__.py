"""Malicious-OS probes for the security evaluation (R-T4).

Each attack plays the compromised kernel against a victim process:
it manipulates exactly the state a real kernel controls (page tables,
kernel-context memory access, the disk, scheduling, register state at
traps), resumes the world, and hands the run to one rule,
:meth:`Attack.verdict`, which checks in order:

1. the attacker observed victim plaintext (the victim program's
   ``MARKER``, or the secret register value) — ``LEAKED``;
2. the VMM raised a violation — ``DETECTED``;
3. the victim printed ``intact`` — ``DEFEATED`` (the attacker got only
   ciphertext or scrubbed state, or its change never reached the
   victim);
4. otherwise the victim was corrupted without any alarm — the attack's
   ``silent_outcome``: ``LEAKED`` by default, ``OUT_OF_SCOPE`` for a
   kernel lying through an *unprotected* syscall channel, which the
   paper's threat model explicitly does not cover.
"""

from repro.attacks.base import Attack, AttackOutcome, AttackReport
from repro.attacks.harness import ATTACK_SUITE, run_attack, run_suite

__all__ = [
    "ATTACK_SUITE",
    "Attack",
    "AttackOutcome",
    "AttackReport",
    "run_attack",
    "run_suite",
]
