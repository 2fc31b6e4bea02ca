"""The attack suite as a test battery (the R-T4 guarantees).

Each attack runs against both a native and a cloaked victim; the
native victim documents that the attack is real (it leaks), the
cloaked victim documents the defence.  ``EXPECTED`` pins every cell of
the R-T4 matrix exactly.
"""

from types import SimpleNamespace

import pytest

from repro.apps.secrets import SecretFileWriter
from repro.attacks import ATTACK_SUITE, AttackOutcome, run_attack
from repro.attacks.disk import DiskScrape
from repro.attacks.scrape import MemoryScrape
from repro.attacks.syscall_lies import LyingReadUnprotectedFile
from repro.machine import Machine

LEAKED = AttackOutcome.LEAKED
DETECTED = AttackOutcome.DETECTED
DEFEATED = AttackOutcome.DEFEATED
OUT_OF_SCOPE = AttackOutcome.OUT_OF_SCOPE

#: attack -> (native outcome, cloaked outcome): the R-T4 matrix.
EXPECTED = {
    "memory-scrape": (LEAKED, DEFEATED),
    "memory-sweep": (LEAKED, DEFEATED),
    "tamper-bitflip": (LEAKED, DETECTED),
    "tamper-overwrite": (LEAKED, DETECTED),
    "replay-rollback": (LEAKED, DETECTED),
    "remap-swap": (LEAKED, DETECTED),
    "remap-substitute": (LEAKED, DETECTED),
    "register-scrape": (LEAKED, DEFEATED),
    "disk-scrape": (LEAKED, DEFEATED),
    "pagecache-scrape": (LEAKED, DEFEATED),
    "syscall-lie-protected": (LEAKED, DEFEATED),
    "syscall-lie-unprotected": (OUT_OF_SCOPE, OUT_OF_SCOPE),
    "swap-scrape": (LEAKED, DEFEATED),
    "swap-tamper": (LEAKED, DETECTED),
    "channel-sniff": (LEAKED, DEFEATED),
    "channel-tamper": (LEAKED, DETECTED),
}

CASES = [(a, v, argv) for a, v, argv in ATTACK_SUITE]
IDS = [a.name for a, __, ___ in CASES]


def test_expected_covers_the_suite():
    assert sorted(EXPECTED) == sorted(IDS)


@pytest.mark.parametrize("attack_cls,victim_cls,argv", CASES, ids=IDS)
def test_attack_leaks_against_native(attack_cls, victim_cls, argv):
    report = run_attack(attack_cls, victim_cls, argv, cloaked=False)
    assert report.outcome is EXPECTED[attack_cls.name][0], report.detail


@pytest.mark.parametrize("attack_cls,victim_cls,argv", CASES, ids=IDS)
def test_attack_fails_against_cloaked(attack_cls, victim_cls, argv):
    report = run_attack(attack_cls, victim_cls, argv, cloaked=True)
    assert report.outcome is EXPECTED[attack_cls.name][1], report.detail


class TestVerdict:
    """``Attack.verdict`` is the one rule every attack ends with."""

    @staticmethod
    def _verdict(attack, final, leaked=False, violations=()):
        machine = SimpleNamespace(violations=list(violations))
        victim = SimpleNamespace(cloaked=True)
        return attack.verdict(machine, victim, final, leaked=leaked).outcome

    def test_plaintext_observed_is_leaked_even_when_flagged(self):
        assert self._verdict(MemoryScrape(), "ready\nintact", leaked=True,
                             violations=["v"]) is LEAKED

    def test_violation_is_detected(self):
        assert self._verdict(MemoryScrape(), "ready",
                             violations=["v"]) is DETECTED

    def test_intact_victim_is_defeated(self):
        assert self._verdict(MemoryScrape(), "ready\nintact") is DEFEATED

    def test_broken_victim_without_violation_is_silent_corruption(self):
        assert self._verdict(MemoryScrape(),
                             "ready\nCORRUPTED at round 0") is LEAKED

    def test_silent_outcome_out_of_scope(self):
        assert self._verdict(LyingReadUnprotectedFile(),
                             "ready\nFILE CORRUPTED at round 0") \
            is OUT_OF_SCOPE


def test_disk_scrape_reads_the_last_block():
    """A record at the disk's last LBA is seen: the scan covers every
    block, not a prefix."""
    machine = Machine.build()
    if not machine.kernel.vfs.exists("/secure"):
        machine.kernel.vfs.mkdir("/secure")
    machine.register(SecretFileWriter, cloaked=True)
    victim = machine.spawn(SecretFileWriter.name, ("/secure/ledger.dat", "6"))
    machine.run_until_output(victim.pid, b"ready\n")
    last = machine.disk.num_blocks - 1
    machine.disk.write_block(
        last, SecretFileWriter.RECORD.ljust(machine.disk.block_size, b"\0"))
    report = DiskScrape().run(machine, victim)
    assert report.outcome is LEAKED, report.detail


class TestSpecificOutcomes:
    """The paper's argument distinguishes privacy (DEFEATED) from
    integrity (DETECTED); pin the important rows."""

    def _cloaked(self, name):
        attack_cls, victim_cls, argv = next(
            entry for entry in ATTACK_SUITE if entry[0].name == name
        )
        return run_attack(attack_cls, victim_cls, argv, cloaked=True)

    def test_scrape_is_defeated_not_detected(self):
        report = self._cloaked("memory-scrape")
        assert report.outcome is AttackOutcome.DEFEATED

    def test_tamper_is_detected(self):
        report = self._cloaked("tamper-bitflip")
        assert report.outcome is AttackOutcome.DETECTED

    def test_rollback_is_detected_as_freshness(self):
        report = self._cloaked("replay-rollback")
        assert report.outcome is AttackOutcome.DETECTED
        assert "freshness_violation=True" in report.detail

    def test_register_scrape_sees_zeros(self):
        report = self._cloaked("register-scrape")
        assert report.outcome is AttackOutcome.DEFEATED
        assert "observed=0x0" in report.detail

    def test_swap_scrape_defeated(self):
        report = self._cloaked("swap-scrape")
        assert report.outcome is AttackOutcome.DEFEATED

    def test_channel_tamper_detected(self):
        report = self._cloaked("channel-tamper")
        assert report.outcome is AttackOutcome.DETECTED

    def test_unprotected_lie_is_out_of_scope_both_ways(self):
        attack_cls, victim_cls, argv = next(
            entry for entry in ATTACK_SUITE
            if entry[0].name == "syscall-lie-unprotected"
        )
        native = run_attack(attack_cls, victim_cls, argv, cloaked=False)
        cloaked = run_attack(attack_cls, victim_cls, argv, cloaked=True)
        assert native.outcome is AttackOutcome.OUT_OF_SCOPE
        assert cloaked.outcome is AttackOutcome.OUT_OF_SCOPE
