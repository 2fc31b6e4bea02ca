"""Unit tests for the deterministic fault-plan engine."""

import pytest

from repro.faults.plan import (
    CONTAIN_DETECT,
    CONTAIN_RECOVER,
    INJECTION_POINTS,
    SITE_DISK_READ_BITFLIP,
    SITE_SWAPIN_CORRUPT,
    SITE_TLB_FLUSH_LOST,
    FaultArm,
    FaultPlan,
)


class TestFaultArm:
    def test_exactly_one_mode_required(self):
        with pytest.raises(ValueError):
            FaultArm(SITE_SWAPIN_CORRUPT)
        with pytest.raises(ValueError):
            FaultArm(SITE_SWAPIN_CORRUPT, nth=0, every=2)

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultArm("hw.disk.made_up_site", nth=0)

    def test_spec_is_readable(self):
        arm = FaultArm(SITE_SWAPIN_CORRUPT, every=3, limit=2)
        assert SITE_SWAPIN_CORRUPT in arm.spec()
        assert "every=3" in arm.spec() and "limit=2" in arm.spec()


class TestDecide:
    def test_unarmed_site_counts_nothing(self):
        plan = FaultPlan(seed=1, arms=(FaultArm(SITE_SWAPIN_CORRUPT, nth=0),))
        assert not plan.decide(SITE_DISK_READ_BITFLIP)
        assert plan.opportunities(SITE_DISK_READ_BITFLIP) == 0

    def test_nth_fires_exactly_once(self):
        plan = FaultPlan.once(SITE_SWAPIN_CORRUPT, seed=3, nth=2)
        fired = [plan.decide(SITE_SWAPIN_CORRUPT) for __ in range(6)]
        assert fired == [False, False, True, False, False, False]
        assert plan.opportunities(SITE_SWAPIN_CORRUPT) == 6
        assert plan.fires(SITE_SWAPIN_CORRUPT) == 1

    def test_every_with_limit(self):
        plan = FaultPlan(seed=0, arms=(
            FaultArm(SITE_TLB_FLUSH_LOST, every=2, limit=2),))
        fired = [plan.decide(SITE_TLB_FLUSH_LOST) for __ in range(8)]
        assert fired == [False, True, False, True, False, False, False, False]
        assert plan.total_fires() == 2

    def test_decisions_are_logged(self):
        plan = FaultPlan(seed=0, arms=(FaultArm(SITE_SWAPIN_CORRUPT, every=2),))
        for __ in range(4):
            plan.decide(SITE_SWAPIN_CORRUPT)
        log = plan.log
        assert [d.opportunity for d in log] == [1, 3]
        assert [d.fire_index for d in log] == [0, 1]
        assert all(d.site == SITE_SWAPIN_CORRUPT for d in log)

    def test_site_substreams_independent(self):
        """Payload draws at a second site must not perturb the first's
        substream, and substreams differ per seed."""
        solo = FaultPlan(seed=5, arms=(
            FaultArm(SITE_SWAPIN_CORRUPT, every=1),))
        both = FaultPlan(seed=5, arms=(
            FaultArm(SITE_SWAPIN_CORRUPT, every=1),
            FaultArm(SITE_DISK_READ_BITFLIP, every=1),
        ))
        for __ in range(32):
            both.rng(SITE_DISK_READ_BITFLIP).random()
        draws = [solo.rng(SITE_SWAPIN_CORRUPT).random() for __ in range(32)]
        assert draws == [both.rng(SITE_SWAPIN_CORRUPT).random()
                         for __ in range(32)]
        other_seed = FaultPlan(seed=6, arms=(
            FaultArm(SITE_SWAPIN_CORRUPT, every=1),))
        assert draws != [other_seed.rng(SITE_SWAPIN_CORRUPT).random()
                         for __ in range(32)]


class TestRegistry:
    def test_every_point_has_layer_and_containment(self):
        for site, point in INJECTION_POINTS.items():
            assert point.site == site
            assert point.containment in (CONTAIN_RECOVER, CONTAIN_DETECT)
            assert site.startswith(("hw.", "core.", "guestos."))
            assert point.description

    def test_replay_spec_mentions_seed_and_arms(self):
        plan = FaultPlan(seed=42, arms=(
            FaultArm(SITE_SWAPIN_CORRUPT, nth=1),
            FaultArm(SITE_TLB_FLUSH_LOST, every=3),
        ))
        spec = plan.replay_spec()
        assert "seed=42" in spec
        assert SITE_SWAPIN_CORRUPT in spec and SITE_TLB_FLUSH_LOST in spec


class TestParse:
    def test_arm_spec_round_trips(self):
        for arm in (FaultArm(SITE_DISK_READ_BITFLIP, nth=3),
                    FaultArm(SITE_TLB_FLUSH_LOST, every=2, limit=5)):
            again = FaultArm.parse(arm.spec())
            assert again.spec() == arm.spec()

    def test_arm_parse_rejects_garbage(self):
        for bad in ("no-at-sign", f"{SITE_TLB_FLUSH_LOST}@",
                    f"{SITE_TLB_FLUSH_LOST}@turbo=1",
                    f"{SITE_TLB_FLUSH_LOST}@nth"):
            with pytest.raises(ValueError):
                FaultArm.parse(bad)

    def test_plan_replay_spec_round_trips(self):
        plan = FaultPlan(seed=42, arms=(
            FaultArm(SITE_SWAPIN_CORRUPT, nth=1),
            FaultArm(SITE_TLB_FLUSH_LOST, every=3, limit=2),
        ))
        again = FaultPlan.parse(plan.replay_spec())
        assert again.replay_spec() == plan.replay_spec()

    def test_plan_parse_shorthand_forms(self):
        plan = FaultPlan.parse(f"7: {SITE_TLB_FLUSH_LOST}@every=2")
        assert plan.seed == 7
        assert plan.is_armed(SITE_TLB_FLUSH_LOST)
        bare = FaultPlan.parse(f"{SITE_SWAPIN_CORRUPT}@nth=0")
        assert bare.seed == 0
        assert bare.is_armed(SITE_SWAPIN_CORRUPT)


class TestAudit:
    def test_audit_arms_every_site(self):
        plan = FaultPlan.audit(seed=9)
        assert {arm.site for arm in plan.arms()} == set(INJECTION_POINTS)

    def test_audit_counts_opportunities_without_firing(self):
        plan = FaultPlan.audit()
        for __ in range(1000):
            assert not plan.decide(SITE_TLB_FLUSH_LOST)
        assert plan.opportunities(SITE_TLB_FLUSH_LOST) == 1000
        assert plan.total_fires() == 0
