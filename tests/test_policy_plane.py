"""The policy plane: decision-table cells, the capability clamp, the
engine's history folding, and the adaptive policy's hysteresis band —
every mode decision in the repo funnels through these."""

import pytest

from repro import obs
from repro.exchange.capabilities import ChannelCapabilities
from repro.policy import (
    AdaptivePolicy,
    AlwaysDelta,
    AlwaysFull,
    ChannelSignals,
    CrossoverPolicy,
    PolicyEngine,
    PolicyError,
    SendPlan,
    resolve_engine,
    resolve_policy,
)


def observed(fraction, *, resident=10_000, **kwargs):
    """Signals carrying a real mutation observation whose byte fraction is
    ``fraction`` (record overhead zeroed out via dirty_count=0)."""
    return ChannelSignals(
        channel_id=kwargs.pop("channel_id", 7),
        epoch=kwargs.pop("epoch", 2),
        resident_objects=kwargs.pop("resident_objects", 100),
        resident_bytes=resident,
        dirty_bytes=int(fraction * resident),
        dirty_members=[1],
        **kwargs,
    )


class TestGuardRules:
    """The shared guard prefix fires before any policy-specific row, in
    protocol-invariant order, for every table."""

    @pytest.mark.parametrize("policy", [
        CrossoverPolicy(), AdaptivePolicy(), AlwaysFull(), AlwaysDelta(),
    ])
    def test_guards_shared_by_every_table(self, policy):
        assert policy.rule_reasons()[:5] == [
            "forced", "delta_disabled", "heterogeneous", "first_epoch",
            "gc_moved",
        ]

    def test_forced_full_wins_over_everything(self):
        plan = CrossoverPolicy().decide(observed(0.0, forced_full=True))
        assert (plan.mode, plan.reason) == ("full", "forced")

    def test_delta_incapable_channel_goes_full(self):
        plan = CrossoverPolicy().decide(observed(0.0, delta_capable=False))
        assert (plan.mode, plan.reason) == ("full", "delta_disabled")

    def test_heterogeneous_layout_goes_full(self):
        plan = CrossoverPolicy().decide(observed(0.0, heterogeneous=True))
        assert (plan.mode, plan.reason) == ("full", "heterogeneous")

    def test_first_epoch_goes_full(self):
        plan = CrossoverPolicy().decide(
            ChannelSignals(epoch=1, first_epoch=True))
        assert (plan.mode, plan.reason) == ("full", "first_epoch")

    def test_gc_moved_record_goes_full(self):
        plan = CrossoverPolicy().decide(observed(0.0, gc_moved=True))
        assert (plan.mode, plan.reason) == ("full", "gc_moved")

    def test_adaptive_bootstraps_with_digest(self):
        signals = ChannelSignals(epoch=1, first_epoch=True)
        assert AdaptivePolicy().decide(signals).digest
        assert not AdaptivePolicy(digest_bootstrap=False).decide(
            signals).digest


class TestCrossoverCells:
    """The mutation-byte crossover, cell by cell."""

    def test_below_crossover_is_delta_with_budget(self):
        plan = CrossoverPolicy(byte_crossover=0.5).decide(observed(0.2))
        assert (plan.mode, plan.reason) == ("delta", "delta")
        assert plan.byte_budget == 0.5 * 10_000
        assert plan.policy == "crossover"

    def test_above_crossover_is_full(self):
        plan = CrossoverPolicy(byte_crossover=0.5).decide(observed(0.8))
        assert (plan.mode, plan.reason) == ("full", "mutation_crossover")
        assert plan.mutation_rate == pytest.approx(0.0)  # object fraction
        assert plan.estimated_bytes == 8_000

    def test_negative_crossover_degenerates_to_always_full(self):
        # byte_crossover < 0 forces FULL even with zero mutation
        # (0 > negative budget).
        plan = CrossoverPolicy(byte_crossover=-1.0).decide(observed(0.0))
        assert (plan.mode, plan.reason) == ("full", "mutation_crossover")


class TestStaticCorners:
    def test_always_delta_never_reverts_post_encode(self):
        plan = AlwaysDelta().decide(observed(0.99))
        assert (plan.mode, plan.reason) == ("delta", "delta")
        assert plan.byte_budget is None


class TestCapabilityClamp:
    """Negotiation bounds the plan; it never upgrades one."""

    def test_delta_plan_on_full_only_channel_reverts(self):
        caps = ChannelCapabilities(kernel=True, delta=False)
        plan = SendPlan(mode="delta", reason="delta",
                        byte_budget=100.0).clamp(caps)
        assert (plan.mode, plan.reason) == ("full", "delta_disabled")
        assert plan.byte_budget is None
        assert "delta" in plan.clamped

    def test_unclamped_plan_is_returned_as_is(self):
        plan = SendPlan(mode="delta", reason="delta", byte_budget=100.0)
        caps = ChannelCapabilities(kernel=True, delta=True)
        assert plan.clamp(caps) is plan


class TestAdaptiveHysteresis:
    def _engine(self, **kwargs):
        kwargs.setdefault("enter_full", 0.5)
        kwargs.setdefault("exit_full", 0.35)
        # alpha=1.0: the EWMA tracks the raw fraction, so the test drives
        # the band directly.
        return PolicyEngine(AdaptivePolicy(**kwargs), alpha=1.0)

    def _modes(self, engine, fractions):
        return [engine.plan(observed(f)).mode for f in fractions]

    def test_oscillation_across_one_threshold_does_not_flap(self):
        # 0.40/0.62 straddles enter_full=0.5 every epoch.  Without the
        # band the mode would flip 7 times; with it, exactly once.
        modes = self._modes(self._engine(),
                            [0.40, 0.62, 0.40, 0.62, 0.40, 0.62, 0.40])
        assert modes == ["delta", "full", "full", "full", "full", "full",
                         "full"]
        transitions = sum(1 for a, b in zip(modes, modes[1:]) if a != b)
        assert transitions == 1

    def test_crossover_without_band_flaps(self):
        # The contrast case: the memoryless crossover flips every epoch.
        engine = PolicyEngine(CrossoverPolicy(byte_crossover=0.5),
                              alpha=1.0)
        modes = self._modes(engine, [0.40, 0.62, 0.40, 0.62])
        assert modes == ["delta", "full", "delta", "full"]

    def test_sustained_drop_below_exit_returns_to_delta(self):
        engine = self._engine()
        assert self._modes(engine, [0.62, 0.40, 0.34]) == \
            ["full", "full", "delta"]

    def test_forced_full_does_not_enter_the_full_regime(self):
        # A guard-rule FULL is not the policy's own choice: the next
        # observed epoch still decides against enter_full, not exit_full.
        engine = self._engine()
        engine.plan(observed(0.40, forced_full=True))
        assert engine.plan(observed(0.40)).mode == "delta"

    def test_inverted_band_is_rejected(self):
        with pytest.raises(PolicyError):
            AdaptivePolicy(enter_full=0.3, exit_full=0.5)


class TestPolicyEngine:
    def test_ewma_folds_history_into_signals(self):
        engine = PolicyEngine("adaptive", alpha=0.5)
        engine.plan(observed(0.2))
        plan = engine.plan(observed(0.6))
        # Seeded at 0.2, then 0.5*0.6 + 0.5*0.2 = 0.4 < enter_full=0.5:
        # the raw 0.6 would go full, the smoothed fraction stays delta.
        assert plan.mode == "delta"
        hist = engine.history(7)
        assert hist.byte_fraction_ewma == pytest.approx(0.4)

    def test_history_is_per_channel(self):
        engine = PolicyEngine("adaptive", alpha=1.0)
        engine.plan(observed(0.9, channel_id=1))
        assert engine.plan(observed(0.9, channel_id=1)).mode == "full"
        # Channel 2's history is untouched by channel 1's regime.
        assert engine.history(2).byte_fraction_ewma is None

    def test_every_decision_emits_span_and_counter(self):
        obs.reset()
        obs.enable(process="test")
        try:
            engine = PolicyEngine("crossover")
            engine.plan(observed(0.2), ChannelCapabilities(
                kernel=True, delta=True))
            spans = [s for s in obs.get_tracer().spans()
                     if s.name == "policy.decide"]
            assert len(spans) == 1
            assert spans[0].attrs["mode"] == "delta"
            assert spans[0].attrs["reason"] == "delta"
            counters = obs.registry().snapshot()["counters"]
            key = ("policy.decisions{mode=delta,policy=crossover,"
                   "reason=delta}")
            assert counters[key] == 1.0
            assert engine.decisions == 1
        finally:
            obs.reset()


class TestResolveEngine:
    def test_none_resolves_to_default(self):
        assert resolve_engine(None).policy.name == "crossover"
        assert resolve_engine(None, default="adaptive").policy.name == \
            "adaptive"

    def test_names_resolve(self):
        for name, expected in [("adaptive", "adaptive"),
                               ("crossover", "crossover"),
                               ("full", "always_full"),
                               ("delta", "always_delta")]:
            assert resolve_engine(name).policy.name == expected

    def test_shared_engine_passes_through_identically(self):
        engine = PolicyEngine("adaptive")
        assert resolve_engine(engine) is engine

    def test_unknown_name_raises(self):
        with pytest.raises(PolicyError):
            resolve_policy("alternating")
        with pytest.raises(PolicyError):
            resolve_policy(3.14)
