"""The policy plane: decision cells, the capability clamp, the channel's
history folding, and the adaptive policy's hysteresis band — every mode
decision in the repo funnels through these."""

import pytest

from repro import obs
from repro.delta.channel import DeltaSendChannel
from repro.exchange import ChannelCapabilities
from repro.policy import (
    BYTE_CROSSOVER,
    EXIT_FULL,
    REGIME_REASONS,
    AdaptivePolicy,
    AlwaysDelta,
    AlwaysFull,
    ChannelSignals,
    CrossoverPolicy,
    PolicyError,
    SendPlan,
    resolve_policy,
)
from repro.policy import policies


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


GUARDS = ("forced_full", "delta_capable", "heterogeneous", "first_epoch",
          "gc_moved")


class TestGuardRules:
    """The shared guard fires before any policy's own choice, in
    protocol-invariant order, for every policy."""

    @pytest.mark.parametrize("policy", [
        CrossoverPolicy(), AdaptivePolicy(), AlwaysFull(), AlwaysDelta(),
    ])
    def test_guards_shared_by_every_table(self, policy):
        # Trip the guards from the last to the first: each added flag
        # takes over the reason, so the earlier guard wins.
        reasons = []
        tripped = {}
        for flag in reversed(GUARDS):
            tripped[flag] = flag != "delta_capable"
            plan = policy.decide(observed(0.0, **tripped))
            assert (plan.mode, plan.policy) == ("full", policy.name)
            reasons.append(plan.reason)
        assert reasons[::-1] == [
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
        assert not CrossoverPolicy().decide(signals).digest


class TestCrossoverCells:
    """The mutation-byte crossover, cell by cell."""

    @pytest.fixture(autouse=True)
    def _crossover(self, monkeypatch):
        monkeypatch.setattr(policies, "BYTE_CROSSOVER", 0.5)

    def test_below_crossover_is_delta_with_budget(self):
        plan = CrossoverPolicy().decide(observed(0.2))
        assert (plan.mode, plan.reason) == ("delta", "delta")
        assert plan.byte_budget == 0.5 * 10_000
        assert plan.policy == "crossover"

    def test_above_crossover_is_full(self):
        plan = CrossoverPolicy().decide(observed(0.8))
        assert (plan.mode, plan.reason) == ("full", "mutation_crossover")
        assert plan.mutation_rate == pytest.approx(0.0)  # object fraction
        assert plan.estimated_bytes == 8_000

    def test_negative_crossover_degenerates_to_always_full(
            self, monkeypatch):
        # BYTE_CROSSOVER < 0 forces FULL even with zero mutation
        # (0 > negative budget).
        monkeypatch.setattr(policies, "BYTE_CROSSOVER", -1.0)
        plan = CrossoverPolicy().decide(observed(0.0))
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
    """Pure ``decide`` cells: the smoothed fraction and the regime are set
    on the signals, as a channel folds them in."""

    @pytest.fixture(autouse=True)
    def _band(self, monkeypatch):
        monkeypatch.setattr(policies, "BYTE_CROSSOVER", 0.5)
        monkeypatch.setattr(policies, "EXIT_FULL", 0.35)

    def _modes(self, policy, fractions):
        """Each epoch's smoothed fraction given outright (EWMA weight 1),
        the regime threaded from one cell's plan into the next."""
        modes, last_mode = [], None
        for fraction in fractions:
            plan = policy.decide(observed(
                fraction, byte_fraction_ewma=fraction, last_mode=last_mode))
            if plan.reason in REGIME_REASONS:
                last_mode = plan.mode
            modes.append(plan.mode)
        return modes

    def test_oscillation_across_one_threshold_does_not_flap(self):
        # 0.40/0.62 straddles the 0.5 crossover every epoch.  Without the
        # band the mode would flip 7 times; with it, exactly once.
        modes = self._modes(AdaptivePolicy(),
                            [0.40, 0.62, 0.40, 0.62, 0.40, 0.62, 0.40])
        assert modes == ["delta", "full", "full", "full", "full", "full",
                         "full"]
        transitions = sum(1 for a, b in zip(modes, modes[1:]) if a != b)
        assert transitions == 1

    def test_crossover_without_band_flaps(self):
        # The contrast case: the memoryless crossover flips every epoch.
        modes = self._modes(CrossoverPolicy(), [0.40, 0.62, 0.40, 0.62])
        assert modes == ["delta", "full", "delta", "full"]

    def test_sustained_drop_below_exit_returns_to_delta(self):
        assert self._modes(AdaptivePolicy(), [0.62, 0.40, 0.34]) == \
            ["full", "full", "delta"]
        # The band's cells one by one: in the full regime 0.40 stays
        # full, below the band it returns; outside it 0.40 is delta.
        policy = AdaptivePolicy()
        assert policy.decide(observed(
            0.40, byte_fraction_ewma=0.40, last_mode="full")).mode == "full"
        assert policy.decide(observed(
            0.34, byte_fraction_ewma=0.34, last_mode="full")).mode == "delta"
        assert policy.decide(observed(
            0.40, byte_fraction_ewma=0.40, last_mode="delta")).mode == \
            "delta"

    def test_forced_full_does_not_enter_the_full_regime(self):
        # A guard's FULL is not the policy's own choice: it leaves the
        # regime unset, so the next observed epoch still decides against
        # the crossover, not the bottom of the band.
        policy = AdaptivePolicy()
        forced = policy.decide(observed(0.40, forced_full=True))
        assert forced.reason not in REGIME_REASONS
        assert self._modes(policy, [0.40]) == ["delta"]

    def test_inverted_band_is_rejected(self):
        assert EXIT_FULL <= BYTE_CROSSOVER


class ScriptedChannel(DeltaSendChannel):
    """A channel whose signals are scripted, so the history its ``_plan``
    folds in is driven cell by cell."""

    def __init__(self, runtime, script, **kwargs):
        super().__init__(runtime, "scripted", delta_enabled=False, **kwargs)
        self.script = list(script)

    def _signals(self, roots, record, gc, epoch):
        return self.script.pop(0)


class TestPolicyEngine:
    """The decision point: each channel folds its own history into the
    signals, asks its (stateless, shareable) policy, and emits the
    decision."""

    def test_ewma_folds_history_into_signals(self, transport_driver):
        channel = ScriptedChannel(transport_driver,
                                  [observed(0.2), observed(0.6)],
                                  policy="adaptive")
        channel.plan_next([])
        plan = channel.plan_next([])
        # Seeded at 0.2, then 0.5*0.6 + 0.5*0.2 = 0.4 < the 0.5 crossover:
        # the raw 0.6 would go full, the smoothed fraction stays delta.
        assert plan.mode == "delta"
        assert channel.byte_fraction_ewma == pytest.approx(0.4)
        assert channel.regime == "delta"

    def test_history_is_per_channel(self, transport_driver):
        shared = AdaptivePolicy()
        one = ScriptedChannel(transport_driver,
                              [observed(0.9), observed(0.9)], policy=shared)
        two = ScriptedChannel(transport_driver, [], policy=shared)
        one.plan_next([])
        assert one.plan_next([]).mode == "full"
        # Channel two's history is untouched by channel one's regime.
        assert (two.byte_fraction_ewma, two.regime) == (None, None)

    def test_every_decision_emits_span_and_counter(self, transport_driver):
        obs.reset()
        obs.enable(process="test")
        try:
            channel = ScriptedChannel(
                transport_driver, [observed(0.2)], policy="crossover",
                capabilities=ChannelCapabilities(kernel=True, delta=True))
            channel.plan_next([])
            spans = [s for s in obs.get_tracer().spans()
                     if s.name == "policy.decide"]
            assert len(spans) == 1
            assert spans[0].attrs["mode"] == "delta"
            assert spans[0].attrs["reason"] == "delta"
            counters = obs.registry().snapshot()["counters"]
            key = ("policy.decisions{mode=delta,policy=crossover,"
                   "reason=delta}")
            assert counters[key] == 1.0
        finally:
            obs.reset()


class TestResolveEngine:
    """``resolve_policy``: every ``policy=`` spelling onto one policy."""

    def test_none_resolves_to_default(self):
        assert resolve_policy(None).name == "crossover"
        assert resolve_policy(None, default="adaptive").name == "adaptive"

    def test_names_resolve(self):
        for name in ("adaptive", "crossover", "always_full",
                     "always_delta"):
            assert resolve_policy(name).name == name
        # One name per policy: the old short aliases are gone.
        for alias in ("full", "delta"):
            with pytest.raises(PolicyError):
                resolve_policy(alias)

    def test_shared_engine_passes_through_identically(self):
        policy = AdaptivePolicy()
        assert resolve_policy(policy) is policy

    def test_unknown_name_raises(self):
        with pytest.raises(PolicyError):
            resolve_policy("alternating")
        with pytest.raises(PolicyError):
            resolve_policy(3.14)
