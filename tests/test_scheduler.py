from dataclasses import asdict

import numpy as np
import pytest

from posetune.scenes import NoiseConfig, default_jump_sizes, default_noise_config
from posetune.scheduler import (
    DONE,
    FIXED_NOISE,
    OPTIMIZING,
    WARMUP,
    SchedulerState,
    begin_optimization,
    initial_state,
    noise_for_epoch,
    run_scheduled_training,
    scheduler_step,
)

DEFAULTS = default_noise_config().as_tuple()
JUMPS = default_jump_sizes().as_tuple()


# ---------------------------------------------------------------------------
# Independent reference state machine, written against the prose rules only:
# plain lists, no shared helpers with the implementation.
# ---------------------------------------------------------------------------

def reference_machine(loss_sequence):
    """Returns (levels, frozen, phase) after consuming the optimizing losses.

    loss_sequence[0] is the recorded baseline; the rest are consumed one
    step at a time.
    """
    levels = list(DEFAULTS)
    frozen = [False] * 6
    active = 0
    recorded = loss_sequence[0]
    levels[active] += JUMPS[active]  # entry: first channel raised
    phase = "optimizing"
    for loss in loss_sequence[1:]:
        if phase == "done":
            break
        rel = (loss - recorded) / recorded
        if rel < -0.025:
            levels[active] += JUMPS[active]
        else:
            if rel > 0.05:
                levels[active] -= JUMPS[active]
                frozen[active] = True
            candidates = [(active + k) % 6 for k in range(1, 7)]
            nxt = None
            for c in candidates:
                if not frozen[c]:
                    nxt = c
                    break
            if nxt is None:
                phase = "done"
            else:
                active = nxt
                levels[active] += JUMPS[active]
        recorded = loss
        if all(frozen):
            phase = "done"
    return levels, frozen, phase, active, recorded


def drive(loss_sequence):
    state = begin_optimization(initial_state(), loss_sequence[0])
    for loss in loss_sequence[1:]:
        if state.phase == DONE:
            break
        state = scheduler_step(state, loss)
    return state


class TestSchedulerStep:
    def test_clear_drop_keeps_raising_same_channel(self):
        state = begin_optimization(initial_state(), 1.00)
        out = scheduler_step(state, 0.96)  # -4%
        assert out.active_index == 0
        assert out.levels.xyz_sigma == pytest.approx(DEFAULTS[0] + 2 * JUMPS[0])
        assert not any(out.frozen)

    def test_sharp_rise_reverts_and_freezes(self):
        state = begin_optimization(initial_state(), 1.00)
        out = scheduler_step(state, 1.06)  # +6%
        assert out.frozen[0]
        assert out.levels.xyz_sigma == pytest.approx(DEFAULTS[0])
        assert out.active_index == 1
        assert out.levels.normal_sigma == pytest.approx(DEFAULTS[1] + JUMPS[1])

    def test_flat_loss_moves_to_next_channel(self):
        state = begin_optimization(initial_state(), 1.00)
        out = scheduler_step(state, 0.99)  # -1%
        assert out.active_index == 1
        assert not any(out.frozen)
        assert out.levels.xyz_sigma == pytest.approx(DEFAULTS[0] + JUMPS[0])
        assert out.levels.normal_sigma == pytest.approx(DEFAULTS[1] + JUMPS[1])

    def test_recorded_loss_slides(self):
        state = begin_optimization(initial_state(), 1.00)
        out = scheduler_step(state, 0.9)
        assert out.recorded_loss == 0.9

    def test_rejects_nonpositive_loss(self):
        state = begin_optimization(initial_state(), 1.0)
        with pytest.raises(ValueError):
            scheduler_step(state, 0.0)

    def test_rejects_wrong_phase(self):
        with pytest.raises(ValueError):
            scheduler_step(initial_state(), 1.0)


class TestNoiseForEpoch:
    def test_warmup_is_noise_free(self):
        assert noise_for_epoch(initial_state(), 2) == NoiseConfig.zero()

    def test_fixed_phase_uses_default_levels(self):
        assert noise_for_epoch(initial_state(), 5) == default_noise_config()


class TestRunScheduledTraining:
    def test_steady_improvement_raises_first_channel_twelve_times(self):
        losses = {}

        def trainer(epoch, noise):
            loss = 1.0 * (0.9 ** max(0, epoch - 3))
            losses[epoch] = loss
            return loss

        state, history = run_scheduled_training(trainer, epochs=20)
        assert len(history) == 20
        assert state.levels.xyz_sigma == pytest.approx(DEFAULTS[0] + 12 * JUMPS[0])
        assert state.levels.as_tuple()[1:] == DEFAULTS[1:]
        assert state.active_index == 0
        assert not any(state.frozen)

    def test_steady_degradation_freezes_each_channel_once(self):
        def trainer(epoch, noise):
            return 1.1 ** max(0, epoch - 7)

        state, history = run_scheduled_training(trainer, epochs=20)
        assert state.phase == DONE
        assert all(state.frozen)
        assert state.levels.as_tuple() == pytest.approx(DEFAULTS)
        # transition happened on the 6th optimizing step: epoch 14 onward done
        phases = [rec.phase for rec in history]
        assert phases[14] == DONE

    def test_short_run_never_optimizes(self):
        calls = []

        def trainer(epoch, noise):
            calls.append(epoch)
            return 1.0

        state, history = run_scheduled_training(trainer, epochs=6)
        assert state.phase == FIXED_NOISE
        assert state.levels == default_noise_config()
        assert calls == list(range(6))

    def test_phase_progression_in_history(self):
        state, history = run_scheduled_training(lambda e, n: 1.0, epochs=12)
        phases = [rec.phase for rec in history]
        assert phases[:4] == [WARMUP] * 4
        assert phases[4:8] == [FIXED_NOISE] * 4
        assert all(p in (OPTIMIZING, DONE) for p in phases[8:])

    def test_noise_levels_recorded_per_epoch(self):
        state, history = run_scheduled_training(lambda e, n: 1.0, epochs=10)
        assert history[0].levels == NoiseConfig.zero()
        assert history[5].levels == default_noise_config()
        assert history[8].levels.xyz_sigma >= DEFAULTS[0]
        record = asdict(history[9])
        assert set(record) == {"epoch", "loss", "levels", "active_index",
                               "frozen", "phase"}


class TestInvariants:
    def make_losses(self, g, length):
        # multiplicative random walk keeps losses positive
        steps = g.uniform(-0.12, 0.12, size=length)
        return list(np.cumprod(1.0 + steps) + 0.05)

    def test_levels_never_drop_below_start_and_frozen_monotone(self):
        g = np.random.default_rng(0)
        for _ in range(100):
            losses = self.make_losses(g, 30)
            state = begin_optimization(initial_state(), losses[0])
            frozen_before = state.frozen
            for loss in losses[1:]:
                if state.phase == DONE:
                    break
                state = scheduler_step(state, loss)
                for level, start in zip(state.levels.as_tuple(), DEFAULTS):
                    assert level >= start - 1e-12
                assert all(b or not a for a, b in zip(frozen_before, state.frozen))
                frozen_before = state.frozen

    def test_matches_reference_machine(self):
        g = np.random.default_rng(1)
        for _ in range(200):
            losses = self.make_losses(g, g.integers(2, 40))
            state = drive(losses)
            levels, frozen, phase, active, recorded = reference_machine(losses)
            assert state.levels.as_tuple() == pytest.approx(tuple(levels))
            assert list(state.frozen) == frozen
            assert state.phase == phase
            if phase != "done":
                assert state.active_index == active
            assert state.recorded_loss == pytest.approx(recorded)
