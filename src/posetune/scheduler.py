"""Adaptive noise-level controller driven by per-epoch loss deltas.

Training starts noise-free, switches to fixed starting levels, then raises
one channel at a time: a clear loss drop lets the active channel grow again,
a sharp rise reverts and permanently freezes it, anything in between moves
on to the next channel.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable

from .scenes import NoiseConfig, default_jump_sizes, default_noise_config

WARMUP = "warmup"
FIXED_NOISE = "fixed_noise"
OPTIMIZING = "optimizing"
DONE = "done"

WARMUP_EPOCHS = 4
FIXED_NOISE_EPOCHS = 4
OPTIMIZATION_START = WARMUP_EPOCHS + FIXED_NOISE_EPOCHS

LOSS_DROP_THRESHOLD = -0.025
LOSS_RISE_THRESHOLD = 0.05

NUM_CHANNELS = len(fields(NoiseConfig))
# How far one controller step moves each channel.
JUMP_SIZES = default_jump_sizes()


@dataclass(frozen=True)
class SchedulerState:
    levels: NoiseConfig
    active_index: int
    frozen: tuple[bool, ...]
    recorded_loss: float
    phase: str


def initial_state() -> SchedulerState:
    return SchedulerState(levels=default_noise_config(), active_index=0,
                          frozen=(False,) * NUM_CHANNELS, recorded_loss=float("nan"),
                          phase=WARMUP)


def _bumped(levels: NoiseConfig, index: int, sign: int) -> NoiseConfig:
    values = list(levels.as_tuple())
    values[index] += sign * JUMP_SIZES.as_tuple()[index]
    return NoiseConfig.from_tuple(values)


def _next_unfrozen(frozen: tuple[bool, ...], start: int) -> int | None:
    for offset in range(1, NUM_CHANNELS + 1):
        idx = (start + offset) % NUM_CHANNELS
        if not frozen[idx]:
            return idx
    return None


def begin_optimization(state: SchedulerState, recorded_loss: float) -> SchedulerState:
    """Enter the optimizing phase: record the loss, raise the first channel."""
    if recorded_loss <= 0:
        raise ValueError("loss must be positive")
    return replace(state, levels=_bumped(state.levels, state.active_index, +1),
                   recorded_loss=recorded_loss, phase=OPTIMIZING)


def scheduler_step(state: SchedulerState, epoch_loss: float) -> SchedulerState:
    """One controller update from the latest epoch loss.

    Relative delta vs the recorded loss decides: below -2.5% keeps raising
    the active channel; above +5% reverts the last raise, freezes the channel
    and activates the next one (raised by one jump); otherwise the next
    channel is activated and raised. The recorded loss always slides forward.
    """
    if epoch_loss <= 0:
        raise ValueError("loss must be positive")
    if state.phase != OPTIMIZING:
        raise ValueError(f"scheduler_step requires the optimizing phase, got {state.phase}")

    levels = state.levels
    frozen = list(state.frozen)
    active = state.active_index
    delta = (epoch_loss - state.recorded_loss) / state.recorded_loss

    if delta < LOSS_DROP_THRESHOLD:
        levels = _bumped(levels, active, +1)
    else:
        if delta > LOSS_RISE_THRESHOLD:
            levels = _bumped(levels, active, -1)
            frozen[active] = True
        nxt = _next_unfrozen(tuple(frozen), active)
        if nxt is not None:
            active = nxt
            levels = _bumped(levels, active, +1)

    phase = DONE if all(frozen) else OPTIMIZING
    return replace(state, levels=levels, frozen=tuple(frozen),
                   active_index=active, recorded_loss=epoch_loss, phase=phase)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    levels: NoiseConfig
    active_index: int
    frozen: tuple[bool, ...]
    phase: str


def run_scheduled_training(
    trainer: Callable[[int, NoiseConfig], float],
    epochs: int,
) -> tuple[SchedulerState, list[EpochRecord]]:
    """Drive ``trainer`` for ``epochs`` epochs under the noise controller.

    ``trainer(epoch, noise)`` returns that epoch's loss. Controller updates
    happen before each optimizing epoch using the previous epoch's loss;
    the first optimizing epoch performs the entry transition instead. The
    noise is zero in the warm-up phase and ``state.levels`` after it, which
    stay at ``default_noise_config()`` through the fixed phase.
    """
    state = initial_state()
    history: list[EpochRecord] = []
    for epoch in range(epochs):
        if WARMUP_EPOCHS <= epoch < OPTIMIZATION_START:
            state = replace(state, phase=FIXED_NOISE)
        elif state.phase == FIXED_NOISE:
            state = begin_optimization(state, history[-1].loss)
        elif state.phase == OPTIMIZING:
            state = scheduler_step(state, history[-1].loss)
        noise = NoiseConfig.zero() if state.phase == WARMUP else state.levels
        history.append(EpochRecord(epoch, trainer(epoch, noise), noise, state.active_index,
                                   state.frozen, state.phase))
    return state, history
