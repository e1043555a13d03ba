"""Geometric surrogate trainer feeding the noise scheduler.

Stands in for network training: the per-epoch loss combines a decaying
base curve (skill improves with epochs) with the measured matching quality
on noised copies of the training scenes, so harder noise raises the loss
smoothly and the scheduler's feedback loop stays meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ObjectModel
from .pipeline import color_similarity, vote_confidence
from .scenes import NoiseConfig, Scene, apply_domain_randomization

EPOCH_DECAY = 0.94
LOSS_FLOOR = 0.05
COLOR_WEIGHT = 0.2
MIN_REGION_POINTS = 50


@dataclass
class SurrogateTrainer:
    """Loss callback for one object over a fixed set of training scenes."""

    scenes: list[Scene]
    model: ObjectModel
    seed: int = 0

    def matching_quality(self, scene: Scene) -> float:
        """Mean vote confidence plus color agreement around the true pose."""
        gt = scene.gt_poses.get(self.model.object_id)
        if gt is None:
            return 0.0
        center = gt.apply(np.zeros((1, 3)))[0]
        offsets = scene.cloud.points - center
        region = np.einsum("ni,ni->n", offsets, offsets) <= self.model.diagonal ** 2
        if region.sum() < MIN_REGION_POINTS:
            return 0.0
        points = scene.cloud.points[region]
        confidence = float(np.mean(vote_confidence(points, self.model, gt)[0]))
        observed = scene.cloud.colors[region].mean(axis=0)
        color_sim = float(color_similarity(observed[None], self.model.mean_color)[0])
        return (1.0 - COLOR_WEIGHT) * confidence + COLOR_WEIGHT * color_sim

    def __call__(self, epoch: int, noise: NoiseConfig) -> float:
        qualities = []
        for i, scene in enumerate(self.scenes):
            noised = apply_domain_randomization(
                scene, noise, seed=(self.seed, "train", epoch, i))
            qualities.append(self.matching_quality(noised))
        quality = float(np.mean(qualities)) if qualities else 0.0
        return LOSS_FLOOR + EPOCH_DECAY ** epoch * (1.0 - quality)
