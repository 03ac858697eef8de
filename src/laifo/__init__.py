"""Desk-scale latent adversarial imitation from observations, plus an
exact tabular verifier for the suboptimality bounds."""

from . import augment, autodiff, envs, expertgen, imitate, nets, replay, theory
from .imitate import Config, TrainReport, train
from .theory import BoundReport, LatentScheme, verify

__all__ = [
    "augment", "autodiff", "envs", "expertgen", "imitate", "nets",
    "replay", "theory", "Config", "TrainReport", "train", "BoundReport",
    "LatentScheme", "verify",
]
