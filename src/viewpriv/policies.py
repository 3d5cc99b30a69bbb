"""Obfuscation policy descriptors.

A policy selects which side of the upload is perturbed: a baseline policy
(a ``baselines.NoiseScale``) adds coordinate noise to the viewpoints fed to
the predictor, while the noisy-error policy perturbs only the uploaded
prediction error. The required inference precision is a property of the
session, not the policy, and is passed alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .baselines import NoiseScale
from .bpea import DEFAULT_MARGIN, check_margin
from .leakage import check_requirement


@dataclass(frozen=True)
class NoObfuscation:
    """Upload the measured prediction error unchanged."""


@dataclass(frozen=True)
class BpeaPolicy:
    """Deterministic noisy-error upload meeting a per-sample leakage cap."""

    q: float
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        check_requirement(self.q)
        check_margin(self.margin)


ObfuscationPolicy = Union[NoObfuscation, BpeaPolicy, NoiseScale]
