"""Obfuscation policy descriptors.

A policy selects which side of the upload is perturbed: baseline policies
add coordinate noise to the viewpoints fed to the predictor, while the
noisy-error policy leaves viewpoints untouched and perturbs only the
uploaded prediction error. The required inference precision is a property
of the session, not the policy, and is passed alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import baselines
from .bpea import DEFAULT_MARGIN, check_margin
from .leakage import check_requirement


@dataclass(frozen=True)
class NoObfuscation:
    name: str = "none"


@dataclass(frozen=True)
class BpeaPolicy:
    """Deterministic noisy-error upload meeting a per-sample leakage cap."""

    q: float
    margin: float = DEFAULT_MARGIN
    name: str = "bpea"

    def __post_init__(self):
        check_requirement(self.q)
        check_margin(self.margin)


@dataclass(frozen=True)
class GaussianViewpointNoise:
    sigma: float
    name: str = "gaussian"

    def scale(self) -> baselines.NoiseScale:
        return baselines.NoiseScale(baselines.GAUSSIAN_KIND, self.sigma)


@dataclass(frozen=True)
class LaplaceViewpointNoise:
    scale_b: float
    name: str = "laplace"

    def scale(self) -> baselines.NoiseScale:
        return baselines.NoiseScale(baselines.LAPLACE_KIND, self.scale_b)


ObfuscationPolicy = Union[NoObfuscation, BpeaPolicy, GaussianViewpointNoise, LaplaceViewpointNoise]
