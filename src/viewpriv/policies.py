"""Obfuscation policies, and the upload pipeline that applies them.

A policy selects which side of the upload is perturbed: a baseline policy
(a ``baselines.NoiseScale``) adds coordinate noise to the viewpoints fed to
the predictor; the noisy-error policy perturbs only the uploaded error.
``apply_policy`` runs one trace or a ``(traces, GoPs, 3)`` stack through
the pipeline, with the session's inference precision passed alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence, Union

import numpy as np

from .baselines import NoiseScale, perturb_traces
from .bpea import DEFAULT_MARGIN, check_margin, noise_solver
from .leakage import check_precision, check_requirement, conditional_leakage
from .traces import DEFAULT_HORIZON, SessionTrace, persistence_predict, prediction_errors


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


@dataclass(frozen=True)
class PolicyApplication:
    """Per-GoP upload pipeline outputs of one session, or (traces, GoPs) arrays of a stack."""

    predicted: np.ndarray = field(repr=False)
    errors: np.ndarray = field(repr=False)
    noises: np.ndarray = field(repr=False)
    uploaded: np.ndarray = field(repr=False)
    per_gop_leakage: np.ndarray = field(repr=False)

    @property
    def mean_error_rad(self) -> float:
        return float(np.mean(self.errors))

    @property
    def mean_abs_noise_rad(self) -> float:
        return float(np.mean(np.abs(self.noises)))


def apply_policy(
    trace: SessionTrace | np.ndarray,
    policy: ObfuscationPolicy,
    eps: float,
    rng: np.random.Generator | Sequence[np.random.Generator],
    horizon: int = DEFAULT_HORIZON,
) -> PolicyApplication:
    """Run the upload pipeline for one session under a policy.

    Baseline policies perturb the viewpoint history the predictor sees and
    upload the measured (effective) error unchanged; the noisy-error policy
    predicts from clean history and perturbs only the uploaded error.
    Per-GoP leakage is the conditional leakage at the attacker-observed
    upload. ``NoObfuscation`` and ``BpeaPolicy`` use a trace's supplied
    predictions when present; a baseline policy is refused on such a trace. A
    (traces, GoPs, 3) stack of actual viewpoints with one RNG per trace gives
    (traces, GoPs) outputs, row i equal to the one-trace call with ``rng[i]``.
    """
    eps = check_precision(eps)
    single = isinstance(trace, SessionTrace)
    actual, rngs = (trace.actual[None], [rng]) if single else (trace, rng)
    if not (isinstance(actual, np.ndarray) and actual.ndim == 3 and actual.shape[2] == 3
            and actual.dtype.kind == "f"):
        got = f"{actual.dtype} {actual.shape}" if isinstance(actual, np.ndarray) else type(actual)
        raise ValueError(f"need a SessionTrace or a (traces, GoPs, 3) float array, got {got}")

    if single and trace.predicted is not None:
        if isinstance(policy, NoiseScale):
            raise ValueError(f"a baseline {policy.kind!r} NoiseScale predicts from perturbed "
                             "history, so it cannot apply to a trace with supplied predictions")
        predicted = trace.predicted[None]
    elif isinstance(policy, NoiseScale):
        predicted = persistence_predict(perturb_traces(actual, policy.kind, policy.value, rngs),
                                        horizon)
    else:
        predicted = persistence_predict(actual, horizon)

    errors = prediction_errors(predicted, actual)
    if isinstance(policy, BpeaPolicy):
        app = next(bpea_uploads(predicted, errors, eps, policy.margin, (policy.q,)))
    else:   # only the noisy-error policy adds noise to the uploaded error
        app = PolicyApplication(predicted, errors, np.zeros_like(errors), errors,
                                np.asarray(conditional_leakage(errors, eps)))
    return PolicyApplication(*(getattr(app, f.name)[0] for f in fields(app))) if single else app


def bpea_uploads(predicted: np.ndarray, errors: np.ndarray, eps: float, margin: float, qs):
    """The noisy-error policy's upload at each q of ``qs``, from one solver on ``errors``."""
    for noises, leakage in map(noise_solver(errors, eps, margin), qs):
        yield PolicyApplication(predicted, errors, noises, np.clip(errors + noises, 0.0, math.pi),
                                leakage)
