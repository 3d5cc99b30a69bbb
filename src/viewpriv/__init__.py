"""Viewpoint-leakage analysis and noisy-error obfuscation for proactive
tile-based VR streaming.

Subpackages:

* ``sphere``     -- unit-sphere geometry primitives
* ``leakage``    -- leakage probabilities for exact-error uploads
* ``bpea``       -- noisy-error mechanism and minimal-noise solver
* ``oracle``     -- Monte-Carlo / grid-search attacker for verification
* ``baselines``  -- Gaussian/Laplace viewpoint noise policies and calibration
* ``policies``   -- obfuscation policies and the upload pipeline
* ``streaming``  -- tile-based proactive streaming simulator
* ``traces``     -- trace synthesis, persistence predictor, CSV IO
* ``harness``    -- tradeoff experiments and results CSV
* ``cli``        -- command-line entry point
"""

from .sphere import SpherePoint, spherical_distance
from .leakage import conditional_leakage, optimal_error_distribution
from .bpea import conditional_leakage_noisy, obfuscate_error, optimal_noise
from .oracle import LeakageEstimate
from .baselines import NoiseScale
from .policies import BpeaPolicy, NoObfuscation, ObfuscationPolicy
from .harness import ExperimentConfig, run_tradeoff_experiment

__all__ = [
    "SpherePoint",
    "spherical_distance",
    "LeakageEstimate",
    "conditional_leakage",
    "optimal_error_distribution",
    "conditional_leakage_noisy",
    "optimal_noise",
    "obfuscate_error",
    "BpeaPolicy",
    "NoiseScale",
    "NoObfuscation",
    "ObfuscationPolicy",
    "ExperimentConfig",
    "run_tradeoff_experiment",
]

__version__ = "0.1.0"
