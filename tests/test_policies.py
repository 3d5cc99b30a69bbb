import math

import numpy as np
import pytest

from viewpriv.baselines import GAUSSIAN_KIND, LAPLACE_KIND, NoiseScale
from viewpriv.harness import synthesize_traces
from viewpriv.policies import BpeaPolicy, NoObfuscation, apply_policy

EPS = 0.1 * math.pi
FIELDS = ("predicted", "errors", "noises", "uploaded", "per_gop_leakage")


@pytest.mark.parametrize("horizon", [0, 2])
@pytest.mark.parametrize("policy", [
    NoObfuscation(),
    BpeaPolicy(q=0.0),
    BpeaPolicy(q=0.2),
    NoiseScale(GAUSSIAN_KIND, 0.3),
    NoiseScale(LAPLACE_KIND, 0.3),
], ids=repr)
def test_stacked_rows_equal_their_one_trace_calls(policy, horizon):
    traces = synthesize_traces(2, 2, 2, 15)
    stacked = apply_policy(np.stack([t.actual for t in traces]), policy, EPS,
                           [np.random.default_rng(i) for i in range(len(traces))], horizon)
    for i, trace in enumerate(traces):
        one = apply_policy(trace, policy, EPS, np.random.default_rng(i), horizon)
        for name in FIELDS:
            assert np.array_equal(getattr(stacked, name)[i], getattr(one, name)), name


def test_any_other_batch_input_is_rejected_with_its_shape():
    traces = synthesize_traces(0, 2, 1, 10)
    stacked = np.stack([t.actual for t in traces])
    rngs = [np.random.default_rng(i) for i in range(len(traces))]
    with pytest.raises(ValueError, match="got <class .list.>"):
        apply_policy(traces, NoObfuscation(), EPS, rngs)
    with pytest.raises(ValueError, match=r"got float64 \(10, 3\)"):
        apply_policy(stacked[0], NoObfuscation(), EPS, rngs[:1])
    with pytest.raises(ValueError, match=r"got float64 \(2, 10, 2\)"):
        apply_policy(stacked[:, :, :2], NoiseScale(GAUSSIAN_KIND, 0.3), EPS, rngs)
