import math

import numpy as np
import pytest

from viewpriv.baselines import GAUSSIAN_KIND, LAPLACE_KIND, SEARCH_MAX, NoiseScale
from viewpriv.harness import ExperimentConfig, generate_trace_set, synthesize_traces
from viewpriv.policies import BpeaPolicy, NoObfuscation, apply_policy
from viewpriv.traces import SessionTrace, generate_synthetic_trace, prediction_errors

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
    walks = synthesize_traces(2, 2, 2, 15).reshape(-1, 15, 3)
    traces = [SessionTrace(i // 2, i % 2, walk) for i, walk in enumerate(walks)]
    stacked = apply_policy(np.stack([t.actual for t in traces]), policy, EPS,
                           [np.random.default_rng(i) for i in range(len(traces))], horizon)
    for i, trace in enumerate(traces):
        one = apply_policy(trace, policy, EPS, np.random.default_rng(i), horizon)
        for name in FIELDS:
            assert np.array_equal(getattr(stacked, name)[i], getattr(one, name)), name


def test_any_other_batch_input_is_rejected_with_its_shape():
    stacked = synthesize_traces(0, 2, 1, 10).reshape(-1, 10, 3)
    rngs = [np.random.default_rng(i) for i in range(len(stacked))]
    with pytest.raises(ValueError, match="got <class .list.>"):
        apply_policy(list(stacked), NoObfuscation(), EPS, rngs)
    with pytest.raises(ValueError, match=r"got float64 \(10, 3\)"):
        apply_policy(stacked[0], NoObfuscation(), EPS, rngs[:1])
    with pytest.raises(ValueError, match=r"got float64 \(2, 10, 2\)"):
        apply_policy(stacked[:, :, :2], NoiseScale(GAUSSIAN_KIND, 0.3), EPS, rngs)


def test_a_baseline_is_refused_on_a_trace_with_supplied_predictions():
    # A baseline re-predicts from perturbed history. On such a trace it once
    # dropped the supplied predictions without a word: at scale 0 it gave the
    # persistence errors, while none and bpea measure the supplied ones.
    actual = generate_synthetic_trace(0, 0, 12, np.random.default_rng(1)).actual
    trace = SessionTrace(0, 0, actual, predicted=np.tile(actual[0], (12, 1)))
    for kind in (GAUSSIAN_KIND, LAPLACE_KIND):
        with pytest.raises(ValueError, match=f"baseline '{kind}' NoiseScale .* supplied predictions"):
            apply_policy(trace, NoiseScale(kind, 0.0), EPS, np.random.default_rng(0))
    for policy in (NoObfuscation(), BpeaPolicy(q=0.3)):
        app = apply_policy(trace, policy, EPS, np.random.default_rng(0))
        assert np.array_equal(app.predicted, trace.predicted)


def test_bpea_protects_each_gop_but_its_predictions_replay_the_session():
    # The persistence prediction uploaded for GoP t + 2 is GoP t's actual
    # viewpoint. bpea perturbs only the uploaded error, so an attacker who reads
    # each prediction as a lag guess finds every viewpoint, at every q, as with
    # no obfuscation: the leakage cap holds per GoP, not per session. A baseline
    # predicts from a perturbed history, so few of its lag guesses land within eps.
    _, actual = generate_trace_set(ExperimentConfig(num_users=6, num_videos=4,
                                                    gops_per_video=60, seed=0))
    for policy in (NoObfuscation(), BpeaPolicy(0.0), BpeaPolicy(0.2), BpeaPolicy(0.5)):
        predicted = apply_policy(actual, policy, EPS, None).predicted
        assert np.array_equal(predicted[:, 2:], actual[:, :-2]), policy
    for kind, scale in SEARCH_MAX.items():
        rngs = [np.random.default_rng(i) for i in range(len(actual))]
        predicted = apply_policy(actual, NoiseScale(kind, scale), EPS, rngs).predicted
        hits = np.mean(prediction_errors(predicted[:, 2:], actual[:, :-2]) <= EPS)
        assert hits < 0.1, (kind, hits)
