import csv
import math
import re
import warnings

import numpy as np
import pytest

from viewpriv import traces as trace_io
from viewpriv.harness import ExperimentConfig, generate_trace_set, synthesize_traces
from viewpriv.sphere import norm, random_point, tangent_frame, unit_rows
from viewpriv.traces import (
    MIN_CONCENTRATION,
    MIN_GOPS,
    TRACE_HEADER,
    TRACE_PRED_COLUMNS,
    SessionTrace,
    generate_synthetic_trace,
    generate_synthetic_traces,
    load_traces,
    persistence_predict,
    prediction_errors,
    write_traces,
)

EPS = 0.1 * math.pi


def test_trace_requires_three_gops():
    with pytest.raises(ValueError):
        SessionTrace(0, 0, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def test_trace_renormalizes_rows():
    rows = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])
    trace = SessionTrace(0, 0, rows)
    assert np.allclose(np.linalg.norm(trace.actual, axis=1), 1.0, atol=1e-12)


def test_predicted_must_match_shape():
    rows = np.eye(3)
    with pytest.raises(ValueError):
        SessionTrace(0, 0, rows, predicted=rows[:2])


def test_synthetic_trace_deterministic_per_seed():
    a = generate_synthetic_trace(1, 2, 50, np.random.default_rng(77))
    b = generate_synthetic_trace(1, 2, 50, np.random.default_rng(77))
    assert np.array_equal(a.actual, b.actual)
    c = generate_synthetic_trace(1, 2, 50, np.random.default_rng(78))
    assert not np.array_equal(a.actual, c.actual)


def test_infinite_concentration_is_stationary():
    trace = generate_synthetic_trace(0, 0, 20, np.random.default_rng(1), math.inf)
    assert np.all(trace.actual == trace.actual[0])


def test_synthetic_trace_concentration_validation():
    for concentration in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="concentration must be positive"):
            generate_synthetic_trace(0, 0, 10, np.random.default_rng(0), concentration)
    for concentration in (1e-300, 1e-17, np.nextafter(MIN_CONCENTRATION, 0.0)):
        with pytest.raises(ValueError, match=rf"at least {MIN_CONCENTRATION!r}"):
            generate_synthetic_traces(10, [np.random.default_rng(0)], concentration)
    with pytest.raises(ValueError, match=f"need at least {MIN_GOPS} GoPs, got 2"):
        generate_synthetic_traces(2, [np.random.default_rng(0)])
    # A non-integer count once reached np.empty and raised TypeError there.
    for gops in (3.5, True):
        with pytest.raises(ValueError, match=f"GoP count must be an integer, got {gops!r}"):
            generate_synthetic_traces(gops, [np.random.default_rng(0)])
        with pytest.raises(ValueError, match=f"GoP count must be an integer, got {gops!r}"):
            generate_synthetic_trace(0, 0, gops, np.random.default_rng(0))


def test_a_walk_at_the_concentration_floor_never_stands_still():
    # Below the floor the step cosine rounds to 1: at 1e-17 every step was 0.
    walks = generate_synthetic_traces(400, [np.random.default_rng(i) for i in range(50)],
                                      MIN_CONCENTRATION)
    assert np.all(np.any(walks[:, 1:] != walks[:, :-1], axis=-1))


def test_synthetic_trace_concentrates():
    def mean_step(concentration):
        walk = generate_synthetic_trace(0, 0, 200, np.random.default_rng(5), concentration).actual
        return prediction_errors(walk[:-1], walk[1:]).mean()

    assert mean_step(5_000.0) < mean_step(5.0)


class _PoleFirst:
    """Generator stand-in whose first normal draw, the walk's start point,
    lands within 1e-10 of +z; every later draw comes from the seeded RNG."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._first = True

    def normal(self, size=None):
        if self._first:
            self._first = False
            return np.array([3e-11, 0.0, 1.0])
        return self._rng.normal(size=size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _reference_walk(rng, gops, concentration):
    # Reference walk: one trace, one GoP at a time, on 3-vectors, with the
    # generator's draws in its order: start point, step angles, bearings.
    v = random_point(rng).as_array()
    u = 1.0 - rng.random(gops - 1)
    w = 1.0 + np.log(u + (1.0 - u) * math.exp(-2.0 * concentration)) / concentration
    angles = np.arccos(np.clip(w, -1.0, 1.0))
    bearings = rng.uniform(0.0, 2.0 * math.pi, gops - 1)
    rows = [v]
    for angle, bearing in zip(angles, bearings):
        if abs(v[2]) > 1.0 - 1e-9:
            axis = np.array([1.0, 0.0, 0.0])
        else:
            axis = np.array([0.0, 0.0, 1.0])
        t1 = axis - np.dot(axis, v) * v
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(v, t1)
        out = math.cos(angle) * v + math.sin(angle) * (
            math.cos(bearing) * t1 + math.sin(bearing) * t2
        )
        v = out / np.linalg.norm(out)
        rows.append(v)
    return np.array(rows)


def test_lockstep_walk_matches_per_step_reference():
    count, gops, concentration = 16, 2_000, 32.0

    def rngs():
        return [_PoleFirst(100) if i == 3 else np.random.default_rng(100 + i)
                for i in range(count)]

    batch_rngs, reference_rngs = rngs(), rngs()
    batch = generate_synthetic_traces(gops, batch_rngs, concentration)
    assert batch.shape == (count, gops, 3) and batch.flags.c_contiguous
    assert batch[3, 0] == pytest.approx([0.0, 0.0, 1.0], abs=1e-10)
    for walk, rng, reference_rng in zip(batch, batch_rngs, reference_rngs):
        reference = _reference_walk(reference_rng, gops, concentration)
        assert np.max(np.abs(walk - reference)) <= 1e-12
        assert rng.random() == reference_rng.random()

    # The one-trace form wraps row 0 of a one-RNG stack, and the trace normalises it.
    one_rngs = rngs()
    for i in (0, 3, count - 1):
        one = generate_synthetic_trace(i // 4, i % 4, gops, one_rngs[i], concentration)
        assert (one.user_id, one.video_id) == (i // 4, i % 4)
        assert np.array_equal(one.actual, unit_rows(batch[i]))


def _lockstep_reference(gops, rngs, concentration):
    # The walk as one loop over GoPs on (traces, GoPs, 3) rows, with
    # ``tangent_frame`` and the step trig taken afresh at every step.
    rows = np.empty((len(rngs), gops, 3))
    angles, bearings = np.empty((2, len(rngs), gops - 1, 1))
    walking = not math.isinf(concentration)
    for i, rng in enumerate(rngs):
        rows[i] = random_point(rng).as_array()
        if walking:
            u = 1.0 - rng.random(gops - 1)
            w = 1.0 + np.log(u + (1.0 - u) * math.exp(-2.0 * concentration)) / concentration
            angles[i, :, 0] = np.arccos(np.clip(w, -1.0, 1.0))
            bearings[i, :, 0] = rng.uniform(0.0, 2.0 * math.pi, gops - 1)
    for t in range(1, gops if walking else 1):
        current = rows[:, t - 1]
        t1, t2 = tangent_frame(current)
        a, b = angles[:, t - 1], bearings[:, t - 1]
        step = np.cos(a) * current + np.sin(a) * (np.cos(b) * t1 + np.sin(b) * t2)
        rows[:, t] = step / norm(step)[:, None]
    return rows


@pytest.mark.parametrize("concentration", [32.0, 0.5, math.inf])
@pytest.mark.parametrize("gops", [MIN_GOPS, 2_000])
@pytest.mark.parametrize("count", [1, 16])
def test_walk_matches_the_lockstep_reference_bit_for_bit(count, gops, concentration):
    def rngs():   # trace 3 (the lone trace when count is 1) starts at the pole
        return [_PoleFirst(200 + i) if i == 3 % count else np.random.default_rng(200 + i)
                for i in range(count)]

    batch_rngs, reference_rngs = rngs(), rngs()
    batch = generate_synthetic_traces(gops, batch_rngs, concentration)
    reference = _lockstep_reference(gops, reference_rngs, concentration)
    assert batch.dtype == np.float64 and batch.flags.c_contiguous
    assert batch.shape == reference.shape == (count, gops, 3)
    assert np.array_equal(batch, reference)
    assert [rng.random() for rng in batch_rngs] == [rng.random() for rng in reference_rngs]


def test_persistence_predictor_basics():
    rows = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    pred = persistence_predict(rows, horizon=2)
    assert np.array_equal(pred, rows[[0, 0, 0, 1]])
    assert np.array_equal(persistence_predict(rows, horizon=0), rows)
    stacked = persistence_predict(np.stack([rows, rows[::-1]]), horizon=2)
    assert np.array_equal(stacked, np.stack([pred, rows[::-1][[0, 0, 0, 1]]]))
    with pytest.raises(ValueError):
        persistence_predict(rows, horizon=-1)


def test_persistence_on_stationary_trace_has_zero_error():
    trace = generate_synthetic_trace(0, 0, 10, np.random.default_rng(2), math.inf)
    errors = prediction_errors(persistence_predict(trace.actual, 2), trace.actual)
    assert np.all(errors == 0.0)


def test_prediction_errors_match_numpy_bit_for_bit():
    def reference(p, a):
        return np.arctan2(np.linalg.norm(np.cross(p, a), axis=-1), np.sum(p * a, axis=-1))

    rng = np.random.default_rng(17)
    a = unit_rows(rng.normal(size=(400, 3)))
    p = unit_rows(rng.normal(size=(400, 3)))
    x, y, z = np.eye(3)
    special = np.array([x, y, -z, p[0], p[1], p[2], p[3]])
    partner = np.array([x, -y, x, p[0], -p[1], np.cross(p[2], a[2]), np.cross(p[3], x)])
    p, a = np.vstack((p, special)), np.vstack((a, partner))   # identical, antipodal, orthogonal
    assert np.array_equal(prediction_errors(p, a), reference(p, a))
    out = prediction_errors(special, partner)
    assert out[0] == 0.0 and out[3] == 0.0 and out[1] == math.pi and out[4] == math.pi
    assert np.allclose(out[[2, 5, 6]], 0.5 * math.pi, rtol=0.0, atol=1e-15)
    # Broadcast over a block of (scales, traces, GoPs, 3) against (traces, GoPs, 3).
    block, actual = p[:360].reshape(3, 4, 30, 3), a[:120].reshape(4, 30, 3)
    assert np.array_equal(prediction_errors(block, actual), reference(block, actual))
    assert np.array_equal(prediction_errors(p, x), reference(p, x))


def test_mean_error_grows_with_horizon():
    trace = generate_synthetic_trace(0, 0, 1_000, np.random.default_rng(42))
    means = [
        prediction_errors(persistence_predict(trace.actual, h), trace.actual).mean()
        for h in (1, 2, 3)
    ]
    assert means[0] < means[1] < means[2]


def test_two_gop_errors_straddle_the_precision_radius():
    trace = generate_synthetic_trace(0, 0, 1_000, np.random.default_rng(42))
    errors = prediction_errors(persistence_predict(trace.actual, 2), trace.actual)
    assert np.mean(errors < EPS) > 0.2
    assert np.mean(errors > EPS) > 0.2


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    traces = [generate_synthetic_trace(u, v, 5, rng) for u in range(2) for v in range(2)]
    path = tmp_path / "traces.csv"
    write_traces(traces, path)
    loaded = load_traces(path)
    assert len(loaded) == 4
    for orig, back in zip(traces, loaded):
        assert (back.user_id, back.video_id) == (orig.user_id, orig.video_id)
        assert np.allclose(back.actual, orig.actual, atol=1e-9)


def test_csv_round_trip_with_predictions(tmp_path):
    actual = np.eye(3)
    trace = SessionTrace(7, 1, actual, predicted=actual[::-1].copy())
    path = tmp_path / "t.csv"
    write_traces([trace], path)
    back = load_traces(path)[0]
    assert np.allclose(back.predicted, trace.predicted, atol=1e-9)


def test_load_rejects_zero_norm_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "user_id,video_id,gop_index,actual_x,actual_y,actual_z\n"
        "0,0,0,1,0,0\n0,0,1,0,0,0\n0,0,2,0,1,0\n"
    )
    with pytest.raises(ValueError, match="row 3"):
        load_traces(path)


def test_load_rejects_nan(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "user_id,video_id,gop_index,actual_x,actual_y,actual_z\n"
        "0,0,0,1,0,0\n0,0,1,nan,0,1\n0,0,2,0,1,0\n"
    )
    with pytest.raises(ValueError, match="row 3.*actual_x"):
        load_traces(path)


def test_load_rejects_gap_in_gop_index(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "user_id,video_id,gop_index,actual_x,actual_y,actual_z\n"
        "0,0,0,1,0,0\n0,0,2,0,0,1\n0,0,3,0,1,0\n"
    )
    with pytest.raises(ValueError, match="contiguous"):
        load_traces(path)


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("user,video,gop,x,y,z\n0,0,0,1,0,0\n")
    with pytest.raises(ValueError, match="header"):
        load_traces(path)


def test_full_set_ingestion(tmp_path):
    rng = np.random.default_rng(9)
    traces = [generate_synthetic_trace(u, v, 3, rng) for u in range(48) for v in range(4)]
    path = tmp_path / "set.csv"
    write_traces(traces, path)
    assert len(load_traces(path)) == 192


HEADER_LINE = ",".join(TRACE_HEADER) + "\n"


def test_write_traces_golden_bytes(tmp_path):
    # csv writes each float as its repr, and ends every line with \r\n.
    actual = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [1 / 3, 2 / 3, -2 / 3], [0.0, 0.0, -1.0]])
    predicted = np.array([[0.0, 1.0, 0.0], [0.6, -0.8, 0.0], [1e-20, 1.0, 0.0], [0.8, -0.0, 0.6]])
    path = tmp_path / "t.csv"
    write_traces([SessionTrace(3, 1, actual, predicted), SessionTrace(12, 0, actual, actual)], path)
    rows = [
        "0,1.0,0.0,0.0", "1,0.0,0.6,0.8",
        "2,0.3333333333333333,0.6666666666666666,-0.6666666666666666", "3,0.0,0.0,-1.0",
    ]
    preds = ["0.0,1.0,0.0", "0.6,-0.8,0.0", "1e-20,1.0,0.0", "0.8,-0.0,0.6"]
    assert path.read_bytes() == (
        "user_id,video_id,gop_index,actual_x,actual_y,actual_z,pred_x,pred_y,pred_z\r\n"
        + "".join(f"3,1,{row},{pred}\r\n" for row, pred in zip(rows, preds))
        + "".join(f"12,0,{row},{row[2:]}\r\n" for row in rows)
    ).encode()
    write_traces([SessionTrace(12, 0, actual)], path)
    assert path.read_bytes() == (
        "user_id,video_id,gop_index,actual_x,actual_y,actual_z\r\n"
        + "".join(f"12,0,{row}\r\n" for row in rows)
    ).encode()


def csv_writer_traces(traces, path):
    """The trace writer through csv.writer, kept as the byte reference."""
    include_pred = traces[0].predicted is not None
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER + TRACE_PRED_COLUMNS if include_pred else TRACE_HEADER)
        for trace in traces:
            coords = np.hstack((trace.actual, trace.predicted)) if include_pred else trace.actual
            writer.writerows([trace.user_id, trace.video_id, gop, *row]
                             for gop, row in enumerate(coords.tolist()))


def test_write_traces_matches_csv_writer_byte_for_byte(tmp_path):
    rng = np.random.default_rng(31)
    # Unit rows whose reprs are awkward: subnormals, -0.0, tiny and 17-digit values.
    awkward = np.array([[5e-324, -0.0, 1.0], [1e-20, 1.0, -0.0], [-0.0, -1.0, 2.5e-310],
                        [2.2250738585072014e-308, 0.0, -1.0], [0.6, -0.8, -0.0]])

    def rows(n):
        points = unit_rows(rng.normal(size=(n, 3)))
        points[rng.choice(n, len(awkward), replace=False)] = awkward
        return points

    ids = (3, np.int64(7), np.int32(2), np.uint8(250), 0)
    traces = [SessionTrace(u, v, rows(n), rows(n))
              for u, v, n in zip(ids, ids[::-1], (5, 40, 12, 300, 7))]
    bare = [SessionTrace(t.user_id, t.video_id, t.actual) for t in traces]
    for batch in (traces[3:4], bare[:1], traces, bare):
        write_traces(batch, tmp_path / "got.csv")
        csv_writer_traces(batch, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
    assert b"5e-324" in got and b"-0.0" in got and b"1e-20" in got
    assert re.search(rb",-?0\.[1-9]\d{16}[,\r]", got)   # 17 significant digits


def test_loaded_rows_are_normalised_once(tmp_path):
    # Rows up to 9e-7 off unit norm: one division by sphere.norm, exactly.
    rng = np.random.default_rng(11)
    points = rng.normal(size=(2, 500, 3))
    points /= np.linalg.norm(points, axis=-1, keepdims=True)
    points *= 1.0 + rng.uniform(-9e-7, 9e-7, size=(2, 500, 1))
    path = tmp_path / "t.csv"
    path.write_text(HEADER_LINE + "".join(
        f"{i},0,{g},{x!r},{y!r},{z!r}\n"
        for i in range(2) for g, (x, y, z) in enumerate(points[i].tolist())))
    for i, trace in enumerate(load_traces(path)):
        assert np.array_equal(trace.actual, unit_rows(points[i]))


def test_trace_set_round_trip_moves_coordinates_at_most_one_ulp(tmp_path):
    # The experiment's split, written as gen-traces writes it: user-major, every video.
    cfg = ExperimentConfig(num_users=4, num_train_videos=1, num_videos=2, gops_per_video=200,
                           seed=1)
    train, evaluation = generate_trace_set(cfg)
    path = tmp_path / "set.csv"
    walks = synthesize_traces(cfg.seed, 4, 3, 200, cfg.concentration)
    write_traces([SessionTrace(user, video, walks[user, video])
                  for user in range(4) for video in range(3)], path)
    stacked = np.concatenate((train.reshape(4, 1, 200, 3), evaluation.reshape(4, 2, 200, 3)),
                             axis=1)
    keys = [(user, video) for user in range(4) for video in range(3)]
    for key, orig, back in zip(keys, stacked.reshape(-1, 200, 3), load_traces(path), strict=True):
        assert (back.user_id, back.video_id) == key
        assert np.max(np.abs(back.actual - orig)) <= np.spacing(1.0)


@pytest.mark.parametrize("row, got", [("0,0,1,0,1,0,9,9,9", 9), ("0,0,1,0,1", 5)])
def test_load_rejects_a_wrong_field_count(tmp_path, row, got):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER_LINE + f"0,0,0,1,0,0\n{row}\n0,0,2,0,0,1\n")
    with pytest.raises(ValueError, match=f"^row 3: expected 6 fields, got {got}$"):
        load_traces(path)


def test_load_errors_name_the_file_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER_LINE + "0,0,0,1,0,0\n\n\n0,0,1,nan,0,1\n0,0,2,0,1,0\n")
    with pytest.raises(ValueError, match="^row 5: column 'actual_x' is not finite$"):
        load_traces(path)
    path.write_text(HEADER_LINE + "\n0,0,0,1,0,0\n0,0,1,0,1,0\n\n0,0,2,0,0,1\n")
    assert load_traces(path)[0].gops == 3


def test_load_rejects_interleaved_traces(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER_LINE + "".join(
        f"{u},0,{g},1,0,0\n" for u, g in [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (0, 2)]))
    with pytest.raises(ValueError, match=r"^row 7: trace \(0, 0\) reappears after its block"):
        load_traces(path)


@pytest.mark.parametrize("rows, message", [
    # A gap on an earlier row is reported before a later row's parse error.
    (["0,0,0,1,0,0", "0,0,2,0,1,0", "0,0,3,x,0,1"], "row 3: gop_index 2 breaks"),
    (["0,0,0,1,0,0", "0,0,1,0,2,0", "0,0,2,1,0"], "row 3: columns actual_x..actual_z have norm 2"),
    # Within a row: ids, then contiguity, then each column, then the norm.
    (["0,0,0,1,0,0", "0,0,5,x,0,1"], "row 3: gop_index 5 breaks"),
    (["0,0,0,1,0,0", "0,0,1,inf,x,1"], "row 3: column 'actual_x' is not finite"),
    (["0,0,0,1,0,0", "0,0,1,0,x,1"], "row 3: column 'actual_y' is not a number: 'x'"),
    (["0,0,0,1,0,0", "0,x,1,0,0,0"], "row 3: user_id/video_id/gop_index must be integers"),
])
def test_load_reports_the_first_failing_check_in_file_order(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER_LINE + "".join(row + "\n" for row in rows))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        load_traces(path)


def test_load_checks_the_actual_norm_before_a_bad_prediction(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(TRACE_HEADER + ["pred_x", "pred_y", "pred_z"]) + "\n"
                    "0,0,0,1,0,0,1,0,0\n0,0,1,0,0,3,x,0,1\n")
    with pytest.raises(ValueError, match="^row 3: columns actual_x..actual_z have norm 3"):
        load_traces(path)


def test_write_traces_refuses_an_empty_list(tmp_path):
    # A header-only file would not load back: "no trace rows found".
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="^no traces to write"):
        write_traces([], path)
    with pytest.raises(ValueError, match="^either all traces carry predictions or none do"):
        write_traces([SessionTrace(0, 0, np.eye(3), np.eye(3)), SessionTrace(1, 0, np.eye(3))], path)
    assert not path.exists()


def test_write_traces_refuses_ids_that_do_not_load_back(tmp_path):
    # "3.0" or "True" in an id column is refused by load_traces, so the
    # writer refuses it first, before the file is opened.
    path = tmp_path / "t.csv"
    rows = np.eye(3)
    for user, video in ((3.0, 0), (True, 0), (0, np.float64(2.0))):
        bad = SessionTrace(user, video, rows)
        with pytest.raises(ValueError, match=re.escape(f"trace ({user!r}, {video!r}) would not")):
            write_traces([SessionTrace(0, 0, rows), bad], path)
        assert not path.exists()
    write_traces([SessionTrace(np.int64(3), np.int64(-5), rows)], path)
    trace, = load_traces(path)
    assert (trace.user_id, trace.video_id) == (3, -5)


PRED_HEADER_LINE = ",".join(TRACE_HEADER + TRACE_PRED_COLUMNS)
ROWS = ["0,0,0,1,0,0", "0,0,1,0,1,0", "0,0,2,0,0,1"]


def _body(*rows, end="\n"):
    return HEADER_LINE.rstrip("\n") + end + "".join(row + end for row in rows)


def _with(field, value, row=1):
    # ROWS with one field of one row replaced.
    fields = ROWS[row].split(",")
    fields[field] = value
    return _body(*ROWS[:row], ",".join(fields), *ROWS[row + 1:])


def _awkward_trace_file():
    # Reprs of 17 significant digits, subnormals and -0.0, with predictions.
    rng = np.random.default_rng(23)
    actual, predicted = rng.normal(size=(2, 2, 50, 3))
    actual /= norm(actual)[..., None]
    predicted /= norm(predicted)[..., None]
    actual[0, 7], predicted[1, 3] = [5e-324, -0.0, 1.0], [-0.0, 2.5e-310, -1.0]
    return PRED_HEADER_LINE + "\r\n" + "".join(
        f"{u},{7 - u},{g},{','.join(map(repr, a + p))}\r\n"
        for u in range(2) for g, (a, p) in enumerate(zip(actual[u].tolist(),
                                                         predicted[u].tolist())))


LOAD_CORPUS = {
    "valid": _body(*ROWS),
    "crlf": _body(*ROWS, end="\r\n"),
    "cr_only": _body(*ROWS, end="\r"),
    "mixed_line_ends": HEADER_LINE + ROWS[0] + "\r\n" + ROWS[1] + "\r" + ROWS[2] + "\n",
    "blank_lines": HEADER_LINE + "\n\r\n" + ROWS[0] + "\n\n\r" + "\n".join(ROWS[1:]) + "\n\n",
    "whitespace_line": _body(ROWS[0], "   ", *ROWS[1:]),
    "tab_line": _body(ROWS[0], "\t", *ROWS[1:]),
    "quoted_fields": _body(ROWS[0], '"0",0,"1","0",1,"0"', ROWS[2]),
    "quoted_header": ('"user_id",video_id,gop_index,"actual_x",actual_y,actual_z\n'
                      + "\n".join(ROWS)),
    "quoted_comma": _with(3, '"0,0"'),
    "underscore_id": _body(*(row.replace("0,0,", "1_0,0,", 1) for row in ROWS)),
    "underscore_coordinate": _with(4, "1_0"),
    "underscore_unit_coordinate": _with(3, "1_0e-1", row=0),
    "arabic_digit_id": _body(*(row.replace("0,0,", "0,\u0661,", 1) for row in ROWS)),
    "arabic_digit_coordinate": _with(4, "\u0661"),
    "plus_signs": _body(*(row.replace("1", "+1") for row in ROWS)),
    "spaces_around_fields": _body(ROWS[0], " 0 ,0, 1,0 , 1 ,0\u00a0", ROWS[2]),
    "signed_zeros": _body("-0,+0,0,1,-0.0,0.0", "+0,-0,1,-0.0,1.0,-0", "0,0,+2,0,-0,1"),
    "id_past_int64": _body(*(f"{2**63},{row[2:]}" for row in ROWS)),
    "id_below_int64": _body(*(f"{-2**63 - 1},{row[2:]}" for row in ROWS)),
    "id_at_int64_max": _body(*(f"{2**63 - 1},{row[2:]}" for row in ROWS)),
    "float_id": _with(2, "1.0"),
    "exponent_id": _with(0, "0e0"),
    "inf": _with(4, "inf"),
    "nan": _with(4, "nan"),
    "overflowing_coordinate": _with(4, "1e500"),
    "hex_coordinate": _with(4, "0x1p0"),
    "empty_coordinate": _with(4, ""),
    "trailing_comma": _body(ROWS[0], ROWS[1] + ",", ROWS[2]),
    "comment_line": _body(ROWS[0], "# a note", *ROWS[1:]),
    "nul_in_field": _with(4, "1\x00"),
    "header_only": HEADER_LINE,
    "header_only_crlf_blank": HEADER_LINE.rstrip("\n") + "\r\n\r\n\n",
    "empty_file": "",
    "one_row_trace": _body(ROWS[0]),
    "short_second_trace": _body(*ROWS, "1,0,0,1,0,0"),
    "bom": "\ufeff" + _body(*ROWS),
    "bom_in_body": _body(ROWS[0], "\ufeff" + ROWS[1], ROWS[2]),
    "gop_gap": _with(2, "2"),
    "interleaved": _body(*ROWS[:2], "1,0,0,1,0,0", "1,0,1,0,1,0", "1,0,2,0,0,1", ROWS[2]),
    "bad_norm": _with(4, "0.5"),
    "near_unit_norm": _with(4, "1.0000009"),
    "wrong_field_count": _body(ROWS[0], "0,0,1,0,1", ROWS[2]),
    "predictions": PRED_HEADER_LINE + "\n" + "".join(
        f"{row},{pred}\n" for row, pred in zip(ROWS, ["0,1,0", "1,0,0", "0,0,-1"])),
    "prediction_bad_norm": PRED_HEADER_LINE + "\n" + "".join(
        f"{row},{row[6:] if g != 2 else '0,0,2'}\n" for g, row in enumerate(ROWS)),
    "awkward_floats": _awkward_trace_file(),
    # Past the text layer's first decoded chunk, so the body read meets it.
    "invalid_utf8_in_body": (HEADER_LINE + "".join(f"0,0,{g},1,0,0\n" for g in range(1_000)))
    .encode().replace(b"\n0,0,900,", b"\n0,0,9\xff00,"),
}
# The corpus cases both readers accept; every other case is refused.
LOADABLE = {
    "valid", "crlf", "cr_only", "mixed_line_ends", "blank_lines", "quoted_fields",
    "quoted_header", "underscore_id", "underscore_unit_coordinate", "arabic_digit_id",
    "arabic_digit_coordinate", "plus_signs", "spaces_around_fields", "signed_zeros",
    "id_past_int64", "id_below_int64", "id_at_int64_max", "near_unit_norm", "predictions",
    "awkward_floats",
}


def _outcome(read, path):
    """What a reader gives: every trace's ids and row bytes, or its error."""
    try:
        return [(type(t.user_id), t.user_id, t.video_id, t.actual.tobytes(),
                 None if t.predicted is None else t.predicted.tobytes()) for t in read(path)]
    except Exception as exc:   # the error itself is the outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("case", sorted(LOAD_CORPUS))
def test_load_traces_matches_the_row_reader(tmp_path, case):
    path = tmp_path / "t.csv"
    text = LOAD_CORPUS[case]
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    outcome = _outcome(load_traces, path)
    assert outcome == _outcome(trace_io._load_rows, path)
    assert isinstance(outcome, list) == (case in LOADABLE)


def test_only_files_the_one_pass_read_refuses_reach_the_row_reader(tmp_path, monkeypatch):
    calls = []
    row_reader = trace_io._load_rows
    monkeypatch.setattr(trace_io, "_load_rows", lambda path: calls.append(path) or row_reader(path))
    rng = np.random.default_rng(8)
    actual, predicted = rng.normal(size=(2, 16, 1_000, 3))
    actual /= norm(actual)[..., None]
    predicted /= norm(predicted)[..., None]
    traces = [SessionTrace(i // 4, i % 4, actual[i], predicted[i]) for i in range(16)]
    path = tmp_path / "set.csv"
    write_traces(traces, path)
    loaded = load_traces(path)
    assert calls == []
    for orig, back in zip(traces, loaded, strict=True):
        assert (back.user_id, back.video_id) == (orig.user_id, orig.video_id)
        assert np.array_equal(back.actual, unit_rows(orig.actual))
        assert np.array_equal(back.predicted, unit_rows(orig.predicted))
    # One row off by one gop_index: the row reader names its file line.
    lines = path.read_bytes().split(b"\r\n")
    lines[1_501] = lines[1_501].replace(b"0,1,500,", b"0,1,501,", 1)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ValueError, match="^row 1502: gop_index 501 breaks"):
        load_traces(path)
    assert calls == [path]
    # A loadtxt that parses with a warning (as some numpy releases read "1.0"
    # into an int column) is refused too.
    write_traces(traces[:2], path)
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("parsed with a warning", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    assert len(load_traces(path)) == 2
    assert calls == [path, path]
