"""Session traces: synthesis, the persistence predictor proxy, and CSV IO.

A session trace is one user watching one video: a sequence of per-GoP
actual viewpoints, optionally with externally supplied predictions.
Synthetic traces follow a bounded random walk on the sphere whose per-GoP
step is drawn from a von Mises-Fisher distribution around the current
viewpoint; higher concentration means slower head movement.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .sphere import TWO_PI, is_integer, norm, random_point, step_walk, unit_rows

# Tuned so that two-GoP-ahead persistence errors spread across both sides of
# a 0.1*pi precision radius.
DEFAULT_CONCENTRATION = 32.0
DEFAULT_HORIZON = 2

MIN_GOPS = 3
# Below this, the rounding error of a step's cosine w (about 1.1e-16 / concentration) stops
# the walk: at 1e-17 every step is 0. At it, w errs by ~1e-10 and is uniform within 4e-7.
MIN_CONCENTRATION = 1e-6

TRACE_HEADER = [
    "user_id", "video_id", "gop_index",
    "actual_x", "actual_y", "actual_z",
]
TRACE_PRED_COLUMNS = ["pred_x", "pred_y", "pred_z"]

_NORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SessionTrace:
    user_id: int
    video_id: int
    actual: np.ndarray = field(repr=False)
    predicted: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        actual = unit_rows(self.actual)
        if len(actual) < MIN_GOPS:
            raise ValueError(
                f"trace ({self.user_id}, {self.video_id}) has {len(actual)} GoPs; "
                f"need at least {MIN_GOPS}"
            )
        object.__setattr__(self, "actual", actual)
        if self.predicted is not None:
            predicted = unit_rows(self.predicted)
            if predicted.shape != actual.shape:
                raise ValueError("predicted viewpoints must match the actual GoP count")
            object.__setattr__(self, "predicted", predicted)

    @property
    def gops(self) -> int:
        return len(self.actual)


def check_concentration(concentration: float) -> None:
    """A walk's vMF concentration: at least ``MIN_CONCENTRATION``, or +inf for a stationary walk."""
    if not concentration >= MIN_CONCENTRATION:
        raise ValueError(f"concentration must be positive and at least {MIN_CONCENTRATION!r} "
                         f"(or inf), got {concentration!r}")


def check_gops(gops: int) -> None:
    """A walk's GoP count: an integer of at least ``MIN_GOPS``."""
    if not is_integer(gops):
        raise ValueError(f"GoP count must be an integer, got {gops!r}")
    if gops < MIN_GOPS:
        raise ValueError(f"traces need at least {MIN_GOPS} GoPs, got {gops!r}")


def generate_synthetic_traces(
    gops: int,
    rngs: list[np.random.Generator],
    concentration: float = DEFAULT_CONCENTRATION,
) -> np.ndarray:
    """Bounded-random-walk head traces, one per RNG, as a C-contiguous
    (traces, GoPs, 3) stack of the walk's rows, not renormalised.

    Trace i draws from ``rngs[i]`` alone: its start point, then its step
    angles, then its step bearings. ``sphere.step_walk`` then steps every
    trace at once, so a trace does not depend on the rest of the batch.
    """
    check_gops(gops)
    check_concentration(concentration)
    walk = np.empty((gops, 3, len(rngs)))
    angles, bearings = np.empty((2, gops - 1, len(rngs)))
    walking = not math.isinf(concentration)   # infinite concentration stays at the start
    for i, rng in enumerate(rngs):
        walk[0, :, i] = random_point(rng).as_array()
        if walking:
            u = 1.0 - rng.random(gops - 1)   # in (0, 1], for the vMF cosine's inverse CDF
            w = 1.0 + np.log(u + (1.0 - u) * math.exp(-2.0 * concentration)) / concentration
            angles[:, i] = np.arccos(np.clip(w, -1.0, 1.0))
            bearings[:, i] = rng.uniform(0.0, TWO_PI, gops - 1)
    if walking:   # each sine overwrites its table, after the cosine has read it
        step_walk(walk, np.cos(angles), np.sin(angles, out=angles),
                  np.cos(bearings), np.sin(bearings, out=bearings))
    else:
        walk[1:] = walk[0]
    del angles, bearings   # freed before the trace-major copy
    return np.ascontiguousarray(walk.transpose(2, 0, 1))


def generate_synthetic_trace(
    user_id: int,
    video_id: int,
    gops: int,
    rng: np.random.Generator,
    concentration: float = DEFAULT_CONCENTRATION,
) -> SessionTrace:
    """Bounded-random-walk head trace with ``gops`` viewpoints."""
    return SessionTrace(user_id, video_id, generate_synthetic_traces(gops, [rng], concentration)[0])


def persistence_predict(actual: np.ndarray, horizon: int = DEFAULT_HORIZON) -> np.ndarray:
    """Predict each GoP's viewpoint as the one observed ``horizon`` GoPs ago.

    ``actual`` is (GoPs, 3), or (traces, GoPs, 3) to predict every trace at
    once. The first GoPs, for which no observation that old exists, reuse
    the earliest available viewpoint. ``horizon`` = 0 returns the input.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    actual = np.asarray(actual, dtype=float)
    indices = np.maximum(np.arange(actual.shape[-2]) - horizon, 0)
    return actual[..., indices, :]


def prediction_errors(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Spherical distances between predictions and actuals, elementwise over
    the last axis. Written out by component, and bit-equal to
    ``arctan2(linalg.norm(cross(p, a), axis=-1), sum(p * a, axis=-1))``."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    p0, p1, p2, a0, a1, a2 = p[..., 0], p[..., 1], p[..., 2], a[..., 0], a[..., 1], a[..., 2]
    c0, c1, c2 = p1 * a2 - p2 * a1, p2 * a0 - p0 * a2, p0 * a1 - p1 * a0
    return np.arctan2(np.sqrt(c0 * c0 + c1 * c1 + c2 * c2), p0 * a0 + p1 * a1 + p2 * a2)


def _coordinate_problem(columns, fields) -> str | None:
    """The first check a row's coordinates (strings as read, or values) fail."""
    for j in range(0, len(columns), 3):
        for col, field in zip(columns[j:j + 3], fields[j:j + 3]):
            try:
                value = float(field)
            except ValueError:
                return f"column {col!r} is not a number: {field!r}"
            if not math.isfinite(value):
                return f"column {col!r} is not finite"
        length = float(norm(np.array([float(f) for f in fields[j:j + 3]])))
        if abs(length - 1.0) > _NORM_TOLERANCE:
            return (f"columns {columns[j]}..{columns[j + 2]} have norm {length:.8f}, "
                    f"more than {_NORM_TOLERANCE} away from 1")


def _trace_header(reader) -> list[str]:
    if (header := next(reader, [])) not in (TRACE_HEADER, TRACE_HEADER + TRACE_PRED_COLUMNS):
        raise ValueError(f"unexpected trace header: {header}")
    return header


def _checked_traces(ids, values, columns, lines=None, stop=None):
    """The traces of parsed rows once grouping, gop_index order and every
    point's norm pass. The first failing row raises its problem with its
    file line from ``lines``, or returns None when no lines are given; then
    a pending parse ``stop`` raises. ``values`` may stop short of ``ids``."""
    starts = np.flatnonzero(np.r_[True, np.any(ids[1:, :2] != ids[:-1, :2], axis=1)])
    ends = np.r_[starts[1:], len(ids)]
    expected = np.arange(len(ids)) - np.repeat(starts, ends - starts)
    seen, regrouped = set(), np.zeros(len(ids), dtype=bool)
    for s in starts:
        regrouped[s] = (key := tuple(ids[s, :2].tolist())) in seen
        seen.add(key)
    bad = regrouped | (ids[:, 2] != expected)
    for j in range(0, len(columns), 3):   # a non-finite coordinate gives a NaN or inf norm
        bad[:len(values)] |= ~(np.abs(norm(values[:, j:j + 3]) - 1.0) <= _NORM_TOLERANCE)
    failing = np.flatnonzero(bad)
    if failing.size:
        if lines is None:
            return None
        r = failing[0]
        key, gop = tuple(ids[r, :2].tolist()), ids[r, 2]
        if regrouped[r]:
            stop = f"trace {key} reappears after its block; rows must be grouped by trace"
        elif gop != expected[r]:
            stop = f"gop_index {gop} breaks the contiguous-from-0 order for trace {key}"
        else:
            stop = _coordinate_problem(columns, values[r])
        raise ValueError(f"row {lines[r]}: {stop}")
    if stop is not None:
        raise ValueError(f"row {lines[-1]}: {stop}")
    return [SessionTrace(int(ids[s, 0]), int(ids[s, 1]), values[s:e, :3],
                         values[s:e, 3:] if len(columns) > 3 else None)
            for s, e in zip(starts, ends)]


def load_traces(path) -> list[SessionTrace]:
    """Read session traces from CSV, validating schema and geometry.

    Rows must be grouped by (user_id, video_id): each trace is one block of
    rows with gop_index contiguous from 0. Every row has the header's field
    count; blank lines are skipped. An error names the file line of the
    first failing row. ``SessionTrace`` normalises each row once.

    ``np.loadtxt`` parses the body in one pass; a file it cannot parse
    cleanly, or with a failing row, is read again row by row (``_load_rows``).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = _trace_header(csv.reader(fh))
        dtype = [("ids", np.int64, 3), ("values", np.float64, len(header) - 3)]
        try:
            with warnings.catch_warnings():   # e.g. "1.0" read as an id, or no rows
                warnings.simplefilter("error")
                rows = np.loadtxt(fh, dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            rows = ()
    traces = _checked_traces(rows["ids"], rows["values"], header[3:]) if len(rows) else None
    return _load_rows(path) if traces is None else traces


def _load_rows(path) -> list[SessionTrace]:
    """``load_traces`` one row at a time through ``csv.reader``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _trace_header(reader)
        width = len(header) - 3
        # Flat columns, checked in bulk below. A row that fails to parse
        # ends the read, and its problem waits in ``stop`` for earlier rows'.
        ints, floats, lines, stop = [], [], [], None
        for row in filter(None, reader):   # skips blank lines
            lines.append(reader.line_num)
            if len(row) != len(header):
                stop = f"expected {len(header)} fields, got {len(row)}"
                break
            try:
                ints.extend(map(int, row[:3]))
            except ValueError:
                del ints[3 * (len(lines) - 1):]
                stop = "user_id/video_id/gop_index must be integers"
                break
            try:
                floats.extend(map(float, row[3:]))
            except ValueError:
                del floats[width * (len(lines) - 1):]
                stop = _coordinate_problem(header[3:], row[3:])
                break

    if not ints:
        raise ValueError(f"row {lines[-1]}: {stop}" if stop else f"{path}: no trace rows found")
    return _checked_traces(np.array(ints).reshape(-1, 3), np.array(floats).reshape(-1, width),
                           header[3:], lines, stop)


def write_traces(traces: list[SessionTrace], path) -> None:
    """Write session traces in the CSV schema accepted by ``load_traces``."""
    if not traces:
        raise ValueError("no traces to write: a file without trace rows does not load")
    include_pred = any(t.predicted is not None for t in traces)
    if include_pred and not all(t.predicted is not None for t in traces):
        raise ValueError("either all traces carry predictions or none do")
    for t in traces:
        if not (is_integer(t.user_id) and is_integer(t.video_id)):
            raise ValueError(f"trace ({t.user_id!r}, {t.video_id!r}) would not load back: "
                             "user_id and video_id must be integers")
    header = TRACE_HEADER + TRACE_PRED_COLUMNS if include_pred else TRACE_HEADER
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # The bytes csv.writer gives: a float is its repr, the shortest
        # round-trip digits, and no int or float repr needs quoting.
        fh.write(",".join(header) + "\r\n")
        for trace in traces:
            coords = np.hstack((trace.actual, trace.predicted)) if include_pred else trace.actual
            key = f"{trace.user_id},{trace.video_id}"
            fh.write("".join([f"{key},{gop},{','.join(map(repr, row))}\r\n"
                              for gop, row in enumerate(coords.tolist())]))
