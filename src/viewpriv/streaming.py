"""Tile-based proactive streaming simulator.

The sphere is sliced into a 4x8 equirectangular tile grid (rows are
latitude bands, columns wrap at the 360-degree seam). Each GoP, the server
streams a rectangular zone of tiles centered on the predicted-FoV center
tile; the zone shape grows with the uploaded prediction error. Tiles are
taken in ring order: ring distance from the pFoV center, then row, then
column. An allocation is the longest prefix of three passes that fits the
per-GoP bitrate budget: every zone tile streamed at the lowest quality,
the same tiles upgraded to the highest, then every tile outside the zone
added at the highest. The pFoV is the zone's rings 0 and 1, so upgrading
the zone in ring order spends on the pFoV center tile, the rest of the
pFoV and the rest of the zone, in that order.

The session score is a four-term weighted surrogate on a [1, 5] scale:
gaze-tile quality, mean FoV quality, temporal quality smoothness, and the
absence of stalls. A GoP stalls when its budget cannot cover the zone at
low quality or when any actual-FoV tile was not streamed; a transition
into or out of a stalled GoP counts as maximal quality variation. The
weights are artifact defaults, declared in ``QOE_WEIGHTS``.

An allocation depends only on the pFoV center tile, the zone shape and the
budget, so every per-GoP term is gathered from tables built once per budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .leakage import check_errors
from .policies import ObfuscationPolicy, PolicyApplication, apply_policy
from .traces import SessionTrace

TILE_ROWS = 4
TILE_COLS = 8

# Ordered feasible zone shapes, smallest to whole-sphere.
ZONE_SHAPES = ((3, 3), (3, 5), (3, 7), (4, 7), (4, 8))

FOV_SHAPE = (3, 3)

DEFAULT_BUDGET_MBIT = 95.4
_BUDGET_SLACK = 1e-9

GOP_SECONDS = 1.0

# Gaze-tile quality, mean FoV quality, quality smoothness, no stalls.
QOE_WEIGHTS = (0.4, 0.3, 0.15, 0.15)

Tile = tuple[int, int]


# Tile rates; a streamed tile's quality is its rate over HIGH_MBPS.
LOW_MBPS = 1.8
HIGH_MBPS = 6.0


def check_budget(budget_mbit: float) -> None:
    """A per-GoP bitrate budget in Mbit: non-negative, or +inf."""
    if not budget_mbit >= 0.0:
        raise ValueError(f"budget must be non-negative, got {budget_mbit!r}")


# The grid: a tile is one of these (row, column) pairs, and its flat index is its place here.
_TILES = tuple((r, c) for r in range(TILE_ROWS) for c in range(TILE_COLS))


def tiles_of(points) -> np.ndarray:
    """Flat tile indices, row * TILE_COLS + col, of finite unit vectors of any leading shape."""
    points = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(points)):
        raise ValueError(f"viewpoints must be finite, got {points[~np.isfinite(points)][0]}")
    x, y, z = points.reshape(-1, 3).T
    rows = np.arccos(np.clip(z, -1.0, 1.0)) / math.pi * TILE_ROWS
    cols = np.arctan2(y, x) % (2.0 * math.pi) / (2.0 * math.pi) * TILE_COLS
    # numpy's vectorized arccos/arctan2 can differ from libm's by an ulp,
    # enough to move a point that sits on a tile edge: libm decides there.
    near = (np.abs(rows - np.rint(rows)) < 1e-9) | (np.abs(cols - np.rint(cols)) < 1e-9)
    for i in np.flatnonzero(near):
        rows[i] = math.acos(min(1.0, max(-1.0, z[i]))) / math.pi * TILE_ROWS
        cols[i] = math.atan2(y[i], x[i]) % (2.0 * math.pi) / (2.0 * math.pi) * TILE_COLS
    tiles = np.minimum(rows.astype(int), TILE_ROWS - 1) * TILE_COLS
    return (tiles + np.minimum(cols.astype(int), TILE_COLS - 1)).reshape(np.shape(points)[:-1])


def tile_of(point) -> Tile:
    """Tile containing a unit viewpoint vector; the one-point call of ``tiles_of``."""
    return _TILES[int(tiles_of(point))]


# Columns apart across the 360-degree seam, either way round: [column][column].
_COL_DISTANCE = tuple(tuple(min(abs(c - d), TILE_COLS - abs(c - d)) for d in range(TILE_COLS))
                      for c in range(TILE_COLS))


def block_tiles(center: Tile, shape: tuple[int, int]) -> frozenset:
    """The tiles within ``rows // 2`` rows (every row for a shape as tall as the
    grid) and ``cols // 2`` seam-wrapping columns of ``center``, so a block near
    a pole can lose a row; row-major, the order ``_qoe_tables`` sums FoVs in."""
    if center not in _TILES:
        raise ValueError(f"tile {center!r} is not on the {TILE_ROWS}x{TILE_COLS} grid")
    rows, cols = shape
    r, c = center
    half_rows = TILE_ROWS if rows >= TILE_ROWS else rows // 2
    return frozenset((rr, cc) for rr, cc in _TILES
                     if abs(rr - r) <= half_rows and _COL_DISTANCE[c][cc] <= cols // 2)


@lru_cache(maxsize=TILE_ROWS * TILE_COLS)
def fov_tiles(center: Tile) -> frozenset:
    return block_tiles(center, FOV_SHAPE)


def zone_indices(uploaded) -> np.ndarray:
    """``ZONE_SHAPES`` index per uploaded error, any shape; linear, rounded half up."""
    e = check_errors(uploaded)
    index = np.floor((len(ZONE_SHAPES) - 1) * e / math.pi + 0.5).astype(int)
    return np.minimum(index, len(ZONE_SHAPES) - 1)


def zone_from_error(uploaded_error: float) -> tuple[int, int]:
    """Feasible zone shape for an uploaded error; the one-error call of ``zone_indices``."""
    return ZONE_SHAPES[int(zone_indices(uploaded_error))]


@lru_cache(maxsize=len(_TILES))
def _ring_order(center: Tile) -> tuple:
    """Every tile by ring distance from ``center``, then row, then column."""
    cr, near = center[0], _COL_DISTANCE[center[1]]
    return tuple(sorted(_TILES, key=lambda tile: (max(abs(tile[0] - cr), near[tile[1]]), tile)))


def allocate_quality(center: Tile, shape: tuple[int, int], budget_mbit: float) -> tuple[dict, bool]:
    """(quality, under_provisioned) for one GoP under the bitrate budget: the
    zone of ``shape`` and the pFoV are both the blocks around the pFoV center
    tile, and ``quality`` maps each streamed tile to its quality.

    The steps are the zone tiles low, the same tiles upgraded to high, then
    the tiles outside the zone high, each pass in ring order. The map keeps
    the steps whose running spend, summed left to right, is within the
    budget; it is under-provisioned when they end inside the first pass."""
    check_budget(budget_mbit)
    if shape not in ZONE_SHAPES:
        raise ValueError(f"zone shape {shape} is outside the feasible set {ZONE_SHAPES}")
    zone = block_tiles(center, shape)
    inner = [tile for tile in _ring_order(center) if tile in zone]
    outer = [tile for tile in _ring_order(center) if tile not in zone]
    low = LOW_MBPS / HIGH_MBPS
    steps = [(tile, low) for tile in inner] + [(tile, 1.0) for tile in inner + outer]
    costs = ([LOW_MBPS * GOP_SECONDS] * len(inner)
             + [(HIGH_MBPS - LOW_MBPS) * GOP_SECONDS] * len(inner)
             + [HIGH_MBPS * GOP_SECONDS] * len(outer))
    # Every cost is positive, so the steps within the budget are a prefix.
    kept = sum(spent <= budget_mbit + _BUDGET_SLACK for spent in accumulate(costs))
    # An upgrade replaces its tile's quality in place, keeping the tile's order.
    return dict(steps[:kept]), kept < len(inner)


@lru_cache(maxsize=16)
def _qoe_tables(budget_mbit: float) -> tuple[np.ndarray, ...]:
    """The per-GoP terms ``_qoe_reports`` takes, of every allocation under the
    budget, each indexed [pFoV center tile, zone shape, actual-FoV center tile]."""
    count = len(_TILES)
    # The last slot is never streamed; it pads FoVs clamped at a pole.
    quality = np.zeros((count, len(ZONE_SHAPES), count + 1))
    under = np.zeros((count, len(ZONE_SHAPES), 1), dtype=bool)
    for p, center in enumerate(_TILES):
        for z, shape in enumerate(ZONE_SHAPES):
            streamed, under[p, z] = allocate_quality(center, shape, budget_mbit)
            for (r, c), value in streamed.items():
                quality[p, z, r * TILE_COLS + c] = value
    fovs = [[r * TILE_COLS + c for r, c in fov_tiles(center)] for center in _TILES]
    fov = np.array([f + [count] * (max(map(len, fovs)) - len(f)) for f in fovs])
    size = np.broadcast_to([len(f) for f in fovs], (count, len(ZONE_SHAPES), count))
    covered = (quality[:, :, fov] > 0.0).sum(axis=-1)
    fov_mean = _left_sums(quality[:, :, fov]) / size
    return quality[:, :, :count], fov_mean, covered, size, under | (covered < size)


@dataclass(frozen=True)
class QoEReport:
    qoe: float
    fov_coverage: float
    mean_fov_quality: float
    quality_variation: float
    stall_fraction: float


def _left_sums(x: np.ndarray) -> np.ndarray:
    """Left-to-right sums over the last axis, so scores match a per-GoP loop to the bit."""
    return np.cumsum(x, axis=-1)[..., -1] if x.shape[-1] else np.zeros(x.shape[:-1])


def _qoe_reports(gaze, fov_mean, covered, fov_size, stalled) -> list[QoEReport]:
    """One report per session from (sessions, GoPs) arrays of per-GoP terms."""
    gops = gaze.shape[-1]
    jumps = np.minimum(1.0, np.abs(np.diff(fov_mean, axis=-1)))
    transitions = np.where(stalled[:, :-1] | stalled[:, 1:], 1.0, jumps)
    variation = _left_sums(transitions) / max(gops - 1, 1)
    stall_fraction = stalled.sum(axis=-1) / gops
    mean_fov = _left_sums(fov_mean) / gops
    w1, w2, w3, w4 = QOE_WEIGHTS
    qoe = 1.0 + 4.0 * (w1 * (_left_sums(gaze) / gops) + w2 * mean_fov
                       + w3 * (1.0 - variation) + w4 * (1.0 - stall_fraction))
    coverage = covered.sum(axis=-1) / fov_size.sum(axis=-1)
    fields = (qoe, coverage, mean_fov, variation, stall_fraction)
    return [QoEReport(*values) for values in zip(*(f.tolist() for f in fields))]


def qoe_score(per_gop: list) -> QoEReport:
    """Session score, weighted by ``QOE_WEIGHTS``, from per-GoP ``(fov_center, quality,
    under_provisioned)`` triples: the actual-FoV center tile and ``allocate_quality``'s pair."""
    if not per_gop:
        raise ValueError("cannot score an empty session")
    terms = []
    for fov_center, quality, under_provisioned in per_gop:
        fov = fov_tiles(fov_center)
        covered = sum(1 for tile in fov if tile in quality)
        size = len(fov)
        fov_mean = sum(quality.get(tile, 0.0) for tile in fov) / size
        terms.append((quality.get(fov_center, 0.0), fov_mean, covered, size,
                      under_provisioned or covered < size))
    return _qoe_reports(*(np.array([column]) for column in zip(*terms)))[0]


def score_sessions(pfov_tiles, uploaded, actual_tiles, budget_mbit: float) -> list[QoEReport]:
    """QoE of each session from (sessions, GoPs) arrays of pFoV and actual-FoV
    center tiles (``tiles_of``) and of uploaded errors."""
    check_budget(budget_mbit)
    for tiles in map(np.asarray, (pfov_tiles, actual_tiles)):
        if tiles.dtype.kind not in "iu" or np.any((tiles < 0) | (tiles >= len(_TILES))):
            raise ValueError(f"tile indices must be integers in [0, {len(_TILES)}), got {tiles}")
    key = (pfov_tiles, zone_indices(uploaded), actual_tiles)
    return _qoe_reports(*(table[key] for table in _qoe_tables(budget_mbit)))


def simulate_session(
    trace: SessionTrace,
    policy: ObfuscationPolicy,
    budget_mbit: float,
    eps: float,
    rng: np.random.Generator,
) -> tuple[QoEReport, PolicyApplication]:
    """Stream one session under a policy: its QoE report, as ``score_sessions``
    gives it, and its upload arrays, as ``apply_policy`` gives them."""
    app = apply_policy(trace, policy, eps, rng)
    report, = score_sessions(tiles_of(app.predicted)[None], app.uploaded[None],
                             tiles_of(trace.actual)[None], budget_mbit)
    return report, app
