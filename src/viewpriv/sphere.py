"""Geometry primitives on the unit viewing sphere.

All angles are radians. Distances are great-circle arc lengths in [0, pi].
Bearings are measured in a fixed tangent frame at each point: the frame's
first axis points toward the +z pole (projected into the tangent plane) and
the second completes a right-handed basis. When a point lies within
``UNIT_TOLERANCE`` of the +z/-z axis the frame falls back to the +x axis, so
bearings remain well defined at the poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_TOLERANCE = 1e-9
TWO_PI = 2.0 * math.pi

_FRAME_AXIS = np.array([0.0, 0.0, 1.0])
_FRAME_AXIS_FALLBACK = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class SpherePoint:
    """A point on the unit sphere, renormalized at construction."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        v = np.array([self.x, self.y, self.z], dtype=float)
        norm = float(np.linalg.norm(v))   # an inf or NaN coordinate gives a non-finite norm
        if not math.isfinite(norm):
            raise ValueError(f"sphere point {v} is not finite or its squared norm overflows")
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector to a sphere point")
        v /= norm
        object.__setattr__(self, "x", float(v[0]))
        object.__setattr__(self, "y", float(v[1]))
        object.__setattr__(self, "z", float(v[2]))

    @classmethod
    def from_array(cls, v) -> "SpherePoint":
        v = np.asarray(v, dtype=float)
        return cls(float(v[0]), float(v[1]), float(v[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def check_angle(value: float, lo: float, hi: float, name: str) -> float:
    """Validate that an angle lies in [lo, hi]; returns it as a float."""
    value = float(value)
    if not math.isfinite(value) or value < lo or value > hi:
        raise ValueError(f"{name} must lie in [{lo:.6g}, {hi:.6g}], got {value!r}")
    return value


def is_integer(value) -> bool:
    """Whether ``value`` is an ``int`` or a numpy integer, and not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def dot(a, b) -> np.ndarray:
    """Dot products over the last axis, summed left to right as ``np.sum(a * b, axis=-1)``."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def norm(v) -> np.ndarray:
    """Euclidean norms over the last axis; bit-equal to ``np.linalg.norm(v, axis=-1)``."""
    return np.sqrt(dot(v, v))


def cross(a, b) -> np.ndarray:
    """Cross products over the last axis; bit-equal to ``np.cross(a, b)``."""
    a0, a1, a2, b0, b1, b2 = a[..., 0], a[..., 1], a[..., 2], b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def unit_rows(vectors) -> np.ndarray:
    """Normalize an (n, 3) array of vectors to unit rows."""
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {v.shape}")
    norms = norm(v)   # an inf or NaN coordinate gives a non-finite norm
    if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
        raise ValueError("rows must be finite and nonzero, with squared norms that do not overflow")
    return v / norms[:, None]


def spherical_distance(a: SpherePoint, b: SpherePoint) -> float:
    """Great-circle distance between two points, in [0, pi].

    Uses atan2 of the cross/dot pair, which stays accurate near 0 and pi
    where the arccos form loses precision.
    """
    va, vb = a.as_array(), b.as_array()
    return math.atan2(float(np.linalg.norm(np.cross(va, vb))), float(np.dot(va, vb)))


def tangent_frame(origin) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent bases (t1, t2), two (n, 3) arrays, at the (n, 3)
    unit rows ``origin``, one frame per row. t1 is the unit projection of the
    +z axis onto the tangent plane (+x axis when the row is within
    UNIT_TOLERANCE of +-z), and t2 = origin x t1.
    """
    o = np.asarray(origin, dtype=float)
    near_pole = np.abs(o[:, 2]) > 1.0 - UNIT_TOLERANCE
    axis = np.where(near_pole[:, None], _FRAME_AXIS_FALLBACK, _FRAME_AXIS)
    t1 = axis - dot(axis, o)[:, None] * o
    t1 /= norm(t1)[:, None]
    return t1, cross(o, t1)


def step_walk(walk: np.ndarray, cos_a, sin_a, cos_b, sin_b) -> None:
    """Fill ``walk[1:]`` in place from ``walk[0]``: walk[t] is walk[t - 1]
    moved by arc a[t - 1] along tangent-frame bearing b[t - 1].

    ``walk`` is component-major, (steps + 1, 3, n), so each step acts on
    all n walks at once; the step angles' and bearings' cosines and sines
    are time-major, (steps, n). Each point is bit-equal to
    ``cos a * o + sin a * (cos b * t1 + sin b * t2)`` over its ``norm``,
    with (t1, t2) = ``tangent_frame(o)`` and every sum in that order. The
    +z frame is written out here; a step with a row near the poles takes
    the general ``tangent_frame``.
    """
    n = walk.shape[2]
    o, t1 = np.empty((2, 5, n))   # rows 3 and 4 repeat rows 0 and 1: a cross product is 3 calls
    t2, x, y = np.empty((3, 3, n))
    mag = np.empty(n)
    o3, o14, o25, t3, t14, t25 = o[:3], o[1:4], o[2:5], t1[:3], t1[1:4], t1[2:5]
    o3[:], o[3:] = walk[0], walk[0, :2]
    for point, ca, sa, cb, sb in zip(walk[1:], cos_a, sin_a, cos_b, sin_b):
        if np.maximum.reduce(np.abs(o[2], mag)) > 1.0 - UNIT_TOLERANCE:
            f1, f2 = tangent_frame(o3.T)
            t3[:], t2[:] = f1.T, f2.T
        else:   # t1 = z - (z . o) o, with z . o = o_z, over its norm; t2 = o x t1
            np.multiply(o3, o[2], t3)
            np.subtract(_FRAME_AXIS[:, None], t3, t3)
            np.multiply(t3, t3, x)
            np.divide(t3, np.sqrt(np.add.reduce(x, 0, None, mag), mag), t3)
            t1[3:] = t1[:2]
            np.subtract(np.multiply(o14, t25, x), np.multiply(o25, t14, y), t2)
        np.add(np.multiply(cb, t3, x), np.multiply(sb, t2, y), x)
        np.add(np.multiply(ca, o3, y), np.multiply(sa, x, x), y)
        np.multiply(y, y, x)
        np.divide(y, np.sqrt(np.add.reduce(x, 0, None, mag), mag), o3)   # sums rows 0, 1, 2 in order
        o[3:] = o[:2]
        point[:] = o3


def points_at_distance(origin: SpherePoint, distance: float, bearings: np.ndarray) -> np.ndarray:
    """Unit rows at arc distance ``distance`` from ``origin``, one per tangent-frame bearing.

    Returns an (n, 3) view of component-major (3, n) storage. Each row is
    bit-equal to ``unit_rows`` of ``c * o + s * (cos b * t1 + sin b * t2)``.
    """
    distance = check_angle(distance, 0.0, math.pi, "distance")
    b = np.asarray(bearings, dtype=float)
    cos_b, sin_b = np.cos(b), np.sin(b)
    o = origin.as_array()
    (t1,), (t2,) = tangent_frame(o[None])
    c, s = math.cos(distance), math.sin(distance)
    comps = np.empty((3, len(b)))
    for k, row in enumerate(comps):
        np.multiply(cos_b, t1[k], row)
        row += sin_b * t2[k]
        row *= s
        row += c * o[k]
    norms = norm(comps.T)
    if not np.all(np.isfinite(comps)) or np.any(norms == 0.0):
        raise ValueError("rows must be finite and nonzero")
    comps /= norms
    return comps.T


def points_around_pole(distance: float, cos_b, sin_b) -> np.ndarray:
    """``points_at_distance`` about +z, on precomputed cosines and sines of the bearings.

    Returns an (n, 3) view of component-major (3, n) storage. The +z frame is
    (+x, +y), so each row is (s cos b, s sin b, c) over its ``norm``: the
    generic rows by value (a zero may take the other sign), as the generic
    kernel adds only products with 0 or 1.
    """
    distance = check_angle(distance, 0.0, math.pi, "distance")
    c, s = math.cos(distance), math.sin(distance)
    comps = np.empty((3, len(cos_b)))
    x, y, z = comps
    np.multiply(cos_b, s, x)
    np.multiply(sin_b, s, y)
    norms = np.multiply(x, x)
    norms += np.multiply(y, y, z)   # row z holds y * y until it is filled with c
    norms += c * c
    np.sqrt(norms, norms)   # a non-finite row has a non-finite norm
    if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
        raise ValueError("rows must be finite and nonzero")
    z.fill(c)
    comps /= norms
    return comps.T


def random_point(rng: np.random.Generator) -> SpherePoint:
    """Area-uniform random point on the sphere."""
    while True:
        v = rng.normal(size=3)
        if np.linalg.norm(v) > 1e-12:
            return SpherePoint.from_array(v)
