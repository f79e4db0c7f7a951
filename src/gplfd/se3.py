"""Axis-angle rotations on the closed pi-ball and weighted SE(3) distances.

Rotations are stored as rotation vectors r = angle * axis with norm(r) <= pi.
The antipodal ambiguity on the norm(r) = pi boundary is resolved by a fixed
hemisphere rule so equality of rotations is equality of vectors.

Every operation is written once, over the last axis of an array of rows; a
single rotation or pose is one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Angles below this are treated as the identity rotation.
ANGLE_EPS = 1e-12
# Tolerance on |angle - pi| inside which the hemisphere rule applies.
HEMISPHERE_TOL = 1e-9
# Axis components this close to zero count as zero in the hemisphere rule.
_COMPONENT_EPS = 1e-12


def _refuse_rows(bad, message: str) -> None:
    """Raise InvalidInputError, with ``row`` set, for the first row in ``bad``."""
    bad = np.ravel(bad)
    if bad.any():
        exc = InvalidInputError(message)
        exc.row = int(np.argmax(bad))
        raise exc


def _finite_rows(values, width: int, what: str, one: bool = False) -> np.ndarray:
    """Float rows of length ``width`` (exactly one row if ``one``), all finite."""
    values = np.asarray(values, dtype=float)
    message = f"{what} must be a finite {width}-vector"
    if values.shape[-1:] != (width,) or (one and values.ndim != 1):
        raise InvalidInputError(message)
    if not np.isfinite(values).all():
        _refuse_rows(~np.all(np.isfinite(values), axis=-1), message)
    return values


def canonical_rotvecs(r) -> np.ndarray:
    """Canonical representatives of rotation vectors, row by row.

    Rows inside the pi-ball come back bit for bit, so canonicalizing twice
    changes nothing. Longer rows wrap modulo 2*pi and flip their axis past
    pi; rows on the boundary obey the hemisphere rule.
    """
    r = _finite_rows(r, 3, "rotation vector")
    angle = np.linalg.norm(r, axis=-1, keepdims=True)
    if np.all((angle >= ANGLE_EPS) & (angle < math.pi - HEMISPHERE_TOL)):
        # Inside the ball, off the identity and the boundary: canonical.
        return r.copy()
    wrapped = np.fmod(angle, 2.0 * math.pi)
    past_pi = wrapped > math.pi
    wrapped = np.where(past_pi, 2.0 * math.pi - wrapped, wrapped)
    axis = r / np.maximum(angle, ANGLE_EPS)
    out = np.where(angle > math.pi,
                   np.where(past_pi, -wrapped, wrapped) * axis, r)
    out = np.where(wrapped < ANGLE_EPS, 0.0, out)
    # On the boundary r and -r encode the same rotation; keep the one whose
    # axis has u_z >= 0, breaking ties by u_y, then u_x.
    x, y, z = out[..., 0], out[..., 1], out[..., 2]
    tiny = _COMPONENT_EPS
    lower = (z < -tiny) | ((z <= tiny) & ((y < -tiny)
                                          | ((y <= tiny) & (x < -tiny))))
    flip = (np.abs(wrapped[..., 0] - math.pi) <= HEMISPHERE_TOL) & lower
    return np.where(flip[..., None], -out, out)


def quaternions_of(r) -> np.ndarray:
    """Unit quaternions (w, x, y, z), scalar first, of canonical rotation vectors."""
    r = np.asarray(r, dtype=float)
    # A canonical row below ANGLE_EPS is exactly zero: it maps to (1, 0, 0, 0).
    half = 0.5 * np.linalg.norm(r, axis=-1, keepdims=True)
    return np.concatenate([np.cos(half), np.sin(half) * (
        r / np.maximum(2.0 * half, ANGLE_EPS))], axis=-1)


def rotvecs_from_quaternions(q) -> np.ndarray:
    """Canonical rotation vectors of unit quaternions (w, x, y, z), row by row.

    q and -q map to the same rotation. Each norm must be within 1e-6 of one;
    the quaternions are renormalized before conversion.
    """
    q = _finite_rows(q, 4, "quaternion")
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    bad = np.abs(norm - 1.0) > 1e-6
    if bad.any():
        _refuse_rows(bad, "quaternion is not unit length: norm "
                     f"{norm[bad][0]:.8f} deviates from 1 by more than 1e-6")
    q = q / norm
    q = np.where(q[..., :1] < 0.0, -q, q)
    vec_norm = np.linalg.norm(q[..., 1:], axis=-1, keepdims=True)
    # atan2 keeps full accuracy near the identity where arccos(w) loses digits.
    theta = 2.0 * np.arctan2(vec_norm, q[..., :1])
    # Rows below ANGLE_EPS come out as exact zeros from canonical_rotvecs.
    return canonical_rotvecs(q[..., 1:] / np.where(vec_norm > 0.0, vec_norm, 1.0)
                             * theta)


def arc_distances(ra, rb, quaternions: bool = False) -> np.ndarray:
    """Geodesic angles in [0, pi] between rows of canonical rotation vectors,
    or of their ``quaternions_of`` rows if ``quaternions``."""
    qa, qb = (ra, rb) if quaternions else (quaternions_of(ra), quaternions_of(rb))
    # Relative-quaternion components; atan2 keeps full precision at both
    # ends of [0, pi] where arccos loses half the significant digits, and
    # coincident inputs cancel to an exact zero.
    w = np.einsum("...i,...i->...", qa, qb)
    v = (qa[..., :1] * qb[..., 1:] - qb[..., :1] * qa[..., 1:]
         - np.cross(qa[..., 1:], qb[..., 1:]))
    return 2.0 * np.arctan2(np.linalg.norm(v, axis=-1), np.abs(w))


def slerp(ra, rb, frac) -> np.ndarray:
    """Geodesic interpolation between rows of canonical rotation vectors.

    Fractions <= 0 and >= 1 return the rows of ``ra`` and ``rb`` bit for bit.
    Nearly parallel quaternions blend linearly: the sine ratio loses its
    digits there.
    """
    ra, rb = np.asarray(ra, dtype=float), np.asarray(rb, dtype=float)
    frac = np.asarray(frac, dtype=float)[..., None]
    qa, qb = quaternions_of(ra), quaternions_of(rb)
    dot = np.einsum("...i,...i->...", qa, qb)[..., None]
    qb = np.where(dot < 0.0, -qb, qb)
    dot = np.abs(dot)
    near = dot > 1.0 - 1e-12
    omega = np.arccos(np.minimum(dot, 1.0))
    s = np.where(near, 1.0, np.sin(omega))
    q = (np.where(near, 1.0 - frac, np.sin((1.0 - frac) * omega) / s) * qa
         + np.where(near, frac, np.sin(frac * omega) / s) * qb)
    out = rotvecs_from_quaternions(q / np.linalg.norm(q, axis=-1, keepdims=True))
    return np.where(frac <= 0.0, ra, np.where(frac >= 1.0, rb, out))


def pose_rows(samples) -> np.ndarray:
    """Checked (n, 6) copy of pose rows: position, canonical rotation vector.

    Accepts any array-like of that shape, a sequence of Poses included.
    """
    try:
        rows = np.array(samples, dtype=float)
    except (TypeError, ValueError):
        rows = None
    if rows is None or rows.ndim != 2 or rows.shape[1] != 6:
        raise InvalidInputError("pose samples must form an (n, 6) array")
    _finite_rows(rows[:, :3], 3, "position")
    rows[:, 3:] = canonical_rotvecs(rows[:, 3:])
    return rows


@dataclass(frozen=True)
class DistanceWeights:
    """Convex weights for the rotation and translation distance terms."""

    rotation: float = 0.5
    translation: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.rotation) and math.isfinite(self.translation)):
            raise InvalidInputError("distance weights must be finite")
        if self.rotation < 0.0 or self.translation < 0.0:
            raise InvalidInputError("distance weights must be nonnegative")
        if abs(self.rotation + self.translation - 1.0) > 1e-9:
            raise InvalidInputError("distance weights must sum to 1")


def pose_distances(a, b, weights: DistanceWeights = DistanceWeights()) -> np.ndarray:
    """Weighted SE(3) distances sqrt(w_rot * arc^2 + w_trans * |dp|^2) of pose
    rows, or of rows of a position and ``quaternions_of`` the rotation."""
    dp = a[..., :3] - b[..., :3]
    trans_sq = np.einsum("...i,...i->...", dp, dp)
    arc = arc_distances(a[..., 3:], b[..., 3:], a.shape[-1] == 7)
    return np.sqrt(weights.rotation * arc * arc + weights.translation * trans_sq)


# ---------------------------------------------------------------------------
# Single poses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pose:
    """Position paired with a canonical rotation vector, both read-only (3,)."""

    position: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        pos = _finite_rows(self.position, 3, "position", one=True).copy()
        rot = canonical_rotvecs(
            _finite_rows(self.rotation, 3, "rotation vector", one=True))
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "rotation", rot)
        self.position.setflags(write=False)
        self.rotation.setflags(write=False)

    def as_vector(self) -> np.ndarray:
        """Concatenated (position, rotation vector), length 6."""
        return np.concatenate([self.position, self.rotation])

    def __array__(self, dtype=None, copy=None):
        # Lets np.asarray turn a sequence of Poses into (n, 6) pose rows.
        return np.asarray(self.as_vector(), dtype=dtype)

    @classmethod
    def from_vector(cls, vec) -> "Pose":
        vec = _finite_rows(vec, 6, "pose vector", one=True)
        return cls(vec[:3], vec[3:])
