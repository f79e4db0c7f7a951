"""Axis-angle rotations on the closed pi-ball and weighted SE(3) distances.

Rotations are stored as rotation vectors r = angle * axis with norm(r) <= pi.
The antipodal ambiguity on the norm(r) = pi boundary is resolved by a fixed
hemisphere rule so equality of rotations is equality of vectors.
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

_IDENTITY_AXIS = np.array([1.0, 0.0, 0.0])


def _hemisphere_representative(vec):
    # On the boundary r and -r encode the same rotation; keep the one whose
    # axis has u_z >= 0, breaking ties by u_y, then u_x.
    x, y, z = vec
    if z < -_COMPONENT_EPS:
        return -vec
    if z <= _COMPONENT_EPS:
        if y < -_COMPONENT_EPS:
            return -vec
        if y <= _COMPONENT_EPS and x < -_COMPONENT_EPS:
            return -vec
    return vec


def _canonical_vector(vec):
    """Map an arbitrary 3-vector, read as angle*axis, onto the closed pi-ball."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (3,) or not np.all(np.isfinite(vec)):
        raise InvalidInputError("rotation vector must be a finite 3-vector")
    angle = float(np.linalg.norm(vec))
    if angle < ANGLE_EPS:
        return np.zeros(3)
    axis = vec / angle
    angle = math.fmod(angle, 2.0 * math.pi)
    if angle > math.pi:
        angle = 2.0 * math.pi - angle
        axis = -axis
    if angle < ANGLE_EPS:
        return np.zeros(3)
    out = angle * axis
    if abs(angle - math.pi) <= HEMISPHERE_TOL:
        out = _hemisphere_representative(out)
    return out


@dataclass(frozen=True)
class RotationVector:
    """Canonical axis-angle rotation, immutable after construction.

    The constructor canonicalizes its input, so every instance satisfies
    norm <= pi and the boundary hemisphere rule. Construction is therefore
    idempotent: RotationVector(r.vec) == r.
    """

    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vec", _canonical_vector(self.vec))
        self.vec.setflags(write=False)

    @property
    def angle(self) -> float:
        return float(np.linalg.norm(self.vec))

    @property
    def axis(self) -> np.ndarray:
        """Unit axis; the identity rotation reports (1, 0, 0) by convention."""
        theta = self.angle
        if theta < ANGLE_EPS:
            return _IDENTITY_AXIS.copy()
        return self.vec / theta

    def __eq__(self, other):
        if not isinstance(other, RotationVector):
            return NotImplemented
        return bool(np.array_equal(self.vec, other.vec))

    def __hash__(self):
        return hash(self.vec.tobytes())


IDENTITY_ROTATION = RotationVector(np.zeros(3))


def canonicalize_rotation(axis, angle) -> RotationVector:
    """Build the canonical rotation vector for a rotation about ``axis``.

    The axis need not be unit length but must be nonzero whenever the angle
    is not a multiple of 2*pi.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,) or not np.all(np.isfinite(axis)):
        raise InvalidInputError("axis must be a finite 3-vector")
    if not math.isfinite(angle):
        raise InvalidInputError("angle must be finite")
    norm = float(np.linalg.norm(axis))
    angle = math.fmod(float(angle), 2.0 * math.pi)
    if abs(angle) < ANGLE_EPS:
        return RotationVector(np.zeros(3))
    if norm < ANGLE_EPS:
        raise InvalidInputError("zero-norm axis with a nonzero rotation angle")
    return RotationVector(axis / norm * angle)


def quaternion_of(rot: RotationVector) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation vector, scalar first."""
    theta = rot.angle
    if theta < ANGLE_EPS:
        return np.array([1.0, 0.0, 0.0, 0.0])
    half = 0.5 * theta
    q = np.empty(4)
    q[0] = math.cos(half)
    q[1:] = math.sin(half) * (rot.vec / theta)
    return q


def rotvec_from_quaternion(q) -> RotationVector:
    """Canonical rotation vector of a unit quaternion (w, x, y, z).

    q and -q map to the same rotation. The norm must be within 1e-6 of one;
    the quaternion is renormalized before conversion.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (4,) or not np.all(np.isfinite(q)):
        raise InvalidInputError("quaternion must be a finite 4-vector")
    norm = float(np.linalg.norm(q))
    if abs(norm - 1.0) > 1e-6:
        raise InvalidInputError(f"quaternion is not unit length: norm "
                                f"{norm:.8f} deviates from 1 by more than 1e-6")
    q = q / norm
    if q[0] < 0.0:
        q = -q
    vec_norm = float(np.linalg.norm(q[1:]))
    # atan2 keeps full accuracy near the identity where arccos(w) loses digits.
    theta = 2.0 * math.atan2(vec_norm, q[0])
    if theta < ANGLE_EPS or vec_norm == 0.0:
        return RotationVector(np.zeros(3))
    return RotationVector(q[1:] / vec_norm * theta)


def arc_distance(a: RotationVector, b: RotationVector) -> float:
    """Geodesic angle in [0, pi] between two canonical rotations."""
    ha, hb = 0.5 * a.angle, 0.5 * b.angle
    ca, sa = math.cos(ha), math.sin(ha)
    cb, sb = math.cos(hb), math.sin(hb)
    ua, ub = a.axis, b.axis
    # Relative-quaternion components; atan2 keeps full precision at both
    # ends of [0, pi] where arccos loses half the significant digits, and
    # coincident inputs cancel to an exact zero.
    w = ca * cb + sa * sb * float(np.dot(ua, ub))
    v = ca * sb * ub - cb * sa * ua - sa * sb * np.cross(ua, ub)
    return 2.0 * math.atan2(float(np.linalg.norm(v)), abs(w))


@dataclass(frozen=True)
class Pose:
    """Position paired with a canonical rotation."""

    position: np.ndarray
    rotation: RotationVector

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise InvalidInputError("position must be a finite 3-vector")
        object.__setattr__(self, "position", pos)
        self.position.setflags(write=False)
        if not isinstance(self.rotation, RotationVector):
            object.__setattr__(self, "rotation", RotationVector(self.rotation))

    def as_vector(self) -> np.ndarray:
        """Concatenated (position, rotation vector), length 6."""
        return np.concatenate([self.position, self.rotation.vec])

    @classmethod
    def from_vector(cls, vec) -> "Pose":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (6,):
            raise InvalidInputError("pose vector must have length 6")
        return cls(vec[:3], RotationVector(vec[3:]))


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


def pose_distance(a: Pose, b: Pose, weights: DistanceWeights = DistanceWeights()) -> float:
    """Weighted SE(3) distance sqrt(w_rot * arc^2 + w_trans * |dp|^2)."""
    arc = arc_distance(a.rotation, b.rotation)
    dp = a.position - b.position
    return math.sqrt(weights.rotation * arc * arc
                     + weights.translation * float(np.dot(dp, dp)))
