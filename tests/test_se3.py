import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation, Slerp

from gplfd import DistanceWeights, InvalidInputError, Pose
from gplfd.se3 import (HEMISPHERE_TOL, arc_distances, canonical_rotvecs,
                       pose_distances, quaternions_of, rotvecs_from_quaternions,
                       slerp)


def random_rotvec(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return canonical_rotvecs(axis * rng.uniform(0.0, math.pi))


class TestRotationVector:
    def test_identity(self):
        r = canonical_rotvecs((0.0, 0.0, 0.0))
        assert np.linalg.norm(r) == 0.0

    def test_angle_and_axis(self):
        r = canonical_rotvecs((0.0, 0.0, math.pi / 2))
        assert_allclose(np.linalg.norm(r), math.pi / 2)
        assert_allclose(r / np.linalg.norm(r), [0.0, 0.0, 1.0])

    def test_wraps_into_pi_ball(self):
        # 3pi/2 about z is the same rotation as pi/2 about -z.
        r = canonical_rotvecs((0.0, 0.0, 1.5 * math.pi))
        assert_allclose(np.linalg.norm(r), math.pi / 2, atol=1e-12)
        assert_allclose(r / np.linalg.norm(r), [0.0, 0.0, -1.0], atol=1e-12)

    def test_hemisphere_rule_at_pi(self):
        r = canonical_rotvecs(np.array([0.0, 0.0, -1.0]) * math.pi)
        assert_allclose(r, [0.0, 0.0, math.pi], atol=1e-12)

    def test_canonical_matches_scipy(self, rng):
        """Canonical vectors represent the same rotation scipy sees."""
        for _ in range(50):
            raw = rng.normal(size=3) * rng.uniform(0.0, 3.0)
            ours = Rotation.from_rotvec(canonical_rotvecs(raw))
            theirs = Rotation.from_rotvec(raw)
            assert_allclose((ours * theirs.inv()).magnitude(), 0.0, atol=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            canonical_rotvecs((np.nan, 0.0, 0.0))


class TestQuaternions:
    def test_identity_round_trip(self):
        q = quaternions_of(np.zeros(3))
        assert_allclose(q, [1.0, 0.0, 0.0, 0.0])

    def test_pi_about_z(self):
        r = rotvecs_from_quaternions([0.0, 0.0, 0.0, 1.0])
        assert_allclose(r, [0.0, 0.0, math.pi], atol=1e-12)

    def test_quarter_turn_about_x(self):
        q = [math.cos(math.pi / 8), math.sin(math.pi / 8), 0.0, 0.0]
        assert_allclose(rotvecs_from_quaternions(q), [math.pi / 4, 0, 0],
                        atol=1e-12)

    def test_matches_scipy(self, rng):
        for _ in range(50):
            r = random_rotvec(rng)
            q = quaternions_of(r)  # w first
            scipy_q = Rotation.from_rotvec(r).as_quat()  # x, y, z, w
            if scipy_q[3] * q[0] < 0.0:
                scipy_q = -scipy_q
            assert_allclose(q, np.r_[scipy_q[3], scipy_q[:3]], atol=1e-10)

    def test_round_trip(self, rng):
        for _ in range(50):
            r = random_rotvec(rng)
            back = rotvecs_from_quaternions(quaternions_of(r))
            assert_allclose(back, r, atol=1e-9)


class TestArcDistance:
    def test_coincident(self):
        r = canonical_rotvecs((0.3, -0.1, 0.2))
        assert arc_distances(r, r) == 0.0

    def test_from_identity_is_angle(self, rng):
        for _ in range(20):
            r = random_rotvec(rng)
            assert_allclose(arc_distances(np.zeros(3), r),
                            np.linalg.norm(r), atol=1e-12)

    def test_matches_scipy_geodesic(self, rng):
        for _ in range(50):
            a, b = random_rotvec(rng), random_rotvec(rng)
            rel = Rotation.from_rotvec(a).inv() * Rotation.from_rotvec(b)
            assert_allclose(arc_distances(a, b), rel.magnitude(), atol=1e-9)

    def test_symmetry(self, rng):
        a, b = random_rotvec(rng), random_rotvec(rng)
        assert arc_distances(a, b) == arc_distances(b, a)


class TestPose:
    def test_vector_round_trip(self):
        pose = Pose(np.array([1.0, 2.0, 3.0]), (0.1, 0.0, 0.2))
        again = Pose.from_vector(pose.as_vector())
        assert_allclose(again.as_vector(), pose.as_vector())

    def test_position_validated(self):
        with pytest.raises(InvalidInputError):
            Pose(np.array([1.0, 2.0]), (0, 0, 0))

    def test_array_protocol(self):
        pose = Pose(np.array([1.0, 2.0, 3.0]), (0.1, 0.0, 0.2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(np.array(pose), pose.as_vector())
            assert np.asarray(pose, dtype=np.float32).dtype == np.float32
        assert np.array_equal(np.asarray([pose, pose]),
                              np.stack([pose.as_vector()] * 2))

    def test_caller_arrays_stay_writable(self):
        position, rotation = np.zeros(3), np.full(3, 0.1)
        pose = Pose(position, rotation)
        position[0] = rotation[0] = 1.0
        assert np.array_equal(pose.as_vector(), [0, 0, 0, 0.1, 0.1, 0.1])

    def test_rotation_coerced(self):
        pose = Pose(np.zeros(3), (0.0, 0.0, 1.5 * math.pi))
        assert isinstance(pose.rotation, np.ndarray)
        assert not pose.rotation.flags.writeable
        assert np.array_equal(pose.rotation,
                              canonical_rotvecs((0.0, 0.0, 1.5 * math.pi)))


class TestPoseDistance:
    def test_coincident(self):
        p = Pose(np.zeros(3), (0, 0, 0.5)).as_vector()
        assert pose_distances(p, p) == 0.0

    def test_translation_only_limb(self):
        a = np.zeros(6)
        b = np.array([3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
        w = DistanceWeights(rotation=0.0, translation=1.0)
        assert_allclose(pose_distances(a, b, w), 5.0)

    def test_default_weights_mix(self):
        a = np.zeros(6)
        b = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        assert_allclose(pose_distances(a, b), math.sqrt(0.5 + 0.5))

    def test_weights_must_be_convex(self):
        with pytest.raises(InvalidInputError):
            DistanceWeights(rotation=0.7, translation=0.7)
        with pytest.raises(InvalidInputError):
            DistanceWeights(rotation=-0.1, translation=1.1)
        with pytest.raises(InvalidInputError, match="finite"):
            DistanceWeights(rotation=math.nan, translation=0.5)


# ---------------------------------------------------------------------------
# Row-wise functions: one row and many rows give the same bits
# ---------------------------------------------------------------------------

def hard_rotvecs(rng):
    """Random rows plus the cases the scalar code branches on."""
    axes = rng.normal(size=(40, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    rows = [axes[:20] * rng.uniform(0.0, math.pi, (20, 1)),
            axes[20:30] * rng.uniform(math.pi, 7.0, (10, 1)),
            # On and next to the pi boundary, both hemispheres.
            axes[30:34] * math.pi, -axes[30:34] * math.pi,
            axes[34:36] * (math.pi - 1e-10), axes[36:38] * (math.pi + 1e-10),
            np.array([[0.0, 0.0, -math.pi], [0.0, -math.pi, 0.0],
                      [-math.pi, 0.0, 0.0], [0.0, 0.0, 2.0 * math.pi]]),
            # Near the identity, above and below ANGLE_EPS.
            axes[38:40] * 1e-8, axes[38:40] * 1e-11, axes[38:40] * 1e-13]
    return np.concatenate(rows)


def assert_same_rotation(ours, theirs, atol=1e-12):
    rel = Rotation.from_rotvec(np.array(ours)).inv() * theirs
    assert np.all(rel.magnitude() <= atol)


class TestRowWise:
    def test_canonical_matches_scipy_and_scalar(self, rng):
        raw = hard_rotvecs(rng)
        canon = canonical_rotvecs(raw)
        # Inside the boundary band the hemisphere rule may swap r for -r,
        # which moves the rotation by twice the distance to pi.
        off_pi = np.abs(np.linalg.norm(raw, axis=1) - math.pi)
        slack = np.where(off_pi <= HEMISPHERE_TOL, 2.0 * off_pi, 0.0)
        assert_same_rotation(canon, Rotation.from_rotvec(raw), 1e-12 + slack)
        assert np.all(np.linalg.norm(canon, axis=1) <= math.pi + 1e-15)
        for row, got in zip(raw, canon):
            assert np.array_equal(canonical_rotvecs(row), got)
        assert np.array_equal(canonical_rotvecs(canon), canon)

    def test_hemisphere_rule_rows(self):
        raw = np.array([[0.0, 0.0, -math.pi], [0.0, -math.pi, 0.0],
                        [-math.pi, 0.0, 0.0],
                        [0.0, -math.pi, -1e-13 * math.pi]])
        assert_allclose(canonical_rotvecs(raw),
                        [[0, 0, math.pi], [0, math.pi, 0], [math.pi, 0, 0],
                         [0, math.pi, 1e-13 * math.pi]], atol=1e-15)

    def test_identity_below_angle_eps(self):
        canon = canonical_rotvecs([[1e-13, 0.0, 0.0], [0.0, 2e-8, 0.0]])
        assert np.array_equal(canon[0], np.zeros(3))
        assert canon[1, 1] == 2e-8

    def test_quaternions_match_scipy_and_scalar(self, rng):
        rows = canonical_rotvecs(hard_rotvecs(rng))
        q = quaternions_of(rows)
        theirs = Rotation.from_rotvec(rows).as_quat()[:, [3, 0, 1, 2]]
        theirs *= np.where(theirs[:, :1] * q[:, :1] < 0.0, -1.0, 1.0)
        assert_allclose(q, theirs, atol=1e-12)
        for row, got in zip(rows, q):
            assert np.array_equal(quaternions_of(canonical_rotvecs(row)), got)

    def test_quaternion_round_trip_and_scalar(self, rng):
        rows = canonical_rotvecs(hard_rotvecs(rng))
        q = quaternions_of(rows)
        back = rotvecs_from_quaternions(q)
        assert_same_rotation(back, Rotation.from_rotvec(rows))
        assert_allclose(back[:30], rows[:30], atol=1e-12)
        # q and -q are one rotation.
        assert np.array_equal(rotvecs_from_quaternions(-q), back)
        for quat, got in zip(q, back):
            assert np.array_equal(rotvecs_from_quaternions(quat), got)

    def test_bad_quaternion_row_named(self):
        q = np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0],
                      [np.nan, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0]])
        with pytest.raises(InvalidInputError, match="norm 2.0") as info:
            rotvecs_from_quaternions(q[[0, 1, 3]])
        assert info.value.row == 1
        with pytest.raises(InvalidInputError, match="finite") as info:
            rotvecs_from_quaternions(q[[0, 2]])
        assert info.value.row == 1

    def test_arc_distances_match_scipy_and_scalar(self, rng):
        a = canonical_rotvecs(hard_rotvecs(rng))
        b = canonical_rotvecs(hard_rotvecs(rng)[::-1])
        arcs = arc_distances(a, b)
        rel = Rotation.from_rotvec(a).inv() * Rotation.from_rotvec(b)
        assert_allclose(arcs, rel.magnitude(), atol=1e-12)
        for ra, rb, got in zip(a, b, arcs):
            assert arc_distances(canonical_rotvecs(ra),
                                 canonical_rotvecs(rb)) == got
        assert np.all(arc_distances(a, a) == 0.0)

    def test_slerp_matches_scipy(self, rng):
        a = canonical_rotvecs(hard_rotvecs(rng))
        b = canonical_rotvecs(rng.normal(size=a.shape))
        # Nearly parallel and equal pairs take the linear blend.
        b[:5] = canonical_rotvecs(a[:5] + 1e-7 * rng.normal(size=(5, 3)))
        b[5:7] = a[5:7]
        frac = rng.uniform(0.0, 1.0, len(a))
        ours = slerp(a, b, frac)
        for ra, rb, f, got in zip(a, b, frac, ours):
            want = Slerp([0.0, 1.0], Rotation.from_rotvec([ra, rb]))([f])
            assert_same_rotation(got[None, :], want)

    def test_slerp_endpoints_bit_for_bit(self, rng):
        a = canonical_rotvecs(hard_rotvecs(rng))
        b = a[::-1].copy()
        frac = np.tile([0.0, 1.0, -0.1, 1.2], len(a))[:len(a)]
        out = slerp(a, b, frac)
        low = frac <= 0.0
        assert np.array_equal(out[low], a[low])
        assert np.array_equal(out[~low], b[~low])

    def test_pose_distances_match_scalar(self, rng):
        a = np.hstack([rng.normal(size=(10, 3)),
                       canonical_rotvecs(rng.normal(size=(10, 3)))])
        b = np.hstack([rng.normal(size=(10, 3)),
                       canonical_rotvecs(rng.normal(size=(10, 3)))])
        w = DistanceWeights(rotation=0.3, translation=0.7)
        for ra, rb, got in zip(a, b, pose_distances(a, b, w)):
            assert pose_distances(Pose.from_vector(ra).as_vector(),
                                  Pose.from_vector(rb).as_vector(), w) == got
