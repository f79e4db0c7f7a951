import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gplfd import InvalidInputError, generate_synthetic_door_set
from gplfd.config import RunConfig
from gplfd.synthetic import MAX_DOOR_SAMPLES, DoorSet


def test_demo_count_and_shape():
    demos = generate_synthetic_door_set(seed=0, radii=(0.7, 0.9), repeats=3,
                                        n_samples=25)
    assert len(demos) == 6
    assert all(len(d) == 25 for d in demos)


def test_pull_arc_geometry():
    """Noise-free pulls lie on the circle of their door radius."""
    demos = generate_synthetic_door_set(seed=1, radii=(0.8,), repeats=1,
                                        noise=0.0, n_samples=40)
    pos = demos[0].samples[:, :3]
    # The handle starts at the origin and sweeps a circle centered at
    # (0, 0, R): x^2 + (z - R)^2 = R^2 throughout.
    assert_allclose(pos[0], [0.0, 0.0, 0.0], atol=1e-12)
    assert_allclose(pos[:, 0] ** 2 + (pos[:, 2] - 0.8) ** 2, 0.64, atol=1e-12)
    assert_allclose(pos[:, 1], 0.0, atol=1e-12)


def test_rotation_tracks_pull_angle():
    demos = generate_synthetic_door_set(seed=1, radii=(0.8,), repeats=1,
                                        noise=0.0, n_samples=30,
                                        max_angle=math.pi / 3)
    rot = demos[0].samples[:, 3:]
    assert_allclose(rot[:, [0, 2]], 0.0, atol=1e-12)
    assert_allclose(rot[-1, 1], math.pi / 3, atol=1e-12)
    assert np.all(np.diff(rot[:, 1]) > 0.0)


def test_repeats_share_the_angle_grid():
    """With zero noise, repeats differ only in their timestamps."""
    demos = generate_synthetic_door_set(seed=3, radii=(0.7,), repeats=2,
                                        noise=0.0, n_samples=20)
    a, b = demos
    assert_allclose(a.samples[:, :3], b.samples[:, :3], atol=1e-12)
    assert not np.allclose(a.stamps, b.stamps)


def test_stamps_warped_within_bounds():
    demos = generate_synthetic_door_set(seed=0)
    for demo in demos:
        duration = demo.stamps[-1] - demo.stamps[0]
        assert 4.0 <= duration <= 6.0
        assert np.all(np.diff(demo.stamps) > 0.0)


def test_seed_reproducibility():
    a = generate_synthetic_door_set(seed=42)
    b = generate_synthetic_door_set(seed=42)
    for da, db in zip(a, b):
        assert np.array_equal(da.stamps, db.stamps)
        assert np.array_equal(da.samples[:, :3], db.samples[:, :3])


def test_parameter_validation():
    with pytest.raises(InvalidInputError):
        generate_synthetic_door_set(radii=(0.0,))
    with pytest.raises(InvalidInputError):
        generate_synthetic_door_set(repeats=0)
    with pytest.raises(InvalidInputError):
        generate_synthetic_door_set(noise=-0.1)
    with pytest.raises(InvalidInputError):
        generate_synthetic_door_set(n_samples=1)
    with pytest.raises(InvalidInputError):
        generate_synthetic_door_set(max_angle=4.0)
    with pytest.raises(InvalidInputError):
        generate_synthetic_door_set(noise=math.nan)
    with pytest.raises(InvalidInputError):
        generate_synthetic_door_set(radii=(math.inf,))
    # Refused before a single pose is built.
    with pytest.raises(InvalidInputError, match="at most"):
        generate_synthetic_door_set(repeats=MAX_DOOR_SAMPLES)


def test_door_set_is_the_config_data_section():
    door = DoorSet(radii=[1, 0.5], repeats=1)
    assert door.radii == (1.0, 0.5) and type(door.radii[0]) is float
    assert RunConfig().data == DoorSet()
    a = generate_synthetic_door_set(seed=2, radii=[1, 0.5], repeats=1)
    b = generate_synthetic_door_set(seed=2, radii=(1.0, 0.5), repeats=1)
    for da, db in zip(a, b, strict=True):
        assert np.array_equal(da.samples, db.samples)
