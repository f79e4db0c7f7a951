import json
import math

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from numpy.testing import assert_allclose

from gplfd import (AlignmentWarning, FormatError, InvalidInputError,
                   ParseError, Pose, RunConfig, Trajectory, ViaPoint,
                   config_sha256, load_config, query, save_config, simulate)
from gplfd import gp, io
from gplfd.cli import main
from gplfd.config import apply_overrides, config_from_dict
from gplfd.policy import DIM_NAMES

DEFAULTS = RunConfig()


def wiggly_trajectory(rng, n=12):
    stamps = np.cumsum(rng.uniform(0.05, 0.4, n))
    poses = tuple(Pose(rng.normal(size=3),
                       rng.normal(size=3) * 0.6)
                  for _ in range(n))
    return Trajectory(stamps, poses)


class TestDemonstrationFiles:
    def test_round_trip(self, tmp_path, rng):
        traj = wiggly_trajectory(rng)
        path = tmp_path / "demo.csv"
        io.save_demonstration(path, traj)
        back = io.load_demonstration(path)
        assert np.array_equal(back.stamps, traj.stamps)
        assert np.array_equal(back.samples[:, :3], traj.samples[:, :3])
        assert_allclose(back.samples[:, 3:], traj.samples[:, 3:],
                        atol=1e-12)

    def test_xyzw_convention_accepted(self, tmp_path):
        half = math.sqrt(0.5)
        path = tmp_path / "demo.csv"
        path.write_text("# format: gplfd-demo v1\n"
                        "# quaternion: xyzw\n"
                        "t,x,y,z,qw,qx,qy,qz\n"
                        "0.0,0,0,0,0,0,0,1\n"
                        f"1.0,1,0,0,0,0,{half},{half}\n")
        traj = io.load_demonstration(path)
        assert_allclose(traj.poses[0].rotation, [0, 0, 0], atol=1e-12)
        assert_allclose(traj.poses[1].rotation, [0, 0, math.pi / 2],
                        atol=1e-9)

    def test_unknown_convention_rejected(self, tmp_path):
        path = tmp_path / "demo.csv"
        path.write_text("# format: gplfd-demo v1\n"
                        "# quaternion: zyxw\n"
                        "t,x,y,z,qw,qx,qy,qz\n"
                        "0.0,0,0,0,1,0,0,0\n")
        with pytest.raises(FormatError):
            io.load_demonstration(path)

    def test_mixed_conventions_across_files_rejected(self, tmp_path, rng):
        traj = wiggly_trajectory(rng, n=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        io.save_demonstration(a, traj)
        io.save_demonstration(b, traj)
        b.write_text(b.read_text().replace("quaternion: wxyz",
                                           "quaternion: xyzw"))
        with pytest.raises(FormatError, match="mixed quaternion"):
            io.load_demonstrations([a, b])

    def test_each_file_read_once(self, tmp_path, rng, monkeypatch):
        paths = []
        for k in range(6):
            paths.append(tmp_path / f"demo_{k}.csv")
            io.save_demonstration(paths[-1], wiggly_trajectory(rng, n=5))
        reads = []
        read_text = io._read_text
        monkeypatch.setattr(io, "_read_text",
                            lambda path: reads.append(path) or read_text(path))
        demos = io.load_demonstrations(paths)
        assert reads == paths and len(demos) == 6

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "demo.csv"
        path.write_text("# format: gplfd-demo v1\n"
                        "# quaternion: wxyz\n"
                        "t,x,y,z,qw,qx,qy,qz\n"
                        "0.0,0,0,0,1,0,0,0\n"
                        "oops,0,0,0,1,0,0,0\n")
        with pytest.raises(ParseError) as info:
            io.load_demonstration(path)
        assert info.value.line == 5

    def test_non_unit_quaternion_rejected(self, tmp_path):
        path = tmp_path / "demo.csv"
        path.write_text("# format: gplfd-demo v1\n"
                        "# quaternion: wxyz\n"
                        "t,x,y,z,qw,qx,qy,qz\n"
                        "0.0,0,0,0,2,0,0,0\n"
                        "1.0,0,0,0,1,0,0,0\n")
        with pytest.raises(ParseError, match="unit length") as info:
            io.load_demonstration(path)
        assert info.value.line == 4

    def test_metadata_after_header_rejected(self, tmp_path):
        path = tmp_path / "demo.csv"
        path.write_text("# format: gplfd-demo v1\n"
                        "t,x,y,z,qw,qx,qy,qz\n"
                        "# quaternion: wxyz\n"
                        "0.0,0,0,0,1,0,0,0\n")
        with pytest.raises(ParseError):
            io.load_demonstration(path)

    def test_wrong_format_tag_rejected(self, tmp_path):
        path = tmp_path / "demo.csv"
        path.write_text("# format: gplfd-table v1\nt,x\n0.0,1.0\n")
        with pytest.raises(FormatError):
            io.load_demonstration(path)
        path.write_text("# format: gplfd-demo v1\n# quaternion: wxyz\n")
        with pytest.raises(FormatError, match="no header row"):
            io.load_demonstration(path)


class TestViaPointFiles:
    def test_round_trip(self, tmp_path):
        vias = [ViaPoint(0.25, Pose(np.array([0.1, 0.2, 0.3]),
                                    (0, 0.4, 0)),
                         np.array([1e-4] * 3 + [1e-3] * 3)),
                ViaPoint(0.75, Pose(np.array([-0.1, 0.0, 0.5]),
                                    (0.2, 0, 0)),
                         np.array([1e-6] * 3 + [1e-5] * 3))]
        path = tmp_path / "via.csv"
        io.save_viapoints(path, vias)
        back = io.load_viapoints(path)
        assert len(back) == 2
        for ours, orig in zip(back, vias):
            assert ours.time == orig.time
            assert_allclose(ours.pose, orig.pose, atol=1e-12)
            assert np.array_equal(ours.strength, orig.strength)

    @pytest.mark.parametrize("strength", [[1e-2, 1e-4, 1e-6] + [1e-3] * 3,
                                          [1e-4] * 3 + [1e-3, 1e-3, 1e-2]],
                             ids=["position", "rotation"])
    def test_unequal_axis_strengths_refused(self, tmp_path, strength):
        pose = Pose(np.array([0.1, 0.2, 0.3]), (0, 0.4, 0))
        vias = [ViaPoint(0.25, pose, 1e-4), ViaPoint(0.75, pose, strength)]
        path = tmp_path / "via.csv"
        with pytest.raises(InvalidInputError, match="via-point 1 "):
            io.save_viapoints(path, vias)
        assert not path.exists()


class TestTablesAndTraces:
    def test_table_round_trip(self, tmp_path):
        header = ["a", "b"]
        rows = [[1.5, -2.25], [0.1, 1e-9]]
        path = tmp_path / "table.csv"
        io.write_table(path, header, rows, {"note": "test"})
        metadata, got_header, data = io.read_table(path)
        assert got_header == header
        assert metadata["note"] == "test"
        assert np.array_equal(data, np.array(rows))

    def test_row_width_must_match_header(self, tmp_path):
        with pytest.raises(FormatError):
            io.write_table(tmp_path / "t.csv", ["a"], [[1.0, 2.0]])

    def test_trace_blocks(self, tmp_path):
        trace = simulate(sigma=0.05, dt=1e-2, horizon=0.1)
        path = tmp_path / "trace.csv"
        io.save_trace(path, trace)
        metadata, header, data = io.read_table(path)
        assert header[0] == "t"
        assert len(header) == 1 + 6 * 6
        assert data.shape == (trace.times.size, len(header))
        assert float(metadata["inertia"]) == trace.inertia


class TestPolicyFiles:
    def test_round_trip_is_bit_stable(self, tmp_path, door_policy):
        path = tmp_path / "policy.json"
        io.save_policy(path, door_policy)
        back = io.load_policy(path)
        ts = np.linspace(0.0, 1.0, 17)
        ours = query(back, ts)
        orig = query(door_policy, ts)
        for a, b in zip(ours, orig):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.var, b.var)

    def test_format_tag_checked(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"format": "something else"}))
        with pytest.raises(FormatError):
            io.load_policy(path)

    @pytest.mark.parametrize("probe", ["no dims", "t not numbers",
                                       "t holds a string", "no length_scale",
                                       "not utf-8"])
    def test_malformed_policy_fails_cleanly(self, tmp_path, capsys,
                                            door_policy, probe):
        path = tmp_path / "policy.json"
        io.save_policy(path, door_policy)
        payload = json.loads(path.read_text())
        if probe == "no dims":
            payload = {"format": payload["format"]}
        elif probe == "t not numbers":
            payload["dims"][0]["signal"]["t"] = "abc"
        elif probe == "t holds a string":
            payload["dims"][0]["signal"]["t"][0] = "abc"
        elif probe == "no length_scale":
            del payload["dims"][0]["signal"]["length_scale"]
        path.write_text(json.dumps(payload))
        if probe == "not utf-8":
            path.write_bytes(b"\xff\xfe\x00{")
        with pytest.raises(FormatError):
            io.load_policy(path)
        assert main(["query", "--policy", str(path),
                     "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


    def test_reversed_grid_fails_cleanly(self, tmp_path, capsys, door_policy):
        path = tmp_path / "policy.json"
        io.save_policy(path, door_policy)
        payload = json.loads(path.read_text())
        payload["grid"].reverse()
        path.write_text(json.dumps(payload))
        assert main(["query", "--policy", str(path),
                     "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestManifests:
    def test_round_trip_and_hashes(self, tmp_path):
        src = tmp_path / "input.csv"
        src.write_text("hello\n")
        dst = tmp_path / "output.csv"
        dst.write_text("world\n")
        path = tmp_path / "run.manifest.json"
        io.write_manifest(path, "fit", DEFAULTS.to_dict(), [src], [dst],
                          arguments={"policy": "p.json"})
        manifest = io.read_manifest(path)
        assert manifest["command"] == "fit"
        assert manifest["inputs"][str(src)] == io.file_sha256(src)
        assert manifest["outputs"][str(dst)] == io.file_sha256(dst)
        assert manifest["config_sha256"] == config_sha256(DEFAULTS)
        assert manifest["arguments"] == {"policy": "p.json"}

    def test_no_timestamps_inside(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        io.write_manifest(path, "fit", DEFAULTS.to_dict(), [], [])
        raw = json.loads(path.read_text())
        assert "timestamp" not in json.dumps(raw).lower()

    def test_writing_twice_is_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        io.write_manifest(a, "fit", DEFAULTS.to_dict(), [], [])
        io.write_manifest(b, "fit", DEFAULTS.to_dict(), [], [])
        assert a.read_bytes() == b.read_bytes()

    def test_records_blas_build_and_threads(self, tmp_path, monkeypatch):
        """Each BLAS build as 'name version'; an unset variable is null."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        path = tmp_path / "run.manifest.json"
        io.write_manifest(path, "fit", DEFAULTS.to_dict(), [], [])
        versions = io.read_manifest(path)["versions"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert versions["blas"]["numpy"] == f"{blas['name']} {blas['version']}"
        assert set(versions["blas"]) == {"numpy", "scipy"}
        assert isinstance(versions["blas"]["scipy"], str)
        assert versions["threads"] == {"OPENBLAS_NUM_THREADS": "2",
                                       "OMP_NUM_THREADS": "1",
                                       "MKL_NUM_THREADS": None}


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        save_config(path, DEFAULTS)
        assert load_config(path) == DEFAULTS

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidInputError):
            config_from_dict({"nonsense": {}})
        with pytest.raises(InvalidInputError):
            config_from_dict({"policy": {"grid_sizes": 10}})

    def test_section_validation(self):
        with pytest.raises(InvalidInputError):
            config_from_dict({"simulation": {"dt": -1.0}})
        with pytest.raises(InvalidInputError):
            config_from_dict({"alignment": {"measure": "banana"}})
        with pytest.raises(InvalidInputError):
            config_from_dict({"seed": -3})

    def test_overrides(self):
        payload = apply_overrides({}, ["policy.grid_size=40",
                                       "data.radii=[0.5, 0.6]",
                                       "alignment.measure=euclidean-pose"])
        config = config_from_dict(payload)
        assert config.policy.grid_size == 40
        assert config.data.radii == (0.5, 0.6)
        assert config.alignment.measure == "euclidean-pose"

    def test_bad_override_rejected(self):
        with pytest.raises(InvalidInputError):
            apply_overrides({}, ["no_equals_sign"])
        with pytest.raises(InvalidInputError, match="non-object"):
            apply_overrides({"seed": 0}, ["seed.x=1"])

    def test_manifest_accepted_as_config(self, tmp_path):
        manifest = tmp_path / "run.manifest.json"
        io.write_manifest(manifest, "fit", DEFAULTS.to_dict(), [], [])
        assert load_config(manifest) == DEFAULTS


SMALL = ["--set", "data.n_samples=14", "--set", "data.repeats=1",
         "--set", "data.noise=0.004",
         "--set", "policy.grid_size=20", "--set", "policy.opt_starts=2",
         "--set", "policy.hetero_iterations=2",
         "--set", "simulation.dt=0.01"]


class TestCommandLine:
    def test_pipeline_smoke(self, tmp_path, capsys):
        out = str(tmp_path)
        demo_args = SMALL + ["--out-dir", out]
        assert main(["gen-data", *demo_args]) == 0
        demos = sorted(str(p) for p in tmp_path.glob("demo_*.csv"))
        assert len(demos) == 3

        assert main(["align", *demos, *demo_args]) == 0
        assert len(list(tmp_path.glob("aligned_*.csv"))) == 3

        assert main(["fit", *demos, *demo_args]) == 0
        policy_path = tmp_path / "policy.json"
        assert policy_path.exists()

        assert main(["query", "--policy", str(policy_path), "--grid", "9",
                     *demo_args]) == 0
        _, header, data = io.read_table(tmp_path / "query.csv")
        assert data.shape == (9, len(header))

        vias = [ViaPoint(0.5, Pose(np.array([0.5, 0.0, 0.2]),
                                   (0, 0.5, 0)), 1e-4)]
        via_path = tmp_path / "via.csv"
        io.save_viapoints(via_path, vias)
        assert main(["adapt", "--policy", str(policy_path), "--via",
                     str(via_path), "--times", "0.25,0.5,0.75",
                     *demo_args]) == 0
        _, _, adapted = io.read_table(tmp_path / "adapted.csv")
        assert adapted.shape[0] == 3

        assert main(["simulate", "--policy", str(policy_path),
                     *demo_args]) == 0
        assert (tmp_path / "trace.csv").exists()
        assert "stability:" in capsys.readouterr().out

        truth = demos[0]
        assert main(["eval", "--policy", str(policy_path), "--truth", truth,
                     *demo_args]) == 0
        _, header, table = io.read_table(tmp_path / "eval.csv")
        assert table.shape == (2, len(header))

        manifests = {p.name for p in tmp_path.glob("*.manifest.json")}
        assert manifests == {"gen-data.manifest.json", "align.manifest.json",
                             "fit.manifest.json", "query.manifest.json",
                             "adapt.manifest.json", "simulate.manifest.json",
                             "eval.manifest.json"}

    def test_fit_summary_and_eval_calibration(self, tmp_path, capsys):
        """fit prints one line per dimension: its name, length scale,
        signal std and signal-GP LML, each the exact double of the policy
        file. eval adds per-dimension calibration columns to both rows."""
        args = SMALL + ["--out-dir", str(tmp_path)]
        assert main(["gen-data", *args]) == 0
        demos = sorted(str(p) for p in tmp_path.glob("demo_*.csv"))
        capsys.readouterr()
        assert main(["fit", *demos, *args]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        fitted = io.load_policy(tmp_path / "policy.json")
        assert lines == [f"  {name}: length_scale {dim.params.length_scale!r}, "
                         f"signal_std {dim.params.signal_std!r}, "
                         f"lml {dim.signal_gp.log_marginal_likelihood()!r}"
                         for name, dim in zip(DIM_NAMES, fitted.dims)]

        assert main(["eval", "--policy", str(tmp_path / "policy.json"),
                     "--truth", demos[0], *args]) == 0
        _, header, table = io.read_table(tmp_path / "eval.csv")
        assert header[8:] == ([f"within_2sd_{n}" for n in DIM_NAMES]
                              + [f"median_z_{n}" for n in DIM_NAMES])
        assert np.all((table[:, 8:14] >= 0.0) & (table[:, 8:14] <= 1.0))
        assert np.all(table[:, 14:] >= 0.0)

    def test_simulate_requires_a_schedule(self, tmp_path, capsys):
        assert main(["simulate", "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_sigma_only_simulation(self, tmp_path):
        assert main(["simulate", "--sigma", "0.05", "--force", "1,0,0,0,0,0",
                     "--set", "simulation.dt=0.01", "--set",
                     "simulation.horizon=0.5", "--out-dir", str(tmp_path)]) == 0
        _, _, data = io.read_table(tmp_path / "trace.csv")
        assert data.shape[0] == 51

    def test_missing_input_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_policy_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "policy.json"
        bad.write_text("{not json")
        assert main(["query", "--policy", str(bad),
                     "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_fit_single_demo_fails_cleanly(self, tmp_path, capsys, rng):
        demo = tmp_path / "demo.csv"
        io.save_demonstration(demo, wiggly_trajectory(rng, n=6))
        assert main(["fit", str(demo), "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_fit_one_usable_demo_fails_cleanly(self, tmp_path, capsys, rng):
        """A flat demo is skipped by alignment and does not count."""
        demo, flat = tmp_path / "demo.csv", tmp_path / "flat.csv"
        io.save_demonstration(demo, wiggly_trajectory(rng, n=6))
        pose = Pose(np.zeros(3), (0, 0, 0))
        io.save_demonstration(flat, Trajectory(np.arange(30.0), [pose] * 30))
        with pytest.warns(AlignmentWarning):
            code = main(["fit", str(demo), str(flat),
                         "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "policy.json").exists()

    def test_fit_whose_every_start_fails_fails_cleanly(
            self, tmp_path, capsys, monkeypatch, door_demos):
        paths = []
        for k, demo in enumerate(door_demos[:2]):
            paths.append(str(tmp_path / f"demo_{k}.csv"))
            io.save_demonstration(paths[-1], demo)

        def singular(*args, **kwargs):
            raise LinAlgError("not positive definite")

        monkeypatch.setattr(gp, "cho_factor", singular)
        assert main(["fit", *paths, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no start point" in err

    def test_even_smoothing_window_fails_cleanly(self, tmp_path, capsys,
                                                 door_demos):
        """An even window is not centered, so it is refused, not rounded."""
        paths = []
        for k, demo in enumerate(door_demos[:2]):
            paths.append(str(tmp_path / f"demo_{k}.csv"))
            io.save_demonstration(paths[-1], demo)
        assert main(["fit", *paths, "--set", "policy.smoothing_window=4",
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "odd" in err
        assert not (tmp_path / "policy.json").exists()

    @pytest.mark.parametrize("edit", [
        lambda manifest: manifest.pop("config"),
        lambda manifest: manifest.update(config=[0]),
        lambda manifest: manifest.update(config_sha256="0" * 64),
        lambda manifest: manifest.pop("config_sha256"),
        lambda manifest: manifest["config"].update(seed=1)],
        ids=["no-config", "config-not-object", "wrong-hash", "no-hash",
             "edited-config"])
    def test_manifest_must_carry_its_config(self, tmp_path, capsys, edit):
        path = tmp_path / "gen-data.manifest.json"
        io.write_manifest(path, "gen-data", DEFAULTS.to_dict(), [], [])
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        assert main(["gen-data", "--config", str(path),
                     "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.glob("*.csv"))

    def test_rerun_from_manifest_is_identical(self, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        assert main(["gen-data", *SMALL, "--out-dir", str(first)]) == 0
        manifest = first / "gen-data.manifest.json"
        assert main(["gen-data", "--config", str(manifest),
                     "--out-dir", str(second)]) == 0
        for path in sorted(first.glob("demo_*.csv")):
            assert (second / path.name).read_bytes() == path.read_bytes()
