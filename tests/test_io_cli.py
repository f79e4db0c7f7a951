import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from numpy.testing import assert_allclose

import gplfd
from gplfd import (AlignmentWarning, FormatError, InvalidInputError,
                   ParseError, Pose, RunConfig, Trajectory, ViaPoint,
                   config_sha256, load_config, query, save_config, simulate)
from gplfd import gp, io
from gplfd.cli import build_parser, main
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


def joined_table_text(header, rows, metadata):
    """A table's text built whole and joined: the writer's form before it
    wrote blocks of rows, kept here as the oracle of its bytes."""
    lines = [f"# format: {io.FORMAT_TABLE}"]
    lines += [f"# {key}: {value}" for key, value in metadata.items()]
    lines.append(",".join(header))
    lines += [",".join(map(repr, row))
              for row in np.asarray(rows, dtype=float).tolist()]
    return "\n".join(lines) + "\n"


BLOCK = io._BLOCK_ROWS
EDGE_VALUES = [-0.0, 5e-324, 1e-5, 1e16, 1e308, -1e308, math.inf, -math.inf,
               math.nan]


class TestBlockWriter:
    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   3 * BLOCK + 7])
    def test_bytes_equal_the_joined_text(self, tmp_path, n):
        header = ["a", "b", "c", "d"]
        # Each edge value in every column over the rows.
        rows = np.resize(EDGE_VALUES, (n, len(header)))
        metadata = {"note": "caf\u00e9 \u2013 d\u00f6or", "inertia": "1.5"}
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        io.write_table(ours, header, rows, metadata)
        oracle.write_text(joined_table_text(header, rows, metadata),
                          encoding="utf-8")
        assert ours.read_bytes() == oracle.read_bytes()
        _, got_header, back = io.read_table(ours)
        assert got_header == header
        assert back.shape == (n, len(header))
        assert np.array_equal(back, rows, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(rows))

    @pytest.mark.parametrize("rows", [[[1.0, 2.0, 3.0]], [[1.0, 2.0], [3.0]]],
                             ids=["width", "ragged"])
    def test_refused_table_leaves_the_file_untouched(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        io.write_table(path, ["a", "b"], [[1.0, 2.0]])
        before = path.read_bytes()
        # FormatError is a ValueError; numpy refuses ragged rows with one.
        with pytest.raises(ValueError):
            io.write_table(path, ["a", "b"], rows)
        assert path.read_bytes() == before

    def test_bounded_memory(self, tmp_path):
        rows = np.random.default_rng(0).random((20_000, 37))
        path = tmp_path / "big.csv"
        header = [f"c{k}" for k in range(37)]
        tracemalloc.start()
        try:
            io.write_table(path, header, rows)
            written = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            _, _, back = io.read_table(path)
            read = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 13e6
        assert np.array_equal(back, rows)
        assert written <= 1e6
        assert read <= 2.5 * size

    def test_error_order_and_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        body = ["1,2"] * 6
        body[2] = "1,2,3"  # line 5: a width error
        path.write_text("\n".join([f"# format: {io.FORMAT_TABLE}", "a,b",
                                   *body, "# late: 1"]) + "\n")
        # The scan of every line comes first: the late metadata wins.
        with pytest.raises(ParseError, match="metadata after the header") as info:
            io.read_table(path)
        assert info.value.line == 9
        path.write_text("\n".join([f"# format: {io.FORMAT_TABLE}", "a,b",
                                   *body]) + "\n")
        with pytest.raises(ParseError, match="expected 2 columns") as info:
            io.read_table(path)
        assert info.value.line == 5
        body[2] = "1,two"
        path.write_text("\n".join([f"# format: {io.FORMAT_TABLE}", "", "a,b",
                                   *body]) + "\n")
        with pytest.raises(ParseError, match="two") as info:
            io.read_table(path)
        assert info.value.line == 6


class TestPolicyFiles:
    def test_round_trip_is_bit_stable(self, tmp_path, door_policy):
        path = tmp_path / "policy.json"
        io.save_policy(path, door_policy)
        back = io.load_policy(path)
        ts = np.linspace(0.0, 1.0, 17)
        for a, b in zip(back.dims, door_policy.dims):
            assert a.params == b.params
            assert np.array_equal(a.signal_gp.noise, b.signal_gp.noise)
            assert (a.signal_gp.log_marginal_likelihood()
                    == b.signal_gp.log_marginal_likelihood())
        ours = query(back, ts)
        orig = query(door_policy, ts)
        for a, b in zip(ours, orig):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.var, b.var)

    def test_written_on_one_line_and_indented_files_load(self, tmp_path,
                                                         door_policy):
        """The file is compact JSON; an indented v2 file, as written before,
        loads to the same posterior bit for bit."""
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        io.save_policy(compact, door_policy)
        assert compact.read_text().count("\n") == 1
        payload = json.loads(compact.read_text())
        indented.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        ts = np.linspace(0.0, 1.0, 101)
        ours = query(io.load_policy(indented), ts)
        theirs = query(io.load_policy(compact), ts)
        assert np.array_equal(ours.mean, theirs.mean)
        assert np.array_equal(ours.var, theirs.var)

    def test_v1_file_asks_for_a_refit(self, tmp_path, capsys, door_policy):
        """A v1 file held the noise GP this version no longer has."""
        path = tmp_path / "policy.json"
        io.save_policy(path, door_policy)
        payload = json.loads(path.read_text())
        payload["format"] = "gplfd-policy v1"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="refit"):
            io.load_policy(path)
        assert main(["query", "--policy", str(path),
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "gplfd fit" in err

    def test_format_tag_checked(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"format": "something else"}))
        with pytest.raises(FormatError):
            io.load_policy(path)

    @pytest.mark.parametrize("probe", ["no dims", "t not numbers",
                                       "t holds a string", "t holds a bool",
                                       "t holds null", "t holds a list",
                                       "no length_scale",
                                       "names swapped", "no name",
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
        elif probe.startswith("t holds"):
            payload["dims"][0]["signal"]["t"][0] = {
                "t holds a string": "abc", "t holds a bool": True,
                "t holds null": None, "t holds a list": [0.5]}[probe]
        elif probe == "no length_scale":
            del payload["dims"][0]["signal"]["length_scale"]
        elif probe == "names swapped":
            dims = payload["dims"]
            dims[0], dims[1] = dims[1], dims[0]
        elif probe == "no name":
            del payload["dims"][2]["name"]
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


class TestReplayEnvironment:
    def test_replay_under_other_threads_warns(self, tmp_path, caplog,
                                              monkeypatch):
        """A manifest written under other thread settings replays to the
        same bytes and exit code, with one WARNING naming the field."""
        assert main(["gen-data", *SMALL, "--out-dir", str(tmp_path)]) == 0
        manifest = tmp_path / "gen-data.manifest.json"
        with caplog.at_level(logging.WARNING, logger="gplfd.cli"):
            assert main(["gen-data", "--config", str(manifest),
                         "--out-dir", str(tmp_path / "same")]) == 0
        assert not caplog.records
        payload = json.loads(manifest.read_text())
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        payload["versions"]["threads"]["OPENBLAS_NUM_THREADS"] = "7"
        manifest.write_text(json.dumps(payload))
        with caplog.at_level(logging.WARNING, logger="gplfd.cli"):
            assert main(["gen-data", "--config", str(manifest),
                         "--out-dir", str(tmp_path / "other")]) == 0
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "threads.OPENBLAS_NUM_THREADS '7' there, '1' here" in (
            record.getMessage())
        for name in ("numpy", "scipy", "blas"):
            assert f"{name} " not in record.getMessage()
        caplog.clear()
        payload["versions"]["numpy"] = "1.0.0"
        manifest.write_text(json.dumps(payload))
        with caplog.at_level(logging.WARNING, logger="gplfd.cli"):
            assert main(["gen-data", "--config", str(manifest),
                         "--out-dir", str(tmp_path / "other")]) == 0
        [record] = caplog.records
        assert f"numpy '1.0.0' there, '{np.__version__}' here" in (
            record.getMessage())
        assert "threads.OPENBLAS_NUM_THREADS" in record.getMessage()
        for demo in tmp_path.glob("demo_*.csv"):
            for replay in ("same", "other"):
                assert (tmp_path / replay / demo.name).read_bytes() == (
                    demo.read_bytes())

    def test_config_file_read_once(self, tmp_path, monkeypatch):
        """A --config run reads its file once, for the config and for the
        replay check alike."""
        assert main(["gen-data", *SMALL, "--out-dir", str(tmp_path)]) == 0
        manifest = tmp_path / "gen-data.manifest.json"
        reads, real = [], io._read_text
        monkeypatch.setattr(io, "_read_text",
                            lambda path: reads.append(str(path)) or real(path))
        assert main(["gen-data", "--config", str(manifest),
                     "--out-dir", str(tmp_path / "replay")]) == 0
        assert reads == [str(manifest)]

    def test_plain_config_never_warns(self, tmp_path, caplog):
        path = tmp_path / "config.json"
        save_config(path, DEFAULTS)
        with caplog.at_level(logging.WARNING, logger="gplfd.cli"):
            assert main(["gen-data", "--config", str(path), *SMALL,
                         "--out-dir", str(tmp_path)]) == 0
        assert not caplog.records


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

    def test_fit_counts_only_the_demonstrations_it_fitted(self, tmp_path,
                                                          capsys):
        """A flat demonstration is skipped by alignment: fit reports the
        three it fitted, not the four it read."""
        args = SMALL + ["--out-dir", str(tmp_path)]
        assert main(["gen-data", *args]) == 0
        demos = sorted(str(p) for p in tmp_path.glob("demo_*.csv"))
        flat = tmp_path / "flat.csv"
        pose = Pose(np.zeros(3), (0, 0, 0))
        io.save_demonstration(flat, Trajectory(np.arange(30.0), [pose] * 30))
        capsys.readouterr()
        with pytest.warns(AlignmentWarning, match="zero path length"):
            assert main(["fit", *demos, str(flat), *args]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert len(demos) == 3
        assert first.startswith("fitted policy on 3 demonstrations -> ")

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

    def test_removed_noise_loop_keys_fail_cleanly(self, tmp_path, capsys,
                                                  door_demos):
        """The noise loop's keys went with it: a smoothing window (here an
        even one) or a round count is an unknown field, refused before any
        fit."""
        paths = []
        for k, demo in enumerate(door_demos[:2]):
            paths.append(str(tmp_path / f"demo_{k}.csv"))
            io.save_demonstration(paths[-1], demo)
        for key in ("policy.smoothing_window=4", "policy.hetero_iterations=2"):
            assert main(["fit", *paths, "--set", key,
                         "--out-dir", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "unknown" in err
            assert key.split(".")[1].split("=")[0] in err
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

    def test_set_values_do_not_leak_between_calls(self, tmp_path):
        """main parses every call with the one parser the process builds; a
        call's --set values stay out of the next call's config."""
        assert build_parser() is build_parser()
        configs = []
        for k, extra in enumerate([["--set", "data.n_samples=9"], [],
                                   ["--set", "data.noise=0.002"], []]):
            out = tmp_path / str(k)
            assert main(["gen-data", *SMALL, *extra, "--out-dir", str(out)]) == 0
            manifest = json.loads((out / "gen-data.manifest.json").read_text())
            configs.append(manifest["config"]["data"])
        assert [(c["n_samples"], c["noise"]) for c in configs] == [
            (9, 0.004), (14, 0.004), (14, 0.002), (14, 0.004)]


# Runs CLI commands in one fresh interpreter and prints, as its last line,
# the modules under a prefix loaded after the import and after each command.
OPTIMIZER_PROBE = """
import json, sys
import gplfd, gplfd.cli

def optimizer():
    return sorted(m for m in sys.modules if m.startswith(sys.argv[2]))

loaded = [["import", optimizer()]]
for argv in json.loads(sys.argv[1]):
    code = gplfd.cli.main(argv)
    loaded.append([argv[0], optimizer() if code == 0 else f"exit {code}"])
print(json.dumps(loaded))
"""


# Runs CLI commands in one fresh interpreter and prints, as its last line,
# how often gp has loaded its compiled L-BFGS-B routine after each command.
SETULB_PROBE = """
import json, sys
import gplfd.cli
from gplfd import gp
loaded = []
for argv in json.loads(sys.argv[1]):
    assert gplfd.cli.main(argv) == 0
    loaded.append([argv[0], gp.compiled_setulb.cache_info().misses])
print(json.dumps(loaded))
"""


def fresh_python(code, *args) -> str:
    """The last line ``code`` prints in a fresh interpreter on this gplfd."""
    env = dict(os.environ, PYTHONPATH=str(Path(gplfd.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True)
    return done.stdout.splitlines()[-1]


class TestTextEncoding:
    """Every writer names UTF-8, the encoding the readers insist on: under
    warn_default_encoding and error::EncodingWarning, a text file opened in
    the locale's encoding ends the command in a traceback."""

    def test_commands_write_utf8_explicitly(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(gplfd.__file__).parents[1]))

        def run(*args):
            done = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                                   "-W", "error::EncodingWarning", *args],
                                  cwd=tmp_path, env=env, capture_output=True,
                                  text=True)
            assert done.returncode == 0, done.stderr
            assert "Traceback" not in done.stderr

        cli = ["-m", "gplfd.cli"]
        run(*cli, "gen-data", *SMALL, "--out-dir", ".")
        demos = sorted(p.name for p in tmp_path.glob("demo_*.csv"))
        run(*cli, "fit", *demos, *SMALL, "--out-dir", ".")
        run(*cli, "simulate", "--policy", "policy.json", *SMALL, "--out-dir", ".")
        run(*cli, "eval", "--policy", "policy.json", "--truth", demos[0],
            *SMALL, "--out-dir", ".")
        run("-c", "from gplfd.config import RunConfig, save_config; "
                  "save_config('config.json', RunConfig())")
        assert {"policy.json", "trace.csv", "eval.csv", "config.json",
                "eval.manifest.json"} <= {p.name for p in tmp_path.iterdir()}


def optimizer_modules(commands, prefix="scipy.optimize"):
    """[command, modules under ``prefix`` loaded so far] in a fresh
    process."""
    return [tuple(row) for row in json.loads(
        fresh_python(OPTIMIZER_PROBE, json.dumps(commands), prefix))]


class TestOptimizerImport:
    """No command imports the scipy.optimize package: a fit drives scipy's
    compiled L-BFGS-B routine, which gp loads from its file. This session
    has the package loaded already, so each check runs in a fresh
    interpreter."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("optimizer")
        assert main(["gen-data", *SMALL, "--out-dir", str(out)]) == 0
        demos = sorted(str(p) for p in out.glob("demo_*.csv"))
        assert main(["fit", *demos, *SMALL, "--out-dir", str(out)]) == 0
        io.save_viapoints(out / "via.csv", [ViaPoint(
            0.5, Pose(np.array([0.5, 0.0, 0.2]), (0, 0.5, 0)), 1e-4)])
        return out

    @staticmethod
    def every_command(run_dir):
        demos = sorted(str(p) for p in run_dir.glob("demo_*.csv"))
        policy, out = str(run_dir / "policy.json"), str(run_dir / "probe")
        args = [*SMALL, "--out-dir", out]
        commands = [["gen-data", *args], ["align", *demos, *args],
                    ["fit", *demos, *args],
                    ["query", "--policy", policy, "--grid", "9", *args],
                    ["adapt", "--policy", policy,
                     "--via", str(run_dir / "via.csv"), *args],
                    ["simulate", "--policy", policy, *args],
                    ["eval", "--policy", policy, "--truth", demos[0], *args]]
        # Where this scipy's setulb is not the one gp drives, a fit calls
        # scipy.optimize.minimize, which imports both packages.
        return [argv for argv in commands
                if argv[0] != "fit" or gp.compiled_setulb() is not None]

    def test_only_a_fit_loads_the_compiled_routine(self, run_dir):
        """gp loads L-BFGS-B's extension on a fit's first run, not at
        import: the other commands never load it."""
        commands = sorted(self.every_command(run_dir),
                          key=lambda argv: argv[0] == "fit")
        loaded = json.loads(fresh_python(SETULB_PROBE, json.dumps(commands)))
        assert loaded == [[argv[0], int(argv[0] == "fit")]
                          for argv in commands]

    def test_no_command_imports_the_optimizer_package(self, run_dir):
        """Not one module under scipy.optimize is imported, by a fit or by
        any other command."""
        commands = self.every_command(run_dir)
        assert optimizer_modules(commands) == [
            (name, []) for name in ["import"] + [c[0] for c in commands]]


# gp's LAPACK routines, each compared by identity with scipy.linalg.lapack's.
LAPACK_ROUTINES = ("dpotrf", "dpotrs", "dtrtrs", "dpotri")
SAME_ROUTINES_PROBE = """
import sys
first, second = sys.argv[1:3]
__import__(first)
__import__(second)
from gplfd import gp
from scipy.linalg import lapack
print(all(getattr(gp.lapack, f) is getattr(lapack, f) for f in sys.argv[3:]))
"""


# Imports scipy.linalg and scipy.optimize after gplfd, with or without a fit
# first: their compiled modules are gp's, and scipy's own minimize runs.
PACKAGE_ATTRIBUTE_PROBE = """
import sys
import numpy as np
from gplfd import gp
t = np.linspace(0.0, 1.0, 12)
if sys.argv[1] == "fit":
    gp.optimize_hyperparameters(gp.TrainingSet(t, np.sin(6.0 * t)))
import scipy.linalg, scipy.optimize
res = scipy.optimize.minimize(lambda x: (x @ x, 2.0 * x), np.ones(2),
                              jac=True, method="L-BFGS-B")
print(scipy.linalg._flapack.dpotrf is gp.lapack.dpotrf,
      gp.compiled_setulb() in (None, scipy.optimize._lbfgsb.setulb),
      res.success)
"""


class TestLinalgImport:
    """gp binds its LAPACK routines from scipy's compiled extension, so no
    process imports the scipy.linalg package."""

    run_dir = TestOptimizerImport.run_dir

    def test_no_command_imports_scipy_linalg(self, run_dir):
        """Not even scipy.linalg._flapack stays registered: gp holds that
        module without putting it in sys.modules."""
        commands = TestOptimizerImport.every_command(run_dir)
        assert optimizer_modules(commands, "scipy.linalg") == [
            (name, []) for name in ["import"] + [c[0] for c in commands]]

    @pytest.mark.parametrize("order", [("gplfd", "scipy.linalg"),
                                       ("scipy.linalg", "gplfd")])
    def test_routines_are_scipys(self, order):
        assert fresh_python(SAME_ROUTINES_PROBE, *order,
                            *LAPACK_ROUTINES) == "True"

    def test_package_attribute_after_a_fit(self):
        """gp loads _flapack and _lbfgsb before their packages exist; once
        a fit has run, importing the packages binds them as their
        attributes, with gp's routines."""
        assert fresh_python(PACKAGE_ATTRIBUTE_PROBE, "fit") == "True True True"

    def test_package_attribute_without_a_fit(self):
        assert fresh_python(PACKAGE_ATTRIBUTE_PROBE, "none") == "True True True"

    def test_public_module_without_the_extension_file(self, monkeypatch,
                                                      tmp_path):
        """An installation whose scipy has no _flapack file beside
        scipy.linalg has no compiled module to load, and gp takes the public
        scipy.linalg.lapack, whose routines are the same."""
        import scipy
        from scipy.linalg import lapack
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        assert gp._compiled("linalg._flapack") is None
        assert all(getattr(lapack, f) is getattr(gp.lapack, f)
                   for f in LAPACK_ROUTINES)
