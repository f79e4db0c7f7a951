"""Malformed config values, arguments and files end in ``error:`` and exit 1.

Every value here is refused before anything sized by it is allocated.
"""

import contextlib
import io as stdio
import json
import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gplfd import (DIM_NAMES, FormatError, ParseError, Pose, RunConfig,
                   ToolkitError, Trajectory, ViaPoint, config_sha256, io,
                   load_config)
from gplfd.admittance import MAX_SIM_STEPS
from gplfd.cli import MAX_QUERY_POINTS, main
from gplfd.config import apply_overrides, config_from_dict
from gplfd.gp import MAX_GP_INPUTS
from gplfd.policy import MAX_GRID_SIZE
from gplfd.synthetic import MAX_DOOR_SAMPLES, generate_synthetic_door_set


def run(argv):
    """(exit code, stderr) of one in-process CLI call."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def policy_file(tmp_path_factory, door_policy):
    path = tmp_path_factory.mktemp("policy") / "policy.json"
    io.save_policy(path, door_policy)
    return str(path)


CONFIG_PROBES = [
    "policy.length_scale_bounds=[0.1,0.1]",
    'policy.opt_starts="3"',
    "data.radii=5",
    "data.noise=null",
    'controller.inertia="1"',
    'alignment.rotation_weight="x"',
    "policy.grid_size=2.5",
    "simulation.dt=NaN",
    'simulation.shared_sigma="yes"',
    "policy.hetero_iterations=0",
    "policy.opt_starts=0",
    "policy.opt_starts=1000000000",
    "policy.opt_max_iter=1000000000",
    "policy.hetero_iterations=1000000000",
    "policy.position_strength=0",
    "alignment.measure=banana",
    "simulation.integrator=euler",
    "data.repeats=true",
    "controller.steepness=1e999",
    f"policy.grid_size={MAX_GRID_SIZE + 1}",
    f"simulation.dt={2.0 / (MAX_SIM_STEPS + 1)}",
    f"data.n_samples={MAX_DOOR_SAMPLES}",
    pytest.param("data.repeats=" + "9" * 5000, id="data.repeats=9*5000"),
]


class TestConfigValues:
    @pytest.mark.parametrize("probe", CONFIG_PROBES)
    def test_refused_at_load(self, tmp_path, probe):
        code, err = run(["gen-data", f"--set={probe}",
                         "--out-dir", str(tmp_path)])
        assert code == 1 and err.startswith("error:")
        assert not list(tmp_path.glob("*.csv"))

    def test_defaults_and_hash_unchanged(self):
        # Pinned: manifests written before the typed loader must replay.
        assert config_sha256(RunConfig()) == (
            "f1327c3df260794aad1e02d07120c3c21f4a6eba4465b4bfdc0459221d3f1241")
        assert config_from_dict(RunConfig().to_dict()) == RunConfig()

    def test_lists_become_float_tuples(self):
        payload = apply_overrides({}, ["data.radii=[1, 2]",
                                       "policy.noise_std_bounds=[1e-6, 1]"])
        config = config_from_dict(payload)
        assert config.data.radii == (1.0, 2.0)
        assert all(type(r) is float for r in config.data.radii)
        assert config.policy.noise_std_bounds == (1e-6, 1.0)

    @pytest.mark.parametrize("bounds", [
        "policy.noise_std_bounds=[1e-300,1e300]",
        "policy.noise_std_bounds=[1e-200,1e-199]",
        "policy.signal_std_bounds=[1e-200,1e-199]"])
    def test_fit_refuses_bounds_whose_squares_leave_the_floats(
            self, tmp_path, pull_texts, bounds):
        """Such bounds once ended a fit in an OverflowError traceback, a
        misleading refusal or a failed search; the config refuses them."""
        paths = []
        for k, text in enumerate(pull_texts[:2]):
            paths.append(str(tmp_path / f"pull_{k}.csv"))
            (tmp_path / f"pull_{k}.csv").write_text(text)
        code, err = run(["fit", *paths, f"--set={bounds}",
                         "--out-dir", str(tmp_path)])
        assert code == 1 and err.startswith("error:")
        assert "search bounds" in err and "Traceback" not in err
        assert not (tmp_path / "policy.json").exists()

    def test_binary_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe\x00{")
        with pytest.raises(FormatError, match="UTF-8"):
            load_config(path)
        code, err = run(["gen-data", "--config", str(path),
                         "--out-dir", str(tmp_path)])
        assert code == 1 and err.startswith("error:")


class TestArguments:
    @pytest.mark.parametrize("extra", [
        ["--times", "a,b"], ["--times", "0.5,,1"], ["--grid", "-1"],
        ["--grid", "0"], ["--grid", str(MAX_QUERY_POINTS + 1)],
        ["--times", ""]])
    def test_query_times(self, tmp_path, policy_file, extra):
        code, err = run(["query", "--policy", policy_file, *extra,
                         "--out-dir", str(tmp_path)])
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("force", ["a", "1;2;3;4;5;6"])
    def test_simulate_force(self, tmp_path, force):
        code, err = run(["simulate", "--sigma", "0.05", "--force", force,
                         "--set", "simulation.horizon=0.01",
                         "--out-dir", str(tmp_path)])
        assert code == 1 and err.startswith("error:")


class TestFiles:
    def test_binary_demonstration(self, tmp_path):
        path = tmp_path / "demo.csv"
        path.write_bytes(b"# format: gplfd-demo v1\n\xff\xfe\n")
        with pytest.raises(FormatError, match="UTF-8"):
            io.load_demonstration(path)
        code, err = run(["fit", str(path), str(path),
                         "--out-dir", str(tmp_path)])
        assert code == 1 and err.startswith("error:")

    def test_non_finite_position_reports_line(self, tmp_path):
        path = tmp_path / "demo.csv"
        path.write_text("# format: gplfd-demo v1\n"
                        "# quaternion: wxyz\n"
                        "t,x,y,z,qw,qx,qy,qz\n"
                        "0.0,0,0,0,1,0,0,0\n"
                        "1.0,nan,0,0,1,0,0,0\n")
        with pytest.raises(ParseError, match="finite 3-vector") as info:
            io.load_demonstration(path)
        assert info.value.line == 5

    @pytest.mark.parametrize("command, x", [
        ("adapt", [1e308, 1e308, -1e308, 1e308]),
        ("eval", [1e308, 1e308, -1e308, 1e308]),
        ("eval", [0.0, 0.1, 0.2, 1e200])],
        ids=["adapt", "eval", "eval-last-sample"])
    def test_overflowing_targets_refused(self, tmp_path, policy_file, command,
                                         x):
        """Via-point and truth rows become GP targets; their sum overflows.

        The last truth sample is only predicted, never a target: its
        squared error overflows instead.
        """
        rows = np.zeros((4, 6))
        rows[:, 0] = x
        path = tmp_path / "rows.csv"
        if command == "adapt":
            io.save_viapoints(path, [ViaPoint(0.2 * (k + 1), row, 1e-4)
                                     for k, row in enumerate(rows)])
            argv = ["adapt", "--policy", policy_file, "--via", str(path)]
        else:
            io.save_demonstration(path, Trajectory(np.arange(4.0), rows))
            argv = ["eval", "--policy", policy_file, "--truth", str(path)]
        code, err = run([*argv, "--out-dir", str(tmp_path)])
        assert code == 1 and err.startswith("error:") and "overflow" in err

    @pytest.mark.parametrize("command, message", [
        ("fit", "trajectory needs at least two samples"),
        ("eval", "trajectory needs at least two samples"),
        ("adapt", "needs at least one via-point")],
        ids=["fit", "eval", "adapt"])
    def test_header_without_rows_refused(self, tmp_path, policy_file, command,
                                         message):
        header = {"fit": "t,x,y,z,qw,qx,qy,qz",
                  "eval": "t,x,y,z,qw,qx,qy,qz",
                  "adapt": "t,x,y,z,qw,qx,qy,qz,position_strength,"
                           "rotation_strength"}[command]
        tag = "via" if command == "adapt" else "demo"
        path = tmp_path / "rows.csv"
        path.write_text(f"# format: gplfd-{tag} v1\n# quaternion: wxyz\n"
                        f"{header}\n")
        argv = {"fit": ["fit", str(path), str(path)],
                "eval": ["eval", "--policy", policy_file, "--truth", str(path)],
                "adapt": ["adapt", "--policy", policy_file, "--via",
                          str(path)]}[command]
        code, err = run([*argv, "--out-dir", str(tmp_path)])
        assert code == 1 and err.startswith("error:") and message in err

    @pytest.mark.parametrize("payload", [b"[1, 2]", b"\xff", b"[" * 100000],
                             ids=["list", "not-utf-8", "nested-too-deep"])
    def test_manifest_not_an_object(self, tmp_path, payload):
        path = tmp_path / "run.manifest.json"
        path.write_bytes(payload)
        with pytest.raises(FormatError):
            io.read_manifest(path)


def gp_entry(n):
    """One signal GP of a policy file, with ``n`` distinct inputs."""
    t = np.linspace(0.0, 1.0, n)
    return {"t": t.tolist(), "y": np.sin(3.0 * t).tolist(),
            "length_scale": 0.3, "signal_std": 1.0}


def policy_payload(n_inputs=4):
    """A hand-written policy whose x signal GP has ``n_inputs`` inputs and
    whose noise profiles are 1e-4 at three knots."""
    dims = [{"name": name, "signal": gp_entry(n_inputs if k == 0 else 4),
             "noise": {"knots": [0.0, 0.5, 1.0],
                       "log_variance": [math.log(1e-4)] * 3}}
            for k, name in enumerate(DIM_NAMES)]
    return {"format": "gplfd-policy v2", "grid": [0.0, 0.5, 1.0],
            "dims": dims}


def traced_run(argv):
    """(exit code, stderr, peak traced bytes) of one in-process CLI call."""
    tracemalloc.start()
    try:
        code, err = run(argv)
        return code, err, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSizeCaps:
    """Oversize files and queries end before their GP matrices exist.

    At a cap, one GP's m x m matrix alone is 32 MB and one predict's q x m
    matrix 320 MB; every refusal here peaks under 10 MB.
    """

    def test_viapoint_file(self, tmp_path, policy_file):
        n = MAX_GP_INPUTS + 1
        pose = Pose.from_vector(np.zeros(6))
        io.save_viapoints(tmp_path / "vias.csv",
                          [ViaPoint(k / n, pose, 1e-4) for k in range(n)])
        code, err, peak = traced_run(["adapt", "--policy", policy_file,
                                      "--via", str(tmp_path / "vias.csv"),
                                      "--out-dir", str(tmp_path)])
        assert code == 1 and err.startswith("error:") and "distinct" in err
        assert peak < 10_000_000

    def test_policy_file(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(policy_payload(MAX_GP_INPUTS + 1)))
        code, err, peak = traced_run(["query", "--policy", str(path),
                                      "--out-dir", str(tmp_path)])
        assert code == 1 and err.startswith("error:") and "distinct" in err
        assert peak < 10_000_000

    def test_truth_file(self, tmp_path, policy_file):
        n = MAX_GP_INPUTS + 2
        samples = np.zeros((n, 6))
        samples[:, 0] = np.linspace(0.0, 1.0, n)
        io.save_demonstration(tmp_path / "truth.csv",
                              Trajectory(np.arange(n, dtype=float), samples))
        code, err, peak = traced_run(["eval", "--policy", policy_file,
                                      "--truth", str(tmp_path / "truth.csv"),
                                      "--out-dir", str(tmp_path)])
        assert code == 1 and err.startswith("error:")
        assert "streaming evaluation takes at most" in err
        assert peak < 10_000_000

    def test_query_grid(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(policy_payload(500)))
        code, err, peak = traced_run(["query", "--policy", str(path),
                                      "--grid", str(MAX_QUERY_POINTS),
                                      "--out-dir", str(tmp_path)])
        assert code == 1 and err.startswith("error:") and "cells" in err
        assert peak < 10_000_000


# ---------------------------------------------------------------------------
# Property: mutated overrides and arguments never escape as a traceback
# ---------------------------------------------------------------------------

# Every command starts from a config whose runs take milliseconds; each
# example then overrides a few fields.
TINY = ["--set=data.n_samples=6", "--set=data.repeats=1",
        "--set=simulation.dt=0.01", "--set=simulation.horizon=0.05"]

KEYS = [f"{section}.{name}" for section, fields in RunConfig().to_dict().items()
        if isinstance(fields, dict) for name in fields]
KEYS += ["seed", "policy", "nonsense.x", "data.radii.x", ""]

# Extreme and wrong-typed values, kept few so every accepted config stays tiny.
NUMBERS = [0, 1, 2, 3, -1, 10 ** 9, 10 ** 30, 0.0, 0.5, -0.5, 2.0, 1e-9,
           1e308, math.nan, math.inf, -math.inf]
VALUES = st.sampled_from(NUMBERS + [True, None, "x", "", [], [0.5],
                                    [0.1, 0.2], ["a"], [math.nan], {}])
TEXT = st.text(alphabet="0123456789.,-+eainf x", max_size=12)


def _override(key, value):
    text = json.dumps(value) if not isinstance(value, str) else value
    return f"--set={key}={text}"


OVERRIDES = st.lists(st.builds(_override, st.sampled_from(KEYS), VALUES),
                     max_size=3)
PROPERTY = settings(max_examples=25, deadline=None, database=None,
                    derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def assert_clean(argv):
    with tempfile.TemporaryDirectory() as out:
        code, err = run([*argv, "--out-dir", out])
    assert code == 0 or (code == 1 and err.startswith("error:")), err


class TestMutatedInputs:
    @PROPERTY
    @given(OVERRIDES)
    def test_gen_data(self, overrides):
        assert_clean(["gen-data", *TINY, *overrides])

    @PROPERTY
    @given(OVERRIDES, st.one_of(
        st.builds("--grid={}".format, st.sampled_from(
            [-1, 0, 1, 7, MAX_QUERY_POINTS + 1, 10 ** 30])),
        st.builds("--times={}".format, TEXT)))
    def test_query(self, policy_file, overrides, times):
        assert_clean(["query", "--policy", policy_file, times, *TINY,
                      *overrides])

    @PROPERTY
    @given(OVERRIDES, st.sampled_from(NUMBERS), st.one_of(st.none(), TEXT))
    def test_simulate(self, overrides, sigma, force):
        force = [] if force is None else [f"--force={force}"]
        assert_clean(["simulate", f"--sigma={sigma!r}", *force, *TINY,
                      *overrides])


# ---------------------------------------------------------------------------
# Property: mutated demonstration, via-point and table files load or fail
# with a ToolkitError, and a bad pose row names its line
# ---------------------------------------------------------------------------

def _base_files(out):
    """Valid demo, via-point and table files as {kind: (path, text)}."""
    rng = np.random.default_rng(5)
    samples = np.hstack([rng.normal(size=(4, 3)), rng.normal(size=(4, 3))])
    demo = Trajectory(np.arange(4.0), samples)
    vias = [ViaPoint(0.2 * (k + 1), pose, 1e-4)
            for k, pose in enumerate(demo.poses[:3])]
    paths = {kind: f"{out}/{kind}.csv" for kind in ("demo", "via", "table")}
    io.save_demonstration(paths["demo"], demo)
    io.save_viapoints(paths["via"], vias)
    io.write_table(paths["table"], ["a", "b", "c"], rng.normal(size=(3, 3)))
    return {kind: (path, open(path).read()) for kind, path in paths.items()}


LOADERS = {"demo": io.load_demonstration, "via": io.load_viapoints,
           "table": io.read_table,
           "demos": lambda path: io.load_demonstrations(
               [path, path.replace("demos.csv", "demo.csv")])}
CELLS = ["nan", "inf", "-inf", "1e999", "", "x", "0", "2", "-1", "1.5"]
METADATA = ["# format: gplfd-table v1", "# format: gplfd-via v1",
            "# quaternion: xyzw", "# quaternion: zyxw", "# quaternion",
            "#", "", "t,x,y"]
# Keeps the metadata and the header and drops every row.
EMPTY = ("empty",)
MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(["drop", "dup"]), st.integers(0, 3),
              st.integers(0, 9)),
    st.tuples(st.just("set"), st.integers(0, 3), st.integers(0, 9),
              st.sampled_from(CELLS)),
    st.tuples(st.just("scale"), st.integers(0, 3),
              st.sampled_from([0.0, 0.5, 1.001, -1.0, 3.0])),
    st.tuples(st.just("meta"), st.integers(0, 2), st.sampled_from(METADATA)),
    st.tuples(st.just("bytes"), st.integers(0, 1000)),
    st.just(EMPTY))


def _mutate(text, kind, mutation):
    """(mutated bytes, line of the mutated row or None, must it fail?)."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    op = mutation[0]
    if op == "empty":
        # Via-point files and tables may hold no rows. A demonstration
        # without them is refused for too few samples, not as a parse error.
        return "\n".join(lines[:header + 1]).encode(), None, False
    if op in ("meta", "bytes"):
        if op == "meta":
            lines[min(mutation[1], header)] = mutation[2]
            return "\n".join(lines).encode(), None, False
        raw = text.encode()
        pos = mutation[1] % len(raw)
        return raw[:pos] + b"\xff\xfe" + raw[pos:], None, False
    row = header + 1 + mutation[1] % (len(lines) - header - 1)
    cells = lines[row].split(",")
    pose_cols = range(1, 8) if kind != "table" else ()
    if op == "scale":
        if kind == "table":
            return text.encode(), None, False
        for c in range(4, 8):
            cells[c] = repr(float(cells[c]) * mutation[2])
        fails = mutation[2] not in (-1.0,)
    else:
        col = mutation[2] % len(cells)
        if op == "drop":
            del cells[col]
        elif op == "dup":
            cells.insert(col, cells[col])
        else:
            cells[col] = mutation[3]
        fails = (op != "set" or mutation[3] in ("", "x")
                 or (col in pose_cols and mutation[3] in CELLS[:4]))
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode(), row + 1, fails


class TestMutatedFiles:
    @settings(PROPERTY, max_examples=150)
    @given(st.sampled_from(sorted(LOADERS)), MUTATIONS)
    @example("demo", EMPTY)
    @example("demos", EMPTY)
    @example("via", EMPTY)
    @example("table", EMPTY)
    def test_load_or_refuse(self, which, mutation):
        kind = "demo" if which == "demos" else which
        with tempfile.TemporaryDirectory() as out:
            files = _base_files(out)
            raw, lineno, fails = _mutate(files[kind][1], kind, mutation)
            path = f"{out}/{which}.csv"
            with open(path, "wb") as handle:
                handle.write(raw)
            try:
                LOADERS[which](path)
            except ToolkitError as exc:
                # Every via-point row error names its line.
                if fails or isinstance(exc, ParseError) or (
                        kind == "via" and lineno is not None):
                    assert isinstance(exc, ParseError), exc
                    assert lineno is None or exc.line == lineno, exc
            else:
                assert not fails, mutation


# ---------------------------------------------------------------------------
# Property: adapt on a mutated via-point file writes a finite table or exits
# 1 with error:
# ---------------------------------------------------------------------------

VIA_CELLS = ["nan", "inf", "-inf", "1e999", "-1e999", "", "x", "0", "-1",
             "1e-300", "2"]
NON_POSITIVE = ["0", "-0.0", "-1e-4", "-inf"]
VIA_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(["drop", "dup"]), st.integers(0, 2),
              st.integers(0, 9)),
    st.tuples(st.just("set"), st.integers(0, 2), st.integers(0, 9),
              st.sampled_from(VIA_CELLS)),
    st.tuples(st.just("strength"), st.integers(0, 2), st.integers(8, 9),
              st.sampled_from(NON_POSITIVE)),
    st.tuples(st.just("clash"), st.integers(0, 2)),
    st.tuples(st.just("bytes"), st.integers(0, 1000)))


def _mutate_vias(text, mutation):
    """(mutated bytes, must adapt refuse them?) of a via-point file."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    op = mutation[0]
    if op == "bytes":
        raw = text.encode()
        pos = mutation[1] % len(raw)
        return raw[:pos] + b"\xff\xfe" + raw[pos:], False
    row = header + 1 + mutation[1]
    cells = lines[row].split(",")
    if op == "clash":
        # A near-exact twin at the same time, 0.5 m away in x.
        cells[8:] = ["1e-12", "1e-12"]
        twin = [cells[0], repr(float(cells[1]) + 0.5), *cells[2:]]
        lines[row + 1:row + 1] = [",".join(twin)]
    elif op == "drop":
        del cells[mutation[2]]
    elif op == "dup":
        cells.insert(mutation[2], cells[mutation[2]])
    else:
        cells[mutation[2]] = mutation[3]
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode(), op != "set"


class TestMutatedViaPoints:
    @settings(PROPERTY, max_examples=100)
    @given(VIA_MUTATIONS)
    def test_adapt_or_refuse(self, policy_file, mutation):
        with tempfile.TemporaryDirectory() as out:
            rng = np.random.default_rng(3)
            vias = [ViaPoint(t, np.r_[rng.normal(0.0, 0.1, 3),
                                      rng.normal(0.0, 0.3, 3)], 1e-4)
                    for t in (0.2, 0.5, 0.8)]
            path = f"{out}/via.csv"
            io.save_viapoints(path, vias)
            with open(path) as handle:
                raw, fails = _mutate_vias(handle.read(), mutation)
            with open(path, "wb") as handle:
                handle.write(raw)
            code, err = run(["adapt", "--policy", policy_file, "--via", path,
                             "--grid", "7", "--out-dir", out])
            if code == 0:
                _, _, table = io.read_table(f"{out}/adapted.csv")
                assert table.shape == (7, 14) and np.all(np.isfinite(table))
        assert code == 0 or (code == 1 and err.startswith("error:")), err
        assert code == 1 or not fails, mutation


# ---------------------------------------------------------------------------
# Property: align, fit and eval on a mutated demonstration or truth file
# write finite outputs or exit 1 with error:
# ---------------------------------------------------------------------------

# A fit on two short pulls then takes milliseconds.
FIT_TINY = ["--set=policy.grid_size=10", "--set=policy.opt_starts=1",
            "--set=policy.opt_max_iter=5"]
# MUTATIONS, plus a row that repeats the previous row's stamp.
DEMO_MUTATIONS = st.one_of(MUTATIONS,
                           st.tuples(st.just("stamp"), st.integers(1, 3)))


@pytest.fixture(scope="module")
def pull_texts():
    """Texts of three short door pulls: two to fit on, one truth."""
    texts = []
    with tempfile.TemporaryDirectory() as out:
        for k, demo in enumerate(generate_synthetic_door_set(
                seed=0, radii=(0.7, 0.8, 0.9), repeats=1, n_samples=12)):
            io.save_demonstration(f"{out}/pull_{k}.csv", demo)
            with open(f"{out}/pull_{k}.csv") as handle:
                texts.append(handle.read())
    return texts


def _mutate_demo(text, mutation):
    """(mutated bytes, must loading refuse them?) of a demonstration file."""
    if mutation[0] != "stamp":
        raw, _, fails = _mutate(text, "demo", mutation)
        # A trajectory needs two samples.
        return raw, fails or mutation == EMPTY
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines)
               if not line.startswith("#")) + 1 + mutation[1]
    cells = lines[row].split(",")
    cells[0] = lines[row - 1].split(",")[0]
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode(), True


def _write_pulls(out, texts, mutation):
    """Paths of the pulls, the first one mutated; must loading refuse it?"""
    raw, fails = _mutate_demo(texts[0], mutation)
    paths = [f"{out}/pull_{k}.csv" for k in range(len(texts))]
    for path, data in zip(paths, [raw, *(t.encode() for t in texts[1:])]):
        with open(path, "wb") as handle:
            handle.write(data)
    return paths, fails


class TestMutatedDemonstrations:
    @settings(PROPERTY, max_examples=40)
    @given(DEMO_MUTATIONS)
    @example(EMPTY)
    def test_align(self, pull_texts, mutation):
        with tempfile.TemporaryDirectory() as out:
            paths, fails = _write_pulls(out, pull_texts[:2], mutation)
            code, err = run(["align", *paths, "--out-dir", out])
            if code == 0:
                for k in (1, 2):
                    # The loader refuses a non-finite or unordered row.
                    io.load_demonstration(f"{out}/aligned_{k:02d}.csv")
        assert code == 0 or (code == 1 and err.startswith("error:")), err
        assert code == 1 or not fails, mutation

    @settings(PROPERTY, max_examples=30)
    @given(DEMO_MUTATIONS)
    @example(EMPTY)
    def test_fit(self, pull_texts, mutation):
        with tempfile.TemporaryDirectory() as out:
            paths, fails = _write_pulls(out, pull_texts[:2], mutation)
            code, err = run(["fit", *paths, *FIT_TINY, "--out-dir", out])
            if code == 0:
                policy = io.load_policy(f"{out}/policy.json")
                post = policy.demonstration_posterior(policy.grid)
                assert np.all(np.isfinite(post.mean))
                assert np.all(np.isfinite(post.var))
        assert code == 0 or (code == 1 and err.startswith("error:")), err
        assert code == 1 or not fails, mutation

    @settings(PROPERTY, max_examples=40)
    @given(DEMO_MUTATIONS)
    @example(EMPTY)
    def test_eval(self, policy_file, pull_texts, mutation):
        with tempfile.TemporaryDirectory() as out:
            (path,), fails = _write_pulls(out, pull_texts[2:], mutation)
            code, err = run(["eval", "--policy", policy_file, "--truth", path,
                             "--out-dir", out])
            if code == 0:
                _, _, table = io.read_table(f"{out}/eval.csv")
                assert table.shape == (2, 20) and np.all(np.isfinite(table))
        assert code == 0 or (code == 1 and err.startswith("error:")), err
        assert code == 1 or not fails, mutation


# ---------------------------------------------------------------------------
# Property: mutated policy files load or fail with a ToolkitError, and the
# CLI then exits 1 with error:
# ---------------------------------------------------------------------------

# Stands for the literal 1e999, which json.dumps cannot write.
OVERFLOW = "<1e999>"
POLICY_VALUES = [math.nan, math.inf, OVERFLOW, -1.0, 0.0, 1e-200, 1e-9, 1e308,
                 10 ** 400, True, None, "x", [], ["a"], [0.5], {}]
# A key inside the file, by the object that holds it.
POLICY_KEYS = ([("file", k) for k in ("format", "grid", "dims")]
               + [("dim", k) for k in ("name", "signal", "noise")]
               + [("gp", k) for k in ("t", "y", "length_scale", "signal_std",
                                      "knots", "log_variance")])
POLICY_MUTATIONS = st.tuples(
    st.sampled_from(["drop", "dup", "set", "item", "cut", "noise", "big",
                     "overflow"]),
    st.sampled_from(POLICY_KEYS), st.integers(0, 5),
    st.sampled_from(["signal", "noise"]), st.sampled_from(POLICY_VALUES))


def _mutate_policy(mutation):
    """The text of the hand-written policy with one mutation applied.

    A "gp" key names a field of the ``side`` object, the signal GP or the
    noise profile; one the side lacks is added by "set" and "dup" and is
    left alone by "drop" and "item".
    """
    op, (level, key), dim, side, value = mutation
    payload = policy_payload()
    gp = payload["dims"][dim][side]
    node = {"file": payload, "dim": payload["dims"][dim], "gp": gp}[level]
    # The side's own list fields: (inputs, values).
    own = ("t", "y") if side == "signal" else ("knots", "log_variance")
    if op == "drop":
        node.pop(key, None)
    elif op == "dup":
        # Written after the original, so the duplicate's value wins.
        node[key + "\0dup"] = value
    elif op == "set":
        node[key] = value
    elif op == "item" and isinstance(node.get(key), list) and node[key]:
        node[key][0] = value
    elif op == "cut":
        gp[key if key in own else own[1]].pop()
    elif op == "noise":
        # A noise profile: negative, non-finite or mistyped log variances.
        noise = payload["dims"][dim]["noise"]
        noise["log_variance"] = [value] * len(noise["knots"])
    elif op == "big":
        payload["dims"][dim]["signal"].update(gp_entry(MAX_GP_INPUTS + 1))
    elif op == "overflow":
        # Values whose sum or squares overflow, or whose exp does.
        pattern = [[1e308, 1e308, -1e308, 1e308], [1e200, -1e200],
                   [800.0]][dim % 3]
        gp[own[1]] = (pattern * len(gp[own[0]]))[:len(gp[own[0]])]
    text = json.dumps(payload)
    return (text.replace(json.dumps(key + "\0dup"), json.dumps(key))
            .replace(json.dumps(OVERFLOW), "1e999"))


class TestMutatedPolicies:
    @staticmethod
    def load_and_query(mutation) -> int:
        """Exit code of ``query``: 0 with a finite table, or 1 with error:."""
        with tempfile.TemporaryDirectory() as out:
            path = f"{out}/policy.json"
            with open(path, "w") as handle:
                handle.write(_mutate_policy(mutation))
            try:
                io.load_policy(path)
                refused = False
            except ToolkitError:
                refused = True
            code, err = run(["query", "--policy", path, "--grid", "5",
                             "--out-dir", out])
            if code == 0:
                _, _, table = io.read_table(f"{out}/query.csv")
                assert np.all(np.isfinite(table)), mutation
        assert code == 0 or (code == 1 and err.startswith("error:")), err
        assert code == 1 or not refused
        return code

    @settings(PROPERTY, max_examples=150)
    @given(POLICY_MUTATIONS)
    # An integer too large for a float.
    @example(("item", ("gp", "y"), 0, "signal", 10 ** 400))
    def test_load_or_refuse(self, mutation):
        self.load_and_query(mutation)

    @pytest.mark.parametrize("side", ["signal", "noise"])
    @pytest.mark.parametrize("dim", [0, 1, 2])
    def test_overflow_refused(self, dim, side):
        code = self.load_and_query(("overflow", ("gp", "y"), dim, side, None))
        # Targets of 800 are ordinary signal values; only a log variance's
        # exp overflows.
        assert code == (0 if (dim, side) == (2, "signal") else 1)
