"""Malformed config values, arguments and files end in ``error:`` and exit 1.

Every value here is refused before anything sized by it is allocated.
"""

import contextlib
import io as stdio
import json
import math
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gplfd import (FormatError, ParseError, RunConfig, config_sha256, io,
                   load_config)
from gplfd.admittance import MAX_SIM_STEPS
from gplfd.cli import MAX_QUERY_POINTS, main
from gplfd.config import apply_overrides, config_from_dict
from gplfd.policy import MAX_GRID_SIZE
from gplfd.synthetic import MAX_DOOR_SAMPLES


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
            "61314de05b399c4f75af9d694a24266d878d1759f37db61605e0870a5ab730b4")
        assert config_from_dict(RunConfig().to_dict()) == RunConfig()

    def test_lists_become_float_tuples(self):
        payload = apply_overrides({}, ["data.radii=[1, 2]",
                                       "policy.noise_std_bounds=[1e-6, 1]"])
        config = config_from_dict(payload)
        assert config.data.radii == (1.0, 2.0)
        assert all(type(r) is float for r in config.data.radii)
        assert config.policy.noise_std_bounds == (1e-6, 1.0)

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
        ["--grid", "0"], ["--grid", str(MAX_QUERY_POINTS + 1)]])
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

    @pytest.mark.parametrize("payload", [b"[1, 2]", b"\xff", b"[" * 100000],
                             ids=["list", "not-utf-8", "nested-too-deep"])
    def test_manifest_not_an_object(self, tmp_path, payload):
        path = tmp_path / "run.manifest.json"
        path.write_bytes(payload)
        with pytest.raises(FormatError):
            io.read_manifest(path)


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
