"""File formats for demonstrations, via-points, tables, policies, manifests.

Everything textual: comma-separated columns with '#'-prefixed metadata
lines, JSON for structured records. Floats are written with repr so a
save/load round trip reproduces the exact double. Manifests carry no
timestamps; re-running a command from its manifest must reproduce outputs
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .alignment import Trajectory
from .errors import FormatError, InvalidInputError, ParseError
# fit_gp is imported for the benchmark's tracer, which wraps it here.
from .gp import HeteroGPModel, KernelParams, TrainingSet, fit_gp  # noqa: F401
from .policy import DIM_NAMES, TaskPolicy, ViaPoint
from .se3 import pose_rows, quaternions_of, rotvecs_from_quaternions

FORMAT_DEMO = "gplfd-demo v1"
FORMAT_VIA = "gplfd-via v1"
FORMAT_TABLE = "gplfd-table v1"
FORMAT_POLICY = "gplfd-policy v2"
FORMAT_MANIFEST = "gplfd-manifest v1"

_DEMO_HEADER = ["t", "x", "y", "z", "qw", "qx", "qy", "qz"]
_VIA_HEADER = _DEMO_HEADER + ["position_strength", "rotation_strength"]
_QUAT_ORDERS = ("wxyz", "xyzw")


def _write_columnar(path, fmt_tag, metadata, header, rows):
    lines = [f"# format: {fmt_tag}"]
    for key, value in metadata.items():
        lines.append(f"# {key}: {value}")
    lines.append(",".join(header))
    for row in np.asarray(rows, dtype=float).tolist():
        lines.append(",".join(map(repr, row)))
    Path(path).write_text("\n".join(lines) + "\n")


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from None


def read_json(path):
    """Parse a UTF-8 JSON document, refusing a malformed one with FormatError."""
    text = _read_text(path)
    # ValueError also covers integers longer than Python parses, and
    # RecursionError arrays nested too deep.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: not a JSON document ({exc})") from None


def canonical_sha256(payload: dict) -> str:
    """SHA-256 of the key-sorted, whitespace-free JSON form of a document."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _read_columnar(path, fmt_tag, width=None):
    """(metadata, header, float rows, line numbers) of a columnar file.

    Checks the format tag; each row needs ``width`` cells, the header's by
    default, and a bad one raises ParseError at its line.
    """
    metadata, header, cells = {}, None, []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if header is not None:
                raise ParseError("metadata after the header row", line=lineno)
            body = line.lstrip("#").strip()
            if ":" not in body:
                raise ParseError("metadata line is not 'key: value'", line=lineno)
            key, value = body.split(":", 1)
            metadata[key.strip()] = value.strip()
        elif header is None:
            header = [cell.strip() for cell in line.split(",")]
        else:
            cells.append((lineno, line.split(",")))
    if header is None:
        raise FormatError(f"{path}: no header row")
    found = metadata.get("format")
    if found != fmt_tag:
        raise FormatError(f"{path}: expected format {fmt_tag!r}, found {found!r}")
    width = width or len(header)
    rows = np.empty((len(cells), width))
    for k, (lineno, row) in enumerate(cells):
        if len(row) != width:
            raise ParseError(f"expected {width} columns, found {len(row)}",
                             line=lineno)
        try:
            rows[k] = [float(cell) for cell in row]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return metadata, header, rows, [lineno for lineno, _ in cells]


def _quaternion_order(metadata, path):
    order = metadata.get("quaternion")
    if order not in _QUAT_ORDERS:
        raise FormatError(f"{path}: unsupported quaternion convention {order!r}")
    return order


def _pose_rows(path, metadata, rows, lines) -> np.ndarray:
    """Pose rows of position and quaternion columns; a bad one names its line."""
    quat = rows[:, 3:7]
    if _quaternion_order(metadata, path) == "xyzw":
        quat = quat[:, [3, 0, 1, 2]]
    try:
        return pose_rows(np.hstack([rows[:, :3],
                                    rotvecs_from_quaternions(quat)]))
    except InvalidInputError as exc:
        raise ParseError(str(exc), line=lines[exc.row]) from None


# ---------------------------------------------------------------------------
# Demonstrations
# ---------------------------------------------------------------------------

def save_demonstration(path, traj: Trajectory, frame: str = "task") -> None:
    samples = traj.samples
    rows = np.hstack([traj.stamps[:, None], samples[:, :3],
                      quaternions_of(samples[:, 3:])])
    _write_columnar(path, FORMAT_DEMO,
                    {"frame": frame, "quaternion": "wxyz"},
                    _DEMO_HEADER, rows)


def _demonstration(path, metadata, header, rows, lines) -> Trajectory:
    return Trajectory(rows[:, 0], _pose_rows(path, metadata, rows[:, 1:], lines))


def load_demonstration(path) -> Trajectory:
    return _demonstration(path, *_read_columnar(path, FORMAT_DEMO,
                                                len(_DEMO_HEADER)))


def load_demonstrations(paths) -> list:
    """Load demonstration files, each read once, all headers checked first."""
    files = [(path, _read_columnar(path, FORMAT_DEMO, len(_DEMO_HEADER)))
             for path in paths]
    orders = {_quaternion_order(file[0], path) for path, file in files}
    if len(orders) > 1:
        raise FormatError("mixed quaternion conventions across demonstration "
                          f"files: {sorted(orders)}")
    return [_demonstration(path, *file) for path, file in files]


# ---------------------------------------------------------------------------
# Via-points
# ---------------------------------------------------------------------------

def save_viapoints(path, vias) -> None:
    rows = []
    for k, via in enumerate(vias):
        # The file has one position and one rotation strength column.
        if np.ptp(via.strength[:3]) or np.ptp(via.strength[3:]):
            raise InvalidInputError(f"via-point {k} at t={via.time!r} has "
                                    "unequal per-axis strengths")
        rows.append([via.time, *via.pose[:3], *quaternions_of(via.pose[3:]),
                     via.strength[0], via.strength[3]])
    _write_columnar(path, FORMAT_VIA, {"quaternion": "wxyz"},
                    _VIA_HEADER, rows)


def load_viapoints(path) -> list:
    metadata, _, rows, lines = _read_columnar(path, FORMAT_VIA,
                                              len(_VIA_HEADER))
    poses = _pose_rows(path, metadata, rows[:, 1:8], lines)
    vias = []
    for lineno, values, pose in zip(lines, rows, poses):
        try:
            vias.append(ViaPoint(float(values[0]), pose,
                                 np.repeat(values[8:], 3)))
        except InvalidInputError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return vias


# ---------------------------------------------------------------------------
# Generic tables and simulation traces
# ---------------------------------------------------------------------------

def write_table(path, header, rows, metadata=None) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size and rows.shape[1] != len(header):
        raise FormatError("table rows do not match the header width")
    _write_columnar(path, FORMAT_TABLE, dict(metadata or {}), list(header), rows)


def read_table(path):
    """Returns (metadata, header, float array of shape (rows, columns))."""
    metadata, header, rows, _ = _read_columnar(path, FORMAT_TABLE)
    return metadata, header, rows


def save_trace(path, trace) -> None:
    """Columnar dump of a simulation trace, one block of 6 axes per signal."""
    header = ["t"]
    blocks = [("e", trace.error), ("de", trace.rate), ("kp", trace.stiffness),
              ("d", trace.damping), ("F", trace.force), ("sigma", trace.sigma)]
    for tag, _ in blocks:
        header.extend(f"{tag}_{name}" for name in DIM_NAMES)
    rows = np.hstack([trace.times[:, None]] + [arr for _, arr in blocks])
    write_table(path, header, rows, {"inertia": repr(float(trace.inertia))})


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def _numbers(value, where) -> np.ndarray:
    """A JSON list of numbers as a float array (bools and strings refused)."""
    if not (isinstance(value, list)
            and all(type(v) in (int, float) for v in value)):
        raise FormatError(f"{where} must be a list of numbers")
    try:
        return np.array(value, dtype=float)
    except OverflowError:
        raise FormatError(f"{where} holds a number out of range") from None


def _number(value, where) -> float:
    if type(value) not in (int, float):
        raise FormatError(f"{where} must be a number")
    return float(_numbers([value], where)[0])


def _fields(payload, keys, where) -> dict:
    if not isinstance(payload, dict):
        raise FormatError(f"{where} must be an object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise FormatError(f"{where} lacks {', '.join(missing)}")
    return payload


def _dim_restore(entry, where) -> HeteroGPModel:
    entry = _fields(entry, ("signal", "noise"), where)
    signal = _fields(entry["signal"], ("t", "y", "length_scale", "signal_std"),
                     f"{where}.signal")
    noise = _fields(entry["noise"], ("knots", "log_variance"), f"{where}.noise")
    train = TrainingSet(_numbers(signal["t"], f"{where}.signal.t"),
                        _numbers(signal["y"], f"{where}.signal.y"))
    params = KernelParams(
        _number(signal["length_scale"], f"{where}.signal.length_scale"),
        _number(signal["signal_std"], f"{where}.signal.signal_std"))
    return HeteroGPModel.fit(
        train, params, _numbers(noise["knots"], f"{where}.noise.knots"),
        _numbers(noise["log_variance"], f"{where}.noise.log_variance"))


def save_policy(path, policy: TaskPolicy) -> None:
    """Write a policy: per dimension its training set, kernel and noise
    knots; loading recomputes the per-point noise from the knots."""
    dims = []
    for name, dim in zip(DIM_NAMES, policy.dims):
        signal = dim.signal_gp
        dims.append({"name": name,
                     "signal": {"t": signal.train.t.tolist(),
                                "y": signal.train.y.tolist(),
                                "length_scale": float(dim.params.length_scale),
                                "signal_std": float(dim.params.signal_std)},
                     "noise": {"knots": dim.knots.tolist(),
                               "log_variance": dim.log_variance.tolist()}})
    payload = {"format": FORMAT_POLICY,
               "grid": policy.grid.tolist(),
               "dims": dims}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_policy(path) -> TaskPolicy:
    """Read a policy file, refusing a malformed one with FormatError."""
    payload = read_json(path)
    found = payload.get("format") if isinstance(payload, dict) else None
    if found == "gplfd-policy v1":
        raise FormatError(f"{path}: a gplfd-policy v1 file, whose noise "
                          "model is gone; refit the policy with 'gplfd fit'")
    if found != FORMAT_POLICY:
        raise FormatError(f"{path}: not a {FORMAT_POLICY} file")
    _fields(payload, ("grid", "dims"), str(path))
    entries = payload["dims"]
    if not isinstance(entries, list) or len(entries) != len(DIM_NAMES):
        raise FormatError(f"{path}: dims must list {len(DIM_NAMES)} models")
    dims = [_dim_restore(entry, f"{path}: dims.{name}")
            for name, entry in zip(DIM_NAMES, entries)]
    return TaskPolicy(dims=tuple(dims),
                      grid=_numbers(payload["grid"], f"{path}: grid"))


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------

def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# Thread settings of the BLAS builds numpy and scipy may load; the thread
# count can change a fit's last bits, and with them the outputs' hashes.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def _blas_build(module) -> str | None:
    """'name version' of the BLAS a module was built against, if it says."""
    try:
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # builds older than numpy 1.25 and scipy 1.11
        return None
    blas = deps.get("blas")
    return f"{blas.get('name')} {blas.get('version')}" if blas else None


def _versions() -> dict:
    import numpy
    import scipy

    from . import __version__

    return {"python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "gplfd": __version__,
            "blas": {m.__name__: _blas_build(m) for m in (numpy, scipy)},
            "threads": {name: os.environ.get(name)
                        for name in _THREAD_VARIABLES}}


def write_manifest(path, command: str, config: dict, inputs, outputs,
                   arguments=None) -> None:
    """Record everything needed to reproduce a command's outputs.

    ``arguments`` carries command-line extras that live outside the config
    (file names, query grids). No timestamps by design: two runs of the
    same command from the same manifest must produce identical manifests.
    ``versions`` also records the BLAS builds and the BLAS thread settings
    (null when unset), which can change a fit's last bits.
    """
    manifest = {
        "format": FORMAT_MANIFEST,
        "command": command,
        "seed": config.get("seed"),
        "config": config,
        "config_sha256": canonical_sha256(config),
        "arguments": dict(arguments or {}),
        "inputs": {str(p): file_sha256(p) for p in inputs},
        "outputs": {str(p): file_sha256(p) for p in outputs},
        "versions": _versions(),
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    manifest = read_json(path)
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_MANIFEST:
        raise FormatError(f"{path}: not a {FORMAT_MANIFEST} file")
    return manifest
