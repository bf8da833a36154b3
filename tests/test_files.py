"""The three file kinds the CLI writes and reads back (MDP, dataset, run):
exact round trips, exact paths, and one rejection per kind of malformed file,
both from the loaders and from the CLI commands that read them; and the
archive reader against numpy's own on archives numpy writes."""

import json
import re
import zipfile
from dataclasses import replace

import numpy as np
import pytest

import fogas
from fogas.cli import main as cli_main
from fogas.linmdp import read_arrays

from conftest import edit_archive, read_archive

KINDS = ("mdp", "dataset", "run")
SAVE = {"mdp": fogas.save_mdp, "dataset": fogas.save_dataset, "run": fogas.save_run}
# Text in the formats of earlier versions, which are no longer read.
OLD_TEXT = {
    "mdp": json.dumps({"num_states": 5, "num_actions": 3, "dim": 4, "gamma": 0.9,
                       "x0": 0, "phi": [], "psi": [], "omega": []}) + "\n",
    "dataset": "x,a,r,x_next\r\n0,0,0.5,1\r\n",
    "run": json.dumps({"config": {"T": 50}, "chosen_index": 1}) + "\n",
}
# Per kind: an entry to drop, an index to store as float, an entry to give the
# wrong shape, a float entry to set NaN in, an entry to store as objects and an
# entry to add. The run file's extra entry is one that earlier versions wrote.
ENTRIES = {
    "mdp": dict(missing="psi", index="x0", shape="omega", nan="psi", objects="phi",
                extra="rewards"),
    "dataset": dict(missing="x_next", index="a", shape="x_next", nan="r", objects="x",
                    extra="features"),
    "run": dict(missing="output_param", index="chosen_index", shape="lambda_final",
                nan="theta_bars", objects="lambdas", extra="config.check_gradient_bound"),
}


def set_nan(entries, name):
    entries[name].flat[0] = np.nan


def edit_members(path, edit) -> None:
    """Apply ``edit`` to the archive's members, a dict of name to stored bytes,
    and write them back as a new archive, whose CRCs match the new bytes."""
    with zipfile.ZipFile(path) as archive:
        members = {info.filename: archive.read(info) for info in archive.infolist()}
    edit(members)
    with zipfile.ZipFile(path, "w") as archive:
        for name, raw in members.items():
            archive.writestr(name, raw)


def flip_bit(path, kind) -> None:
    """Flip the lowest bit of the last float of a float entry in place, so the
    array stays valid and finite but its member no longer matches its CRC."""
    name = ENTRIES[kind]["nan"] + ".npy"
    with zipfile.ZipFile(path) as archive:
        raw = archive.read(name)
    data = bytearray(path.read_bytes())
    data[data.find(raw) + len(raw) - 8] ^= 1
    path.write_bytes(data)


def drop_last_item(members, kind) -> None:
    """One entry's member loses its last 8 bytes, and its header still counts them."""
    name = ENTRIES[kind]["shape"] + ".npy"
    members[name] = members[name][:-8]


CORRUPTIONS = {
    "text": lambda path, kind: path.write_text(OLD_TEXT[kind]),
    "truncated": lambda path, kind: path.write_bytes(path.read_bytes()[:-200]),
    "wrong-kind": lambda path, kind: edit_archive(
        path, lambda e: e.update(kind=np.array("fogas-mdp/1" if kind != "mdp"
                                               else "fogas-run/1"))),
    "missing-entry": lambda path, kind: edit_archive(
        path, lambda e: e.pop(ENTRIES[kind]["missing"])),
    "float-index": lambda path, kind: edit_archive(
        path, lambda e: e.update({ENTRIES[kind]["index"]:
                                  e[ENTRIES[kind]["index"]].astype(np.float64)})),
    "wrong-shape": lambda path, kind: edit_archive(
        path, lambda e: e.update({ENTRIES[kind]["shape"]: e[ENTRIES[kind]["shape"]][:-1]})),
    "nan": lambda path, kind: edit_archive(
        path, lambda e: set_nan(e, ENTRIES[kind]["nan"])),
    "object-array": lambda path, kind: edit_archive(
        path, lambda e: e.update({ENTRIES[kind]["objects"]:
                                  e[ENTRIES[kind]["objects"]].astype(object)})),
    "extra-entry": lambda path, kind: edit_archive(
        path, lambda e: e.update({ENTRIES[kind]["extra"]: np.array(False)})),
    "bad-crc": flip_bit,
    "short-member": lambda path, kind: edit_members(
        path, lambda m: drop_last_item(m, kind)),
    "not-npy": lambda path, kind: edit_members(
        path, lambda m: m.update({ENTRIES[kind]["missing"] + ".npy": b"not an array\n"})),
}


# What each corruption's error message says besides the path.
REASONS = {
    "text": "not a fogas-", "truncated": "not a zip file", "wrong-kind": "kind entry is",
    "missing-entry": "lacks the entry", "float-index": "has dtype float64, expected int64",
    "wrong-shape": "shape|same length", "nan": "is not finite",
    "object-array": "Object arrays cannot be loaded", "extra-entry": "unexpected entries",
    "bad-crc": "Bad CRC-32", "short-member": "but its header promises",
    "not-npy": "a member is not an .npy array",
}


@pytest.fixture
def files(default_mdp, default_dataset, recorded_run, tmp_path):
    """Valid files of each kind in ``tmp_path``."""
    paths = {kind: tmp_path / f"{kind}.npz" for kind in KINDS}
    fogas.save_mdp(default_mdp, paths["mdp"])
    fogas.save_dataset(default_dataset, paths["dataset"])
    fogas.save_run(recorded_run, paths["run"])
    return paths


def load(kind, path, mdp):
    if kind == "mdp":
        return fogas.load_mdp(path)
    if kind == "dataset":
        return fogas.load_dataset(path, mdp)
    return fogas.load_run(path, mdp)


def cli_reading(kind, path, paths):
    """The CLI command that reads ``path`` as a file of ``kind``."""
    if kind == "mdp":
        return ["validate", "--mdp", str(path)]
    if kind == "dataset":
        return ["solve", "--mdp", str(paths["mdp"]), "--data", str(path), "--auto-tune",
                "--T", "5", "--out", str(path.parent / "out.npz")]
    return ["diagnose", "--mdp", str(paths["mdp"]), "--data", str(paths["dataset"]),
            "--run", str(path), "--out", str(path.parent / "gap.csv")]


def bits(arr):
    return np.asarray(arr, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_malformed_file_rejected(files, default_mdp, tmp_path, capsys, kind, corruption):
    """Each malformed file fails its loader with a ValueError naming the path,
    and the CLI command reading it exits 1 with that message."""
    path = tmp_path / "bad.npz"
    path.write_bytes(files[kind].read_bytes())
    load(kind, path, default_mdp)  # the unedited copy loads
    CORRUPTIONS[corruption](path, kind)
    with pytest.raises(ValueError, match=re.escape(str(path))) as error:
        load(kind, path, default_mdp)
    assert re.search(REASONS[corruption], str(error.value))
    capsys.readouterr()
    assert cli_main(cli_reading(kind, path, files)) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("kind", KINDS)
def test_non_path_refused(default_mdp, kind):
    """A path that is not a str or os.PathLike is refused before any file is
    opened: ``open`` would take an integer for a file descriptor (0 reads,
    then closes, standard input)."""
    for path in (0, True, None, 1.5):
        with pytest.raises(ValueError, match=f"^path must be a file path, got {path!r}$"):
            load(kind, path, default_mdp)


def test_mdp_round_trip_bitwise(default_mdp, tmp_path):
    """A -0.0 and a subnormal keep their bits in every array of the MDP."""
    phi, omega = default_mdp.phi.copy(), default_mdp.omega.copy()
    phi[0, 0], phi[1, 1], omega[0] = -0.0, 5e-324, -0.0
    mdp = fogas.LinearMdp(num_states=5, num_actions=3, dim=4, phi=phi,
                          psi=default_mdp.psi, omega=omega, gamma=0.9, x0=2)
    path = tmp_path / "mdp.npz"
    fogas.save_mdp(mdp, path)
    loaded = fogas.load_mdp(path)
    for name in ("phi", "psi", "omega"):
        assert np.array_equal(bits(getattr(loaded, name)), bits(getattr(mdp, name)))
    assert (loaded.num_states, loaded.num_actions, loaded.dim, loaded.gamma, loaded.x0) == (
        5, 3, 4, 0.9, 2)


def test_run_round_trip_bitwise(default_mdp, recorded_run, tmp_path):
    """The config's floats and every array keep their bits, -0.0 and
    subnormals included."""
    lambdas = recorded_run.trajectory.lambdas.copy()
    lambdas[0, 0], lambdas[1, 1] = -0.0, 5e-324
    run = replace(
        recorded_run,
        config=replace(recorded_run.config, alpha=5e-324, rho=-0.0, eta=1.0 / 3.0),
        lambda_final=np.array([-0.0, 5e-324, 1e300, 0.1]),
        trajectory=replace(recorded_run.trajectory, lambdas=lambdas),
    )
    path = tmp_path / "run.npz"
    fogas.save_run(run, path)
    loaded = fogas.load_run(path, default_mdp)
    assert loaded.config == run.config
    for name in ("alpha", "rho", "eta"):
        assert bits(getattr(loaded.config, name)) == bits(getattr(run.config, name))
    assert loaded.chosen_index == run.chosen_index
    for name in ("lambda_final", "theta_bar_final", "output_param"):
        assert np.array_equal(bits(getattr(loaded, name)), bits(getattr(run, name)))
    for name in ("lambdas", "thetas", "theta_bars", "phi_mu_hats", "g_lambdas",
                 "grad_sq_norms"):
        assert np.array_equal(bits(getattr(loaded.trajectory, name)),
                              bits(getattr(run.trajectory, name)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["plain", "file.json", "file.csv"])
def test_written_at_exact_path(default_mdp, default_dataset, recorded_run, tmp_path,
                               kind, name):
    """A path without the .npz suffix is written as given, with no suffix added."""
    obj = {"mdp": default_mdp, "dataset": default_dataset, "run": recorded_run}[kind]
    SAVE[kind](obj, tmp_path / name)
    assert [p.name for p in tmp_path.iterdir()] == [name]
    load(kind, tmp_path / name, default_mdp)


# Archives that numpy writes, each with a fogas-test/1 kind entry: np.savez,
# np.savez_compressed, a Fortran-ordered member and a version 2.0 header.
ARRAYS = {
    "phi": np.arange(24.0).reshape(4, 6) / 7.0,
    "cube": np.linspace(-1.0, 1.0, 60).reshape(3, 4, 5),
    "index": np.arange(9, dtype=np.int64) - 4,
    "flag": np.array(True),
    "gamma": np.array(0.9),
    "empty": np.empty((0, 3)),
}
SPEC = {name: (arr.dtype.type, arr.ndim) for name, arr in ARRAYS.items()}


def write_version_2(path, **arrays) -> None:
    with zipfile.ZipFile(path, "w") as archive:
        for name, arr in arrays.items():
            with archive.open(name + ".npy", "w") as f:
                np.lib.format.write_array(f, arr, version=(2, 0))


WRITERS = {
    "savez": lambda path, **arrays: np.savez(path, **arrays),
    "savez_compressed": lambda path, **arrays: np.savez_compressed(path, **arrays),
    "fortran": lambda path, **arrays: np.savez(
        path, **{name: np.asfortranarray(arr) if arr.ndim > 1 else arr
                 for name, arr in arrays.items()}),
    "version_2": write_version_2,
}


@pytest.mark.parametrize("writer", WRITERS)
def test_reader_matches_numpy(tmp_path, writer):
    """``read_arrays`` returns numpy's arrays bit for bit, in numpy's memory
    order, each read-only and aligned."""
    path = tmp_path / "archive.npz"
    WRITERS[writer](path, kind=np.array("fogas-test/1"), **ARRAYS)
    want = read_archive(path)
    if writer == "fortran":
        assert want["phi"].flags.f_contiguous and not want["phi"].flags.c_contiguous
    with read_arrays(path, "test", SPEC) as arrays:
        assert sorted(arrays) == sorted(ARRAYS)
        for name, arr in arrays.items():
            assert arr.dtype == want[name].dtype and arr.shape == want[name].shape
            assert arr.tobytes() == want[name].tobytes()
            assert arr.flags.f_contiguous == want[name].flags.f_contiguous
            assert arr.flags.aligned and not arr.flags.writeable


def test_reader_refuses_other_npy_versions(tmp_path):
    """A version 3.0 header (utf-8 field names) is refused, naming the member."""
    path = tmp_path / "archive.npz"
    with zipfile.ZipFile(path, "w") as archive:
        for name, arr in {"kind": np.array("fogas-test/1"), "gamma": ARRAYS["gamma"]}.items():
            with archive.open(name + ".npy", "w") as f:
                np.lib.format.write_array(f, arr, version=(3, 0) if name == "gamma" else None)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: gamma has .npy format version (3, 0), expected 1.0 or 2.0")):
        with read_arrays(path, "test", {"gamma": SPEC["gamma"]}):
            pass
