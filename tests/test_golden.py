"""Golden outputs: the benchmark workloads' cells at two seeds, pinned.

Each cell runs through ``harness.run_cell`` on a generator-seed-0 MDP. Its
dataset must hash to the stored SHA-256 per column and its T and J must match
exactly; ``lambda_final``, ``theta_bar_final`` and the mean-iterate
suboptimality must match within ``GOLDEN_RTOL``, because the vector ``exp``
differs between platforms. numpy may change its random streams between
versions (NEP 19), so the file holds one entry per numpy major.minor and the
test skips on a version it does not hold. A change that means to alter
outputs rewrites this version's entry:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fogas import harness
from fogas.linmdp import generate_linear_mdp

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_RTOL = 1e-13
NUMPY_VERSION = ".".join(np.__version__.split(".")[:2])
SEEDS = (0, 1)
# The cells of benchmarks/workloads.py; cli-chain's collect and solve, as one cell.
CELLS = {
    "sweep-small n=256": dict(states=5, actions=3, dim=4, behavior="uniform",
                              sampling_mode="uniform", n=256,
                              fogas={"auto_tune": True, "T_cap": 20000}),
    "sweep-small n=16384": dict(states=5, actions=3, dim=4, behavior="uniform",
                                sampling_mode="uniform", n=16384,
                                fogas={"auto_tune": True, "T_cap": 20000}),
    "sweep-large-state": dict(states=1000, actions=4, dim=8, behavior="eps:0.5",
                              sampling_mode="occupancy", n=20000,
                              fogas={"auto_tune": True, "T": 20}),
    "cli-chain": dict(states=100, actions=4, dim=8, behavior="uniform",
                      sampling_mode="uniform", n=50000, fogas={"auto_tune": True, "T": 2000}),
}
# Dataset columns, hashed at a fixed dtype so that a dtype change alone is no change.
COLUMNS = {"x": ("xs", np.int64), "a": ("actions", np.int64), "r": ("rewards", np.float64),
           "x_next": ("x_nexts", np.int64)}
FLOATS = ("lambda_final", "theta_bar_final", "mean_suboptimality")


def cell_outputs(cell: dict, seed: int) -> dict:
    """The golden values of one cell at one seed; floats as ``float.hex``."""
    mdp = generate_linear_mdp(cell["states"], cell["actions"], cell["dim"], 0.9, 0)
    behavior = harness.behavior_policy(mdp, cell["behavior"])
    datasets = []

    def keep(*args, **kwargs):
        datasets.append(collect(*args, **kwargs))
        return datasets[-1]

    collect = harness.collect_dataset
    with mock.patch.object(harness, "collect_dataset", keep):
        record, run = harness.run_cell(mdp, behavior, cell["sampling_mode"], cell["n"], seed,
                                       cell["fogas"])
    (dataset,) = datasets
    out = {key: hashlib.sha256(np.ascontiguousarray(getattr(dataset, name), dtype).tobytes())
           .hexdigest() for key, (name, dtype) in COLUMNS.items()}
    return {**out, "T": record.T, "chosen_index": int(run.chosen_index),
            "lambda_final": [float(v).hex() for v in run.lambda_final],
            "theta_bar_final": [float(v).hex() for v in run.theta_bar_final],
            "mean_suboptimality": float(record.mean_suboptimality).hex()}


def golden_entries() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CELLS)
def test_cell_matches_golden(name, seed):
    entries = golden_entries()
    if NUMPY_VERSION not in entries:
        pytest.skip(f"{GOLDEN_PATH.name} holds no outputs for numpy {NUMPY_VERSION} "
                    f"(it holds {sorted(entries)})")
    expected = entries[NUMPY_VERSION][f"{name} seed={seed}"]
    actual = cell_outputs(CELLS[name], seed)
    for key in (*COLUMNS, "T", "chosen_index"):
        assert actual[key] == expected[key], key
    for key in FLOATS:
        got, want = (np.array([float.fromhex(v) for v in np.atleast_1d(values)])
                     for values in (actual[key], expected[key]))
        np.testing.assert_allclose(got, want, rtol=GOLDEN_RTOL, atol=0, err_msg=key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    entries = golden_entries()
    entries[NUMPY_VERSION] = {f"{name} seed={seed}": cell_outputs(cell, seed)
                              for name, cell in CELLS.items() for seed in SEEDS}
    GOLDEN_PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries[NUMPY_VERSION])} cells for numpy {NUMPY_VERSION} "
          f"to {GOLDEN_PATH}")
