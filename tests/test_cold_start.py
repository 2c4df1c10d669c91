"""Cold-start contract: scipy is imported only by the kd-tree (p <= 9).
Importing the package or its CLI loads no scipy module, nor do gpdc, gevc
(with a fixed or a free endpoint) and evm ``fit``/``score`` above the
kd-tree dimension limit. The kd-tree imports scipy on its first build, so
evm loads it below the limit through its margin indexes. The CLI loads the
protocols (``openevt.harness`` and its thread pool) only for ``benchmark``,
and the model modules only when a command fits or loads a model.

Each check runs in a fresh interpreter: this test process has scipy loaded
already."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import openevt

SRC = str(Path(openevt.__file__).resolve().parent.parent)

PRELUDE = """\
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def protocol_modules():
    return sorted({"openevt.harness", "concurrent.futures"} & set(sys.modules))

def model_modules():
    return sorted({"openevt.gpdc", "openevt.gevc", "openevt.evm"} & set(sys.modules))
"""


def run_fresh(code: str, cwd) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_imports_load_no_scipy(tmp_path):
    run_fresh("""
        import openevt
        assert not scipy_modules(), scipy_modules()
        import openevt.cli
        assert not scipy_modules(), scipy_modules()
        assert not protocol_modules(), protocol_modules()
        assert not model_modules(), model_modules()
    """, tmp_path)


@pytest.mark.parametrize("method,extra", [
    ("gpdc", []), ("gevc", []), ("gevc", ["--free-endpoint"]),
    ("evm", ["--delta", "0.5"]),
], ids=["gpdc", "gevc", "gevc-free-endpoint", "evm"])
def test_cli_fit_and_score_above_tree_limit_load_no_scipy(method, extra,
                                                          tmp_path):
    run_fresh(f"""
        import numpy as np
        from openevt import cli, neighbors

        p = 16
        assert p > neighbors.TREE_DIMENSION_LIMIT
        rng = np.random.default_rng(0)
        with open("train.csv", "w") as fh:
            for i, row in enumerate(rng.integers(0, 16, size=(300, p))):
                fh.write(",".join(map(str, row)) + f",c{{i % 3}}\\n")
        np.savetxt("test.csv", rng.integers(0, 20, size=(40, p)), fmt="%d",
                   delimiter=",")
        assert cli.main(["fit", "--method", "{method}", "--train", "train.csv",
                         "--out", "m.model", *{extra!r}]) == 0
        assert cli.main(["score", "--model", "m.model", "--test", "test.csv",
                         "--out", "scores.csv"]) == 0
        assert not scipy_modules(), scipy_modules()
        assert not protocol_modules(), protocol_modules()
    """, tmp_path)


def test_tree_path_imports_cKDTree_on_first_build(tmp_path):
    run_fresh("""
        import numpy as np
        from openevt import NeighborIndex

        index = NeighborIndex(np.random.default_rng(0).normal(size=(50, 2)))
        assert index._tree is not None
        assert index.batch_k_smallest(np.zeros((1, 2)), 3).shape == (1, 3)
        assert "scipy.spatial" in sys.modules
    """, tmp_path)


def test_evm_tree_path_imports_scipy_spatial(tmp_path):
    run_fresh("""
        import numpy as np
        from openevt import evm
        from openevt.data import LabeledDataset

        rng = np.random.default_rng(0)
        points = np.vstack([rng.normal(size=(30, 2)),
                            rng.normal(size=(30, 2)) + 3.0])
        model = evm.fit(LabeledDataset(points, ["a"] * 30 + ["b"] * 30), k=5)
        psi = model.membership_batch(points[:4])
        assert psi.shape == (4,) and np.all((psi > 0) & (psi <= 1))
        assert "scipy.spatial" in sys.modules
    """, tmp_path)
