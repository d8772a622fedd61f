"""Byte identity across revisions: the SHA-256 of every file that a fixed
set of commands writes, checked against the committed manifest
tests/output_manifest.json.

The commands run desk seed 0 at 20 epochs (learning-rate drops at 8 and
14): `bench`, `train`, `calibrate`, `sweep-tau --tau-grid 0.04,0.12,1`,
`score` on the `logit_norm` checkpoint of `train`, and `eval` and
`report --bins 50` on a fixed subset of the dumps of `bench`.

The bits depend on the float kernels, so the manifest records the key of
the host that wrote it: the machine, the numpy version and its SIMD
extensions, and the BLAS build with the kernel core it runs. On a host
with another key the test skips and shows both keys; it never passes there.

A change that means to alter output bytes rewrites the manifest with

    PYTHONPATH=src python tests/test_output_bytes.py

and names the files that changed, and why, in CHANGES.md.
"""

import ctypes
import hashlib
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from logitbench.cli import main
from logitbench.harness import config_to_dict
from logitbench.tensor import _openblas_libraries

from conftest import load_desk

MANIFEST = Path(__file__).resolve().parent / "output_manifest.json"

# The dumps `eval` and `report` read: every detector of two losses on one
# OOD set (saturated cross-entropy MSP ties among them), and one detector
# on the other three sets.
DUMPS = ([f"scores_{loss}_{score}_gaussian_noise_0"
          for loss in ("cross_entropy", "logit_norm")
          for score in ("msp", "odin", "energy", "gradnorm")]
         + [f"scores_cross_entropy_msp_{ood}_0"
            for ood in ("uniform_box", "ring", "shifted_blobs")])


def _blas_build() -> str:
    """The bundled OpenBLAS's runtime configuration, which names the kernel
    core it picked for this CPU; numpy's build record without it."""
    for path in _openblas_libraries():
        try:
            get_config = ctypes.CDLL(path).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_config.restype = ctypes.c_char_p
        return get_config().decode()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def host_key() -> dict:
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    return {"machine": platform.machine(), "numpy": np.__version__,
            "simd": " ".join(simd["baseline"] + simd["found"]), "blas": _blas_build()}


def run_commands() -> None:
    """Run every command into the current directory."""
    cfg = load_desk(seeds=(0,), epochs=20, output_dir="out")
    Path("desk20.json").write_text(json.dumps(config_to_dict(cfg)))
    common = ["--config", "desk20.json", "--quiet", "--out"]
    commands = [["bench", *common, "bench"],
                ["train", *common, "train"],
                ["calibrate", *common, "calibrate"],
                ["sweep-tau", "--tau-grid", "0.04,0.12,1", *common, "sweep-tau"],
                ["score", "--checkpoint", "train/checkpoint_logit_norm_0.txt",
                 *common, "score"]]
    os.makedirs("eval")
    os.makedirs("report")
    for dump in DUMPS:
        commands += [["eval", "--scores", f"bench/{dump}.txt", "--out", f"eval/{dump}.csv"],
                     ["report", "--scores", f"bench/{dump}.txt", "--bins", "50",
                      "--out", f"report/{dump}.csv"]]
    for argv in commands:
        assert main(argv) == 0, argv


def output_hashes() -> dict[str, str]:
    """SHA-256 of every output file under the current directory, keyed by
    its relative path; config.json with its output_dir line normalised."""
    hashes = {}
    for root, _, files in os.walk("."):
        for name in files:
            path = os.path.relpath(os.path.join(root, name))
            if path == "desk20.json":
                continue
            data = Path(path).read_bytes()
            if name == "config.json":
                data = re.sub(rb'^(\s*"output_dir": ).*$', rb"\1<output_dir>", data,
                              flags=re.M)
            hashes[path] = hashlib.sha256(data).hexdigest()
    return dict(sorted(hashes.items()))


def test_outputs_match_the_manifest(tmp_path, monkeypatch):
    manifest = json.loads(MANIFEST.read_text())
    key = host_key()
    if manifest["host"] != key:
        pytest.skip(f"the manifest was written on {manifest['host']}; this host is {key}")
    monkeypatch.chdir(tmp_path)
    run_commands()
    got, want = output_hashes(), manifest["files"]

    def status(path):
        return "missing" if path not in got else "new" if path not in want else "changed"

    differ = [f"{path} ({status(path)})" for path in sorted(want.keys() | got.keys())
              if got.get(path) != want.get(path)]
    assert not differ, (f"{len(differ)} of {len(want)} output files differ from "
                        f"{MANIFEST.name}: " + ", ".join(differ))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        run_commands()
        files = output_hashes()
        os.chdir(MANIFEST.parent)
    MANIFEST.write_text(json.dumps({"host": host_key(), "files": files}, indent=1) + "\n")
    print(f"wrote {len(files)} hashes to {MANIFEST}", file=sys.stderr)
