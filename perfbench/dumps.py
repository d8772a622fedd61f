"""Score dumps for the `dump_eval` workload, generated from a seed by the
benchmark itself, so the inputs do not depend on the code under test.

The format is the one `logitbench` reads: one ``<origin>,<decimal>`` record
per line with 17 significant digits.  Four shapes of score repeat across the
files:

- ``saturated``: like cross-entropy MSP, a large share of both ID and OOD
  rows sit at exactly 1.0, so the metrics meet heavy exact ties;
- ``continuous``: two overlapping normals, like Energy scores;
- ``quantized``: normals rounded to two decimals, ties everywhere;
- ``heavy_tail``: log-normal positives, like GradNorm scores.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SHAPES = ("saturated", "continuous", "quantized", "heavy_tail")
N_FILES = 48
N_ID = 2000
N_OOD = 2000


def _scores(shape: str, rng: np.random.Generator, n_id: int, n_ood: int
            ) -> tuple[np.ndarray, np.ndarray]:
    if shape == "saturated":
        id_scores = 1.0 - 0.5 * rng.beta(0.5, 4.0, n_id)
        ood_scores = rng.uniform(0.2, 1.0, n_ood)
        id_scores[rng.random(n_id) < rng.uniform(0.4, 0.7)] = 1.0
        ood_scores[rng.random(n_ood) < rng.uniform(0.1, 0.4)] = 1.0
        return id_scores, ood_scores
    shift = rng.uniform(0.5, 2.0)
    id_scores = rng.normal(shift, 1.0, n_id)
    ood_scores = rng.normal(0.0, 1.0, n_ood)
    if shape == "continuous":
        return id_scores, ood_scores
    if shape == "quantized":
        return np.round(id_scores, 2), np.round(ood_scores, 2)
    return np.exp(id_scores), np.exp(ood_scores)


def generate(seed: int, n_files: int = N_FILES, n_id: int = N_ID, n_ood: int = N_OOD
             ) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(file name, ID scores, OOD scores) per dump; deterministic in seed."""
    out = []
    for i in range(n_files):
        shape = SHAPES[i % len(SHAPES)]
        rng = np.random.default_rng([seed % 2**64, i])
        id_scores, ood_scores = _scores(shape, rng, n_id, n_ood)
        out.append((f"dump_{i:02d}_{shape}.txt", id_scores, ood_scores))
    return out


def dump_text(id_scores: np.ndarray, ood_scores: np.ndarray, seed: int) -> str:
    """Records in a seeded interleaving of ID and OOD rows."""
    records = ([f"ID,{v:.17g}" for v in id_scores]
               + [f"OOD,{v:.17g}" for v in ood_scores])
    order = np.random.default_rng(seed % 2**64).permutation(len(records))
    return "".join(records[j] + "\n" for j in order)


def write(directory: Path, seed: int, n_files: int = N_FILES) -> list[tuple[Path, np.ndarray, np.ndarray]]:
    """Write the dumps; return (path, ID scores, OOD scores) as they were
    written, i.e. after the round trip through the decimal text."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for i, (name, id_scores, ood_scores) in enumerate(generate(seed, n_files)):
        path = directory / name
        path.write_text(dump_text(id_scores, ood_scores, seed + i))
        written.append((path, *read(path)))
    return written


def read(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a dump into (ID scores, OOD scores); raises ValueError on a
    malformed record."""
    ids, ood = [], []
    for line in Path(path).read_text().splitlines():
        if not line:
            continue
        origin, value = line.split(",")
        if origin == "ID":
            ids.append(float(value))
        elif origin == "OOD":
            ood.append(float(value))
        else:
            raise ValueError(f"{path}: bad origin {origin!r}")
    return np.array(ids), np.array(ood)
