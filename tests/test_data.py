"""Dataset generator, label corruption, split, and delimited-file tests."""

import numpy as np
import pytest

from logitbench.data import (LabeledDataset, OodDataset, corrupt_labels,
                             gen_blobs, gen_ood, load_delimited,
                             save_delimited, split)
from logitbench.errors import ConfigError, DataError
from logitbench.tensor import Matrix2D


# ---------------------------------------------------------------------------
# dataset types


def test_labeled_dataset_validation():
    feats = Matrix2D(np.zeros((3, 2)))
    with pytest.raises(DataError):
        LabeledDataset(feats, np.array([0, 1]), 2, "t")  # wrong length
    with pytest.raises(DataError):
        LabeledDataset(feats, np.array([0, 1, 2]), 2, "t")  # out of range
    ds = LabeledDataset(feats, np.array([0, 1, 1]), 2, "t")
    assert (ds.n, ds.dim) == (3, 2)
    with pytest.raises(ValueError):
        ds.labels[0] = 1  # labels are read-only


# ---------------------------------------------------------------------------
# blobs


def test_gen_blobs_shapes_and_labels():
    ds = gen_blobs(k=3, d=5, n_per_class=10, cluster_spread=1.0,
                   cluster_radius=2.0, seed=0)
    assert (ds.n, ds.dim, ds.k) == (30, 5, 3)
    assert np.array_equal(np.bincount(ds.labels), [10, 10, 10])


def test_gen_blobs_zero_spread_collapses_to_means():
    ds = gen_blobs(k=4, d=3, n_per_class=5, cluster_spread=0.0,
                   cluster_radius=3.0, seed=1)
    for c in range(4):
        rows = ds.features.data[ds.labels == c]
        assert np.allclose(rows, rows[0])
        assert np.linalg.norm(rows[0]) == pytest.approx(3.0, abs=1e-9)


def test_gen_blobs_deterministic():
    a = gen_blobs(3, 4, 7, 0.5, 2.0, seed=42)
    b = gen_blobs(3, 4, 7, 0.5, 2.0, seed=42)
    c = gen_blobs(3, 4, 7, 0.5, 2.0, seed=43)
    assert np.array_equal(a.features.data, b.features.data)
    assert not np.array_equal(a.features.data, c.features.data)


def test_gen_blobs_wide_separation_is_linearly_clusterable():
    # With radius >> spread, nearest-mean assignment recovers the labels.
    ds = gen_blobs(k=3, d=8, n_per_class=50, cluster_spread=0.2,
                   cluster_radius=10.0, seed=2)
    means = np.stack([ds.features.data[ds.labels == c].mean(axis=0)
                      for c in range(3)])
    dists = np.linalg.norm(ds.features.data[:, None, :] - means[None], axis=2)
    assert (np.argmin(dists, axis=1) == ds.labels).all()


def test_gen_blobs_validation():
    with pytest.raises(ConfigError):
        gen_blobs(1, 4, 10, 1.0, 1.0, seed=0)
    with pytest.raises(ConfigError):
        gen_blobs(3, 4, 0, 1.0, 1.0, seed=0)


# ---------------------------------------------------------------------------
# OOD generators


def test_gen_ood_uniform_box_bounds():
    ds = gen_ood("uniform_box", d=4, m=500, params={"half_width": 2.5}, seed=0)
    assert ds.features.data.min() >= -2.5
    assert ds.features.data.max() <= 2.5
    assert (ds.n, ds.dim) == (500, 4)


def test_gen_ood_gaussian_noise_moments():
    ds = gen_ood("gaussian_noise", d=6, m=5000, params={"mean": 1.0, "std": 2.0},
                 seed=1)
    assert ds.features.data.mean() == pytest.approx(1.0, abs=0.1)
    assert ds.features.data.std() == pytest.approx(2.0, abs=0.1)


def test_gen_ood_ring_radii():
    ds = gen_ood("ring", d=5, m=1000, params={"radius": 4.0, "jitter": 0.1}, seed=2)
    radii = np.linalg.norm(ds.features.data, axis=1)
    assert radii.mean() == pytest.approx(4.0, abs=0.05)
    assert radii.std() == pytest.approx(0.1, abs=0.05)


def test_ring_far_outside_blobs():
    # A ring at 10x the blob radius stays far from every training point.
    radius = 2.0
    blobs = gen_blobs(k=4, d=6, n_per_class=50, cluster_spread=0.5,
                      cluster_radius=radius, seed=3)
    ring = gen_ood("ring", d=6, m=200, params={"radius": 10 * radius}, seed=4)
    dists = np.linalg.norm(
        ring.features.data[:, None, :] - blobs.features.data[None], axis=2)
    assert dists.min() > 5 * radius


def test_gen_ood_shifted_blobs():
    ds = gen_ood("shifted_blobs", d=4, m=100,
                 params={"k": 5, "cluster_radius": 2.0, "cluster_spread": 0.5,
                         "shift": 1.0}, seed=5)
    assert (ds.n, ds.dim) == (100, 4)


def test_gen_ood_unknown_kind():
    with pytest.raises(ConfigError):
        gen_ood("speckle", d=4, m=10, seed=0)


def test_gen_ood_unknown_param():
    with pytest.raises(ConfigError):
        gen_ood("ring", d=4, m=10, params={"radius": 1.0, "wobble": 2.0}, seed=0)


def test_gen_ood_deterministic():
    a = gen_ood("gaussian_noise", d=3, m=20, seed=9)
    b = gen_ood("gaussian_noise", d=3, m=20, seed=9)
    assert np.array_equal(a.features.data, b.features.data)


# ---------------------------------------------------------------------------
# label corruption


def test_corrupt_labels_fraction_and_disagreement():
    ds = gen_blobs(k=5, d=4, n_per_class=100, cluster_spread=1.0,
                   cluster_radius=2.0, seed=6)
    noisy = corrupt_labels(ds, 0.2, seed=7)
    changed = noisy.labels != ds.labels
    assert changed.sum() == int(0.2 * ds.n)
    # every flipped label lands on a different class, still in range
    assert noisy.labels.min() >= 0 and noisy.labels.max() < 5
    assert np.array_equal(noisy.features.data, ds.features.data)


def test_corrupt_labels_zero_fraction_is_identity():
    ds = gen_blobs(k=3, d=4, n_per_class=10, cluster_spread=1.0,
                   cluster_radius=2.0, seed=8)
    assert corrupt_labels(ds, 0.0, seed=1) is ds


def test_corrupt_labels_deterministic():
    ds = gen_blobs(k=3, d=4, n_per_class=50, cluster_spread=1.0,
                   cluster_radius=2.0, seed=9)
    a = corrupt_labels(ds, 0.3, seed=10)
    b = corrupt_labels(ds, 0.3, seed=10)
    c = corrupt_labels(ds, 0.3, seed=11)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.labels, c.labels)


def test_corrupt_labels_validation():
    ds = gen_blobs(k=3, d=4, n_per_class=10, cluster_spread=1.0,
                   cluster_radius=2.0, seed=12)
    with pytest.raises(ConfigError):
        corrupt_labels(ds, 1.0, seed=0)
    with pytest.raises(ConfigError):
        corrupt_labels(ds, -0.1, seed=0)


# ---------------------------------------------------------------------------
# split


def test_split_sizes_and_disjointness():
    ds = gen_blobs(k=4, d=3, n_per_class=50, cluster_spread=1.0,
                   cluster_radius=2.0, seed=13)
    train, test = split(ds, (0.8, 0.2), seed=14)
    assert train.n == 160 and test.n == 40
    # stratified: every class keeps its proportion exactly
    assert np.array_equal(np.bincount(train.labels), [40] * 4)
    assert np.array_equal(np.bincount(test.labels), [10] * 4)
    # disjoint: no shared feature rows
    train_rows = {tuple(r) for r in train.features.data}
    test_rows = {tuple(r) for r in test.features.data}
    assert not train_rows & test_rows
    assert len(train_rows | test_rows) == ds.n


def test_split_validation():
    ds = gen_blobs(k=3, d=3, n_per_class=10, cluster_spread=1.0,
                   cluster_radius=2.0, seed=15)
    with pytest.raises(ConfigError):
        split(ds, (0.5, 0.4), seed=0)
    with pytest.raises(ConfigError):
        split(ds, (1.0, 0.0), seed=0)


def test_split_needs_two_per_class():
    ds = LabeledDataset(Matrix2D(np.arange(6.0).reshape(3, 2)),
                        np.array([0, 0, 1]), 2, "t")
    with pytest.raises(DataError):
        split(ds, (0.5, 0.5), seed=0)


def test_split_deterministic():
    ds = gen_blobs(k=3, d=3, n_per_class=20, cluster_spread=1.0,
                   cluster_radius=2.0, seed=16)
    a, _ = split(ds, (0.8, 0.2), seed=17)
    b, _ = split(ds, (0.8, 0.2), seed=17)
    assert np.array_equal(a.features.data, b.features.data)


# ---------------------------------------------------------------------------
# delimited files


def test_save_load_labeled_round_trip(tmp_path):
    ds = gen_blobs(k=3, d=4, n_per_class=5, cluster_spread=1.0,
                   cluster_radius=2.0, seed=18)
    path = tmp_path / "labeled.csv"
    save_delimited(ds, path)
    loaded = load_delimited(path, has_label=True, k=3)
    assert np.array_equal(loaded.features.data, ds.features.data)
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.k == 3


def test_save_load_ood_round_trip(tmp_path):
    ds = gen_ood("gaussian_noise", d=3, m=7, seed=19)
    path = tmp_path / "ood.csv"
    save_delimited(ds, path)
    loaded = load_delimited(path, has_label=False)
    assert isinstance(loaded, OodDataset)
    assert np.array_equal(loaded.features.data, ds.features.data)


def test_load_delimited_comments_and_blanks(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("# header comment\n1.0,2.0,0\n\n3.0,4.0,1\n")
    ds = load_delimited(path, has_label=True)
    assert ds.n == 2 and ds.k == 2


def test_load_delimited_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0,0\n1.0,0\n")
    with pytest.raises(DataError, match="line 2"):
        load_delimited(path, has_label=True)


def test_load_delimited_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,two,0\n")
    with pytest.raises(DataError, match="line 1"):
        load_delimited(path, has_label=True)


def test_load_delimited_fractional_label(tmp_path):
    path = tmp_path / "fraclabel.csv"
    path.write_text("1.0,2.0,0.5\n")
    with pytest.raises(DataError):
        load_delimited(path, has_label=True)


@pytest.mark.parametrize("row", ["1.0,2.0,nan", "1.0,2.0,inf", "1.0,2.0,1e300",
                                 "1.0,2.0,-1", "nan,2.0,0", "1.0,1e999,0", "1"])
def test_load_delimited_rejects_bad_values_and_labels(row, tmp_path):
    # Each must fail as a DataError naming its line, before a label reaches
    # int() (ValueError on nan, OverflowError on inf) or a lone label makes a
    # dataset without features.
    path = tmp_path / "bad.csv"
    path.write_text(f"# features, label\n{row}\n")
    with pytest.raises(DataError, match="line 2"):
        load_delimited(path, has_label=True)


def test_load_delimited_label_out_of_range(tmp_path):
    path = tmp_path / "range.csv"
    path.write_text("1.0,2.0,5\n")
    with pytest.raises(DataError):
        load_delimited(path, has_label=True, k=3)


def test_load_delimited_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing here\n")
    with pytest.raises(DataError):
        load_delimited(path, has_label=False)
