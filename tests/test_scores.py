"""Tests for the post-hoc detection scores (MSP, ODIN, Energy, GradNorm)."""

import math
import platform
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logitbench import scores
from logitbench.data import gen_blobs, gen_ood
from logitbench.errors import ConfigError, DataError, ShapeError
from logitbench.losses import LossConfig
from logitbench.model import BLOCK_ROWS, MlpModel, _forward, forward, init_model
from logitbench.optimizer import OptimConfig, train
from logitbench.scores import (ENERGY, GRADNORM, MSP, ODIN, SCORE_PARAMS,
                               ScoreConfig, dump_records, read_scores,
                               score_batch, write_scores)
from logitbench.tensor import Matrix2D

from conftest import buffer_set_bytes, one_block_bytes, several_blocks, traced_peak
from tape_oracle import forward_traced, max_softmax
from test_readers_fuzz import LINE_ENDS, NUMBERS


def identity_model(k: int) -> MlpModel:
    """Single linear layer with identity weights, so logits == input."""
    return MlpModel(
        layer_dims=(k, k),
        weights=(np.eye(k),),
        biases=(np.zeros((1, k)),),
    )


@pytest.fixture
def small_model():
    return init_model((4, 8, 3), seed=11)


def score_row(model, x, kind, **params) -> float:
    """One-row score_batch call."""
    row = Matrix2D(np.asarray(x, dtype=np.float64)[None])
    return float(score_batch(model, row, ScoreConfig(kind, params))[0][0])


# ---------------------------------------------------------------------------
# config


def test_score_config_validation():
    with pytest.raises(ConfigError):
        ScoreConfig(kind="entropy")
    with pytest.raises(ConfigError):
        ScoreConfig(ODIN, {"T": 0.0})
    with pytest.raises(ConfigError):
        ScoreConfig(ODIN, {"eps": -1.0})


def test_scored_example_validation(tmp_path):
    # A record's origin is ID or OOD, and its score is finite.
    path = tmp_path / "bad.txt"
    for record in ("id,1.0", "ID,nan"):
        path.write_text(record + "\n")
        with pytest.raises(DataError, match="line 1"):
            read_scores(path)


# ---------------------------------------------------------------------------
# MSP


def test_msp_uniform_logits():
    model = identity_model(4)
    assert score_row(model, [0.0, 0.0, 0.0, 0.0], kind=MSP) == pytest.approx(0.25, abs=1e-12)


def test_msp_range(small_model):
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = score_row(small_model, rng.normal(size=4), kind=MSP)
        assert 1.0 / 3.0 <= s <= 1.0


def test_msp_known_two_class():
    model = identity_model(2)
    # softmax(2, 1) = (0.7311, 0.2689)
    assert score_row(model, [2.0, 1.0], kind=MSP) == pytest.approx(
        1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


# ---------------------------------------------------------------------------
# ODIN


def test_odin_reduces_to_msp_at_unit_temperature(small_model):
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.normal(size=4)
        assert abs(score_row(small_model, x, kind=ODIN, T=1.0, eps=0.0)
                   - score_row(small_model, x, kind=MSP)) <= 1e-12


def test_odin_temperature_flattens():
    model = identity_model(3)
    x = [3.0, 0.0, 0.0]
    # Dividing logits by a huge temperature pushes the max softmax toward 1/k.
    flat = score_row(model, x, kind=ODIN, T=1000.0, eps=0.0)
    assert flat < score_row(model, x, kind=MSP)
    assert flat == pytest.approx(1 / 3, abs=1e-3)


def test_odin_perturbation_increases_confidence(small_model):
    # The perturbation steps against the NLL gradient of the predicted class,
    # so at fixed temperature the scored confidence cannot drop (first order;
    # use a small eps so the linearization holds).
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=4)
        with_eps = score_row(small_model, x, kind=ODIN, T=1.0, eps=1e-4)
        without = score_row(small_model, x, kind=ODIN, T=1.0, eps=0.0)
        assert with_eps >= without - 1e-12


def test_odin_validation(small_model):
    with pytest.raises(ConfigError):
        score_row(small_model, [0.0] * 4, kind=ODIN, T=0.0)


# ---------------------------------------------------------------------------
# Energy


def test_energy_uniform_logits():
    model = identity_model(2)
    # logsumexp(0, 0) = log 2
    assert score_row(model, [0.0, 0.0], kind=ENERGY) == pytest.approx(math.log(2.0), abs=1e-12)


def test_energy_hand_value():
    model = identity_model(3)
    # logsumexp(3, 1, 1) = ln(e^3 + 2e)
    expected = math.log(math.exp(3.0) + 2.0 * math.e)
    assert score_row(model, [3.0, 1.0, 1.0], kind=ENERGY) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(3.2395, abs=1e-4)


def test_energy_temperature_scaling():
    model = identity_model(2)
    # T * logsumexp(f/T): at T=2 with logits (2, 0) -> 2 * log(e + 1)
    assert score_row(model, [2.0, 0.0], kind=ENERGY, T=2.0) == pytest.approx(
        2.0 * math.log(math.e + 1.0), abs=1e-12)


def test_energy_overflow_safe():
    model = identity_model(2)
    s = score_row(model, [1000.0, 0.0], kind=ENERGY)
    assert np.isfinite(s) and s == pytest.approx(1000.0, abs=1e-9)


# ---------------------------------------------------------------------------
# GradNorm


def test_gradnorm_uniform_softmax_is_zero(small_model):
    # An input producing exactly uniform softmax has zero gradient against
    # the uniform target.  The zero input through zero biases... does not
    # guarantee uniform logits in general, so build it explicitly.
    model = identity_model(3)
    assert score_row(model, [0.0, 0.0, 0.0], kind=GRADNORM) <= 1e-8


def test_gradnorm_nonnegative(small_model):
    rng = np.random.default_rng(3)
    for _ in range(10):
        assert score_row(small_model, rng.normal(size=4), kind=GRADNORM) >= 0.0


def test_gradnorm_feature_scaling_oracle():
    # For a single linear layer the last-layer weight gradient is
    # outer(x, p - u), so doubling x exactly doubles the L1 norm only if the
    # softmax stays fixed -- use a model whose logits ignore x's scale in
    # direction by comparing against a direct computation instead.
    k, d = 3, 3
    rng = np.random.default_rng(4)
    w = rng.normal(size=(d, k))
    model = MlpModel(layer_dims=(d, k), weights=(w,), biases=(np.zeros((1, k)),))
    x = rng.normal(size=d)
    logits = x @ w
    p = np.exp(logits - logits.max())
    p /= p.sum()
    # Single-row batch: gradient of the uniform cross-entropy w.r.t. the
    # last weight matrix is outer(x, p - 1/k).
    expected = np.abs(np.outer(x, p - 1.0 / k)).sum()
    assert score_row(model, x, kind=GRADNORM) == pytest.approx(expected, rel=1e-10)


def test_gradnorm_validation(small_model):
    with pytest.raises(ConfigError):
        score_row(small_model, [0.0] * 4, kind=GRADNORM, T=-1.0)


# ---------------------------------------------------------------------------
# batch scoring against the per-row tape oracle
#
# The oracle scores one row at a time through a fresh reference tape
# (tests/tape_oracle.py), the way detectors were first written.  The batch path rounds differently (one n x d
# product instead of n 1 x d products, the closed-form GradNorm), so the two
# agree to a tolerance rather than bit for bit.


def oracle_score(model: MlpModel, x: np.ndarray, cfg: ScoreConfig) -> float:
    x = Matrix2D(x.reshape(1, -1))
    if cfg.kind == MSP:
        return float(max_softmax(forward(model, x))[0])
    if cfg.kind == ODIN:
        T = cfg.params["T"]
        if cfg.params["eps"] > 0.0:
            trace = forward_traced(model, x, input_grad=True)
            scaled = trace.tape.scale(trace.logits, 1.0 / T)
            pred = np.array([int(np.argmax(trace.logits.value[0]))])
            nll = trace.tape.softmax_cross_entropy(scaled, pred)
            trace.tape.backward(nll)
            grad = trace.tape.grad(trace.input)
            x = Matrix2D(x.data - cfg.params["eps"] * np.sign(grad))
        return float(max_softmax(forward(model, x) / T)[0])
    if cfg.kind == ENERGY:
        T = cfg.params["T"]
        logits = forward(model, x)[0] / T
        m = logits.max()
        return float(T * (m + np.log(np.exp(logits - m).sum())))
    trace = forward_traced(model, x)
    scaled = trace.tape.scale(trace.logits, 1.0 / cfg.params["T"])
    trace.tape.backward(trace.tape.uniform_cross_entropy(scaled))
    return float(np.abs(trace.tape.grad(trace.weights[-1])).sum())


def oracle_rows() -> np.ndarray:
    """200 ID rows and 100 OOD rows."""
    id_rows = gen_blobs(k=4, d=6, n_per_class=50, cluster_spread=1.0,
                        cluster_radius=3.0, seed=4).features.data
    ood_rows = gen_ood("uniform_box", 6, 100, {"half_width": 6.0}, seed=5).data
    return np.concatenate([id_rows, ood_rows])


@pytest.fixture(scope="module")
def trained_models():
    """A few epochs under each loss, a high-norm copy of the cross-entropy
    model (every weight x3), and a copy of the logit-norm model whose last
    bias is lowered by its median Energy score, so that Energy scores
    straddle 0 and the ones nearest 0 are held by the absolute tolerance."""
    train_ds = gen_blobs(k=4, d=6, n_per_class=60, cluster_spread=1.0,
                         cluster_radius=3.0, seed=1)
    optim = OptimConfig(lr0=0.1, epochs=5, batch_size=32, lr_drops=())
    models = {}
    for kind in ("cross_entropy", "logit_norm", "logit_penalty"):
        models[kind], _ = train(init_model((6, 16, 16, 4), seed=3), train_ds,
                                LossConfig(kind=kind), optim, 2)
    ce = models["cross_entropy"]
    models["high_norm"] = MlpModel(ce.layer_dims,
                                   tuple(3.0 * w for w in ce.weights),
                                   ce.biases)
    ln = models["logit_norm"]
    energies = np.sort(score_batch(ln, Matrix2D(oracle_rows()), ScoreConfig(kind=ENERGY))[0])
    shift = energies[len(energies) // 2]
    models["energy_near_zero"] = MlpModel(
        ln.layer_dims, ln.weights, (*ln.biases[:-1], ln.biases[-1] - shift))
    return models


def test_score_batch_matches_oracle(trained_models):
    rows = oracle_rows()
    cfgs = [ScoreConfig(kind=kind) for kind in SCORE_PARAMS] + [
        ScoreConfig(ENERGY, {"T": 2.0}),
        ScoreConfig(GRADNORM, {"T": 2.0})]
    for name, model in trained_models.items():
        for cfg in cfgs:
            [batch] = score_batch(model, Matrix2D(rows), cfg)
            oracle = np.array([oracle_score(model, row, cfg) for row in rows])
            np.testing.assert_allclose(batch, oracle, rtol=1e-12, atol=1e-12,
                                       err_msg=f"{name}/{cfg.kind}")


def _softmax(f: np.ndarray) -> np.ndarray:
    e = np.exp(f - f.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def whole_set_scores(model: MlpModel, x: np.ndarray, cfg: ScoreConfig
                     ) -> tuple[np.ndarray, np.ndarray]:
    """A detector's scores recomputed in numpy from one whole-set `_forward`, and
    which rows they are exact for: all but, for ODIN, the rows with an input
    gradient component within 1e-12 of the row's largest, whose sign rounding
    can flip."""
    inputs, f = _forward(model.weights, model.biases, x)
    exact = np.ones(len(x), bool)
    if cfg.kind == MSP:
        return _softmax(f).max(axis=1), exact
    T = cfg.params["T"]
    if cfg.kind == ENERGY:
        m = (f / T).max(axis=1)
        return T * (m + np.log(np.exp(f / T - m[:, None]).sum(axis=1))), exact
    if cfg.kind == GRADNORM:
        spread = np.abs(_softmax(f / T) - 1.0 / f.shape[1]).sum(axis=1)
        return np.abs(inputs[-1]).sum(axis=1) * spread / T, exact
    grad = _softmax(f / T)
    grad[np.arange(len(f)), f.argmax(axis=1)] -= 1.0
    grad /= T
    for i in range(len(model.weights) - 1, -1, -1):
        grad = grad @ model.weights[i].T
        if i > 0:
            grad = grad * (inputs[i] > 0.0)
    exact = (np.abs(grad) > 1e-12 * np.abs(grad).max(axis=1, keepdims=True)).all(axis=1)
    shifted = _forward(model.weights, model.biases, x - cfg.params["eps"] * np.sign(grad))[1]
    return _softmax(shifted / T).max(axis=1), exact


@pytest.mark.parametrize("kind", SCORE_PARAMS)
def test_score_batch_in_blocks_matches_one_whole_set_pass(kind):
    """Every detector scores a set several blocks long, the last one short, block
    by block, within a relative 1e-12 of a whole-set numpy recomputation. The two
    take different OpenBLAS kernels past 1,562 rows, so their logits differ by a
    few ulps, and each score moves by a few ulps of itself (under 2e-15 here).
    ODIN steps each input by eps against the sign of its gradient; where a
    component is within rounding of 0 that sign can flip and move the score by far
    more, so such rows are left out. They must be under 1% of the set."""
    model, x = several_blocks()
    assert len(x) > 3 * BLOCK_ROWS and len(x) % BLOCK_ROWS
    cfg = ScoreConfig(kind)
    [got] = score_batch(model, Matrix2D(x), cfg)
    want, exact = whole_set_scores(model, x, cfg)
    assert got.shape == want.shape and exact.mean() > 0.99
    np.testing.assert_allclose(got[exact], want[exact], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", SCORE_PARAMS)
def test_score_batch_works_in_blocks(kind):
    """Each detector's traced peak on a set nine blocks long stays below half of
    one whole-set forward's layer outputs."""
    model, x = several_blocks()
    features, cfg = Matrix2D(x), ScoreConfig(kind)
    peak = traced_peak(lambda: score_batch(model, features, cfg))
    assert peak < buffer_set_bytes(len(x), model) / 2


def test_score_batch_holds_one_block_at_a_time():
    """`score_batch` releases each block before the next is computed: MSP's traced
    peak stays within one block's working set and the scores it returns."""
    model, x = several_blocks()
    features, cfg = Matrix2D(x), ScoreConfig(MSP)
    peak = traced_peak(lambda: score_batch(model, features, cfg))
    assert peak < one_block_bytes(model, len(x) * 8)


def test_one_pass_scores_every_detector_as_each_alone():
    """Scoring every detector off each block's one forward gives each detector's
    scores bit for bit as scoring it alone, on a set several blocks long whose last
    block is short; ODIN at eps > 0 re-forwards its perturbed rows in both."""
    model, x = several_blocks()
    features = Matrix2D(x)
    cfgs = [ScoreConfig(MSP), ScoreConfig(ODIN, {"T": 1000.0, "eps": 0.0014}),
            ScoreConfig(ENERGY, {"T": 0.25}), ScoreConfig(GRADNORM, {"T": 2.0}),
            ScoreConfig(ODIN, {"T": 2.0, "eps": 0.0})]
    together = score_batch(model, features, *cfgs)
    assert len(together) == len(cfgs)
    for cfg, got in zip(cfgs, together):
        [alone] = score_batch(model, features, cfg)
        assert got.shape == (len(x),) and got.tobytes() == alone.tobytes(), cfg


def test_score_batch_of_every_detector_works_in_blocks():
    """All four detectors scored in one pass stay within one block's working set,
    the layer outputs of ODIN's perturbed re-forward of that block, and the four
    score arrays returned. ODIN's re-forward is as large as a second block, so
    the `del` of each block is checked by the MSP test above, not here."""
    model, x = several_blocks()
    features, cfgs = Matrix2D(x), [ScoreConfig(kind) for kind in SCORE_PARAMS]
    peak = traced_peak(lambda: score_batch(model, features, *cfgs))
    perturbed = buffer_set_bytes(BLOCK_ROWS, model)
    assert peak < one_block_bytes(model, len(cfgs) * len(x) * 8) + perturbed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_logits_raise_data_error():
    model = MlpModel((2, 2), (1e300 * np.eye(2),), (np.zeros((1, 2)),))
    for kind in SCORE_PARAMS:
        with pytest.raises(DataError, match="^logits must be finite$"):
            score_batch(model, Matrix2D([[1e10, 0.0]]), ScoreConfig(kind=kind))


@pytest.mark.parametrize("kind", SCORE_PARAMS)
def test_score_batch_rejects_wrong_width(small_model, kind):
    with pytest.raises(ShapeError, match="^input has 3 features, model expects 4$"):
        score_batch(small_model, Matrix2D(np.zeros((5, 3))), ScoreConfig(kind=kind))


def test_all_scores_finite(small_model):
    rng = np.random.default_rng(6)
    feats = Matrix2D(rng.normal(size=(5, 4)))
    for kind in ("msp", "odin", "energy", "gradnorm"):
        [values] = score_batch(small_model, feats, ScoreConfig(kind=kind))
        assert np.isfinite(values).all()


# ---------------------------------------------------------------------------
# score dump round trip


def test_write_read_scores_round_trip(tmp_path):
    path = tmp_path / "scores.txt"
    id_scores, ood_scores = [0.123456789012345678, 1e-300], [-3.5]
    write_scores(path, dump_records("ID", id_scores), ood_scores)
    loaded_id, loaded_ood = read_scores(path)
    assert loaded_id.tolist() == id_scores
    assert loaded_ood.tolist() == ood_scores


@pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
def test_dump_records_rejects_a_non_finite_score(bad, shown):
    with pytest.raises(DataError, match=f"^score must be finite, got {shown}$"):
        dump_records("ID", [0.5, bad, math.nan])


def test_write_scores_leaves_no_file_for_a_non_finite_ood_score(tmp_path):
    path = tmp_path / "dump.txt"
    with pytest.raises(DataError, match="^score must be finite, got inf$"):
        write_scores(path, dump_records("ID", [0.5]), [1.0, math.inf])
    assert not path.exists()


def test_read_scores_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("ID,0.5\nnot a record\n")
    with pytest.raises(DataError, match="line 2"):
        read_scores(path)


def test_read_scores_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(DataError):
        read_scores(path)


@pytest.fixture(scope="module")
def dump_path(tmp_path_factory):
    return tmp_path_factory.mktemp("dump") / "dump.txt"


def per_row_write_scores(path, rows) -> None:
    """The writer `write_scores` replaced: one write per (origin, score) row."""
    with open(path, "w") as fh:
        for origin, score in rows:
            fh.write(f"{origin},{score:.17g}\n")


# Signed zero, tiny and subnormal values, the largest magnitudes, and values
# whose shortest round-trip form needs all 17 significant digits.
EDGE_SCORES = [0.0, -0.0, 1e-300, 5e-324, 2.2250738585072e-309, 1.7e308, -1.7e308,
               0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0, 9007199254740993.0, 123456.78901234567,
               1.0, -3.5]


def assert_same_bytes_as_per_row(tmp_path, id_scores, ood_scores):
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    write_scores(new, dump_records("ID", id_scores), ood_scores)
    per_row_write_scores(old, [("ID", float(v)) for v in id_scores]
                         + [("OOD", float(v)) for v in ood_scores])
    assert new.read_bytes() == old.read_bytes()


def test_write_scores_bytes_match_the_per_row_writer(tmp_path):
    ids = np.array(EDGE_SCORES)
    assert_same_bytes_as_per_row(tmp_path, ids, -ids[::-1])
    assert_same_bytes_as_per_row(tmp_path, EDGE_SCORES, [])
    assert "ID,0.30000000000000004\n" in (tmp_path / "new.txt").read_text()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ids=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20),
       ood=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
def test_write_scores_bytes_match_the_per_row_writer_on_any_floats(ids, ood, dump_path):
    assert_same_bytes_as_per_row(dump_path.parent, np.array(ids, np.float64), ood)


# ---------------------------------------------------------------------------
# whole-file dump parse against the line-by-line reader


def by_line_or_message(path):
    """What the line loop makes of a file: the two arrays or the DataError text."""
    try:
        return scores._read_by_line(path)
    except DataError as exc:
        return str(exc)


def assert_bitwise_equal(got, want):
    assert not isinstance(want, str), want
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype == np.float64
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


# Tokens beside the decimal kernel's grammar -?D+(.D+)?(e[+-]D+)?, in it or
# just outside it, which float() may still take.
GRAMMAR_EDGES = ["1.2.3", "1e", "1e+", "e5", "--1", "1-2", "+1", ".5", "5.", "1E5", "1e5", "-0",
                 "00.5", "1.5e-0300", "1e+5.5", "1e5+", "1e+5e+5", "1.e+5", "-.5", "1-", "1e+99999999999",
                 "123456789012345678901234567890", "1.23456789012345678901234567890",
                 "0.000000000000000000000000000001", "1234567890123456789.5e-10",
                 "1e+9223372036854775808", "1e-9223372036854775809", "1e+00000000000000000000000000001"]
VALID_RECORD = st.tuples(st.sampled_from(["ID", "OOD"]),
                         st.floats(allow_nan=False, allow_infinity=False).map(repr)
                         | st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format)
                         | st.sampled_from(["1_0", "٣", " 2", "3 ", "1e-320", "-0.0"] + GRAMMAR_EDGES)
                         ).map(",".join)
# Origins and numbers beside valid ones, one to four fields a line.
NEAR_RECORD = st.lists(st.sampled_from(["ID", "OOD", "id", "", " ID", "OOD ", "\x1c"])
                       | NUMBERS | st.sampled_from(GRAMMAR_EDGES), min_size=1, max_size=4).map(",".join)


@st.composite
def dump_texts(draw):
    """Valid records with mixed line ends; in about half the files one line
    is damaged: replaced by a near record, stripped of its comma or joined
    to the next record by a comma. About one file in four lacks a final
    newline."""
    lines = draw(st.lists(VALID_RECORD, max_size=8))
    if lines and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(NEAR_RECORD | st.just(lines[i].replace(",", "", 1))
                        | st.just(lines[i] + "," + lines[(i + 1) % len(lines)]))
    text = "".join(line + draw(LINE_ENDS) for line in lines)
    return text.rstrip("\r\n") if draw(st.integers(0, 3)) == 0 else text


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(text=dump_texts())
@example(text="ID,1\r\nOOD,2\r\n")
@example(text="ID,1\rOOD,2\r")
@example(text="ID,1\n\nOOD,2\n")
@example(text="ID,1\r\nOOD,2\rID,3\nOOD,4\r\r\n")
@example(text="ID,٣\n")
@example(text="ID,1_0\nOOD,٣\n")
@example(text="ID,1,OOD\n2\n")
@example(text="ID,1,OOD,2\n")
@example(text="ID\nOOD,1,2\n")
@example(text="ID,nan\n")
@example(text="OOD,-inf\n")
@example(text="ID,1e400\n")
@example(text="ID,1\nOOD,2")
@example(text="ID,1.5\x1c\n")
@example(text="I,1\n")
@example(text="OODD,1\n")
@example(text="IDO,1\n")
@example(text="OD,1\n")
@example(text="OXD,1\n")
@example(text="OOX,1\n")
@example(text=",1\n")
@example(text="ID,1\nO,\n")
@example(text="ÌD,1\n")
@example(text="\ufeffID,1\n")
@example(text="ID,1.5e-0300\nOOD,-0\nID,00.5\nOOD,1e+5\n")
@example(text="ID,0.1\nOOD,1e5\n")
@example(text="ID,0.1\nOOD,1e+\n")
@example(text="ID,1.23456789012345678901234567890\nOOD,1\n")
def test_whole_file_parse_matches_the_line_loop(text, dump_path):
    """Where the whole-file parse takes a file, it gives the line loop's
    arrays bit for bit; read_scores gives the loop's arrays or its error."""
    assert_whole_file_parse_matches_the_line_loop(text, dump_path)


@pytest.mark.parametrize("token", GRAMMAR_EDGES)
def test_whole_file_parse_matches_the_line_loop_beside_the_grammar(token, dump_path):
    assert_whole_file_parse_matches_the_line_loop(f"ID,0.5\nOOD,{token}\nID,-2e-05\n", dump_path)


def assert_whole_file_parse_matches_the_line_loop(text, dump_path):
    dump_path.write_bytes(text.encode())
    want = by_line_or_message(dump_path)
    whole = scores._parse_whole(dump_path)
    if whole is not None:
        assert_bitwise_equal(whole, want)
    try:
        got = read_scores(dump_path)
    except DataError as exc:
        assert str(exc) == want
    else:
        assert_bitwise_equal(got, want)


needs_extended = pytest.mark.skipif(not scores._EXTENDED, reason="no x87 extended precision")


@needs_extended
def test_whole_file_parse_takes_the_files_write_scores_writes(tmp_path):
    path = tmp_path / "dump.txt"
    write_scores(path, dump_records("ID", EDGE_SCORES), [0.5, -0.25])
    assert_bitwise_equal(scores._parse_whole(path), scores._read_by_line(path))
    lf_dump = path.read_bytes()
    for newline in (b"\r\n", b"\r"):
        path.write_bytes(lf_dump.replace(b"\n", newline))
        assert_bitwise_equal(scores._parse_whole(path), scores._read_by_line(path))
    path.write_bytes(b"ID,\xff\n")
    assert scores._parse_whole(path) is None
    for text in ("ID,1\n\nOOD,2\n", "ID,1\nOOD,2", "ID,inf\n", "", "ID,1,2\n"):
        path.write_text(text)
        assert scores._parse_whole(path) is None


# ---------------------------------------------------------------------------
# the decimal kernel against float()


def assert_kernel_reads_as_float(texts: list[str]):
    """The kernel takes a dump of these decimals and reads each one as
    float() does, bit for bit."""
    data = np.frombuffer(("ID," + "\nID,".join(texts) + "\n").encode(), np.uint8)
    _, commas, newlines = scores._record_origins(data)
    got = scores._decimals(data, commas + 1, newlines)
    assert got is not None
    want = np.array([float(t) for t in texts])
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert not bad.size, [(texts[i], got[i].hex(), want[i].hex()) for i in bad[:5]]


def sampled_doubles(rng: np.random.Generator, n: int) -> np.ndarray:
    """Normal, uniform and log-uniform (1e-30 to 1e30, both signs) values,
    and random finite bit patterns, n of each kind at most."""
    bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    return np.concatenate([rng.normal(0.0, 1.0, n), rng.uniform(0.0, 1.0, n),
                           rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-30, 30, n),
                           bits[np.isfinite(bits)]])


@needs_extended
def test_decimal_kernel_reads_what_float_reads_bit_for_bit():
    values = np.concatenate([sampled_doubles(np.random.default_rng(19), 125_000), EDGE_SCORES,
                             [5e-324, -2.225073858507201e-308, 2.2250738585072014e-308,
                              1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0]])
    floats = values.tolist()
    for form in ("%.17g", "%r"):  # dump_records' form and repr's
        assert_kernel_reads_as_float(((form + "\n") * len(floats) % tuple(floats)).split())
    rng = np.random.default_rng(20)
    # Integers of 19 digits (the kernel's) and of 20 (float()'s), exponents
    # beyond |e10| = 27, long exponents and the halfway integer 2**53 + 1.
    assert_kernel_reads_as_float(
        [str(v) for v in rng.integers(10**18, 2**63, 1000, dtype=np.int64).tolist()]
        + [str(10**19 + v) for v in rng.integers(0, 2**63, 1000, dtype=np.int64).tolist()]
        + ["99999999999999999999", "18446744073709551615", "18446744073709551616", "-0",
           "1e+27", "1e+28", "1e-27", "1e-28", "9999999999999999999e-27", "1.5e+0300", "0e+0",
           "0.0e-99999", "1e+000000027", "2.4703282292062327e-324", "1.7976931348623158e+308",
           "9007199254740993", "-9007199254740993.0"])


@needs_extended
def test_decimal_kernel_sends_halfway_cases_to_float(monkeypatch):
    # 18-digit decimals of points halfway between sampled doubles: some round
    # to the halfway point itself in extended precision, where rounding it
    # again to float64 can go the wrong way. All are inside the kernel's other
    # bounds (|e10| <= 25), so only a halfway case goes to float().
    rng = np.random.default_rng(21)
    low = rng.uniform(1.0, 10.0, 3000) * 10.0 ** rng.integers(-8, 9, 3000)
    halfway = low.astype(np.longdouble) + np.spacing(low).astype(np.longdouble) / 2
    texts = [np.format_float_scientific(h, precision=17, unique=False) for h in halfway]
    sent = []
    monkeypatch.setattr(scores, "float", lambda b: sent.append(b) or float(b), raising=False)
    assert_kernel_reads_as_float(texts)
    assert 0 < len(sent) < len(texts) / 10


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64") or sys.platform == "win32",
                    reason="long double is x87 extended precision on x86-64 outside Windows")
def test_decimal_kernel_is_active_on_x86_64():
    assert scores._EXTENDED


def test_read_scores_reads_by_line_without_extended_precision(tmp_path, monkeypatch):
    path = tmp_path / "dump.txt"
    rng = np.random.default_rng(22)
    write_scores(path, dump_records("ID", np.r_[EDGE_SCORES, rng.normal(size=500)]),
                 rng.uniform(size=500))
    want = scores._read_by_line(path)
    monkeypatch.setattr(scores, "_EXTENDED", False)
    monkeypatch.setattr(scores, "_decimals", None)  # not called
    assert scores._parse_whole(path) is None
    assert_bitwise_equal(read_scores(path), want)
