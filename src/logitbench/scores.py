"""Post-hoc OOD scoring functions. Every score maps (model, input row) to a
real number where higher means more in-distribution.

MSP:      max softmax probability.
ODIN:     temperature-scaled MSP after a small input perturbation toward
          higher confidence; reduces to MSP exactly at T=1, eps=0.
Energy:   T * logsumexp(f / T), the negated free energy.
GradNorm: L1 norm of the last-layer weight gradient of the cross-entropy
          between softmax(f / T) and the uniform distribution.

`score_batch` scores a set block by block, every detector off a block's one
forward, all rows of a block at once. Rows are independent, so ODIN's input
gradient for every row of a block comes from one explicit backward pass, and
GradNorm's last-layer gradient is the outer product of the penultimate
activation h and (softmax(f / T) - 1/k) / T, whose L1 norm factorises into
||h||_1 * ||softmax(f / T) - 1/k||_1 / T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DataError, kind_params, read_lines
from .model import MlpModel, forward_blocks, input_gradient
from .tensor import Matrix2D, log_softmax, max_softmax, softmax_stats

MSP = "msp"
ODIN = "odin"
ENERGY = "energy"
GRADNORM = "gradnorm"

# Each detector kind's parameters: name -> (default, accepted range).
SCORE_PARAMS = {
    MSP: {},
    ODIN: {"T": (1000.0, "(0, 1e6]"), "eps": (0.0014, "[0, 1]")},
    ENERGY: {"T": (1.0, "(0, 1e6]")},
    GRADNORM: {"T": (1.0, "(0, 1e6]")},
}


@dataclass(frozen=True)
class ScoreConfig:
    kind: str = MSP
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params",
                           kind_params(SCORE_PARAMS, "score", self.kind, self.params))


def _odin_input(model: MlpModel, inputs: list[np.ndarray], f: np.ndarray,
                T: float, eps: float) -> np.ndarray:
    """Step every row of inputs[0], whose forward pass gave `inputs` and logits f,
    against the sign of its input gradient of the cross-entropy between softmax(f / T)
    and the predicted class; that is -log S_pred, so the step raises the max softmax."""
    grad = np.exp(log_softmax(f * (1.0 / T)))
    grad[np.arange(f.shape[0]), f.argmax(axis=1)] -= 1.0
    grad *= 1.0 / T
    grad = input_gradient(model.weights, inputs, grad)
    return inputs[0] - eps * np.sign(grad)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def score_batch(model: MlpModel, features: Matrix2D, *cfgs: ScoreConfig) -> list[np.ndarray]:
    """Score every row of `features` under each of `cfgs`: one array per config, one
    value per row. The rows run through the model in blocks of BLOCK_ROWS, each
    scored by every detector before the next runs: one forward per block, and for
    each ODIN with eps > 0 one more over the block's perturbed rows. `forward_blocks`
    checks the width, and logits that overflow raise DataError before any detector
    runs. A score that overflows is returned as it is, with no numpy warning: its
    readers (dump_records, detection_report) reject it."""
    scores = [np.empty(features.rows) for _ in cfgs]
    for start, inputs, logits in forward_blocks(model.weights, model.biases, features.data):
        for out, cfg in zip(scores, cfgs):
            out[start:start + len(logits)] = _block_scores(model, inputs, logits, cfg)
        del inputs, logits
    return scores


def _block_scores(model: MlpModel, inputs: list[np.ndarray], logits: np.ndarray,
                  cfg: ScoreConfig) -> np.ndarray:
    """`score_batch` of one block, from its layer inputs and finite logits."""
    if cfg.kind == MSP:
        return max_softmax(logits)
    T = cfg.params["T"]
    if cfg.kind == ODIN:
        if cfg.params["eps"] > 0.0:
            x = _odin_input(model, inputs, logits, T, cfg.params["eps"])
            [(_, _, logits)] = forward_blocks(model.weights, model.biases, x)  # one block
        return max_softmax(logits / T)
    if cfg.kind == ENERGY:
        m, _, total = softmax_stats(logits / T)
        return T * (m + np.log(total))[:, 0]
    probs = np.exp(log_softmax(logits * (1.0 / T)))
    return np.abs(inputs[-1]).sum(axis=1) * np.abs(probs - 1.0 / model.num_classes).sum(axis=1) / T


# Score dump interchange: one "<origin>,<decimal>" record per line, origin
# ID or OOD, the decimal a finite float with 17 significant digits.

def dump_records(origin: str, scores) -> str:
    """The dump records of `scores` under `origin`, in array order; DataError
    naming the first score that is not finite."""
    values = np.asarray(scores, np.float64)
    if not np.isfinite(values).all():
        raise DataError(f"score must be finite, got {values[~np.isfinite(values)][0]}")
    values = values.tolist()
    return (f"{origin},%.17g\n" * len(values)) % tuple(values)


def write_scores(path, id_records: str, ood_scores) -> None:
    """Write `id_records`, the `dump_records` of the ID scores, then those of
    the OOD scores, formatted (and so checked finite) before the file opens. A
    detector's ID records are the same in every dump, so callers format them once."""
    ood_records = dump_records("OOD", ood_scores)
    with open(path, "w") as fh:
        fh.writelines((id_records, ood_records))


def read_scores(path) -> tuple[np.ndarray, np.ndarray]:
    """(ID scores, OOD scores) of a dump, each in file order. On x87 hosts a dump whose
    every line is a record, the last ending in a newline, is parsed whole; any
    other file is read line by line, which names the first bad line."""
    parsed = _parse_whole(path)
    return parsed if parsed is not None else _read_by_line(path)


def _parse_whole(path) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """`_read_by_line`'s arrays when the kernel runs on this host and every line, ended by
    LF, CRLF or a lone CR as text mode reads them, is a record it reads as finite; else None."""
    if not _EXTENDED:
        return None
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    data = np.frombuffer(raw, np.uint8)
    records = _record_origins(data)
    if records is None:
        return None
    is_id, commas, newlines = records
    values = _decimals(data, commas + 1, newlines)
    if values is None or not np.isfinite(values).all():
        return None
    return values[is_id], values[~is_id]


# The decimal kernel reads -?D+(.D+)?(e[+-]D+)? as m * 10**e10, m the digits. For
# m < 10**19 and |e10| <= 27 both are exact in x87 extended precision's 64-bit
# significand, so one rounding there (Clinger 1990) and one to float64 give float()'s
# double unless the first lands halfway, its 11 bits below a double's 53 being 0x400.
_EXTENDED = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))
_POW10_U64 = np.array([10**min(k, 19) for k in range(25)], np.uint64)
# Row k keeps the low nibble of the last k of 24 bytes, as three uint64 lanes.
_MASK24 = np.where(np.arange(24) >= 24 - np.arange(25)[:, None], 15, 0).astype(np.uint8).view("<u8")


def _decimals(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Optional[np.ndarray]:
    """float() of each field data[starts[i]:ends[i]], bit for bit, if every field
    matches -?D+(.D+)?(e[+-]D+)? with any dot in its mantissa's last 24 bytes."""
    n_digits, n_dot, n_minus, n_plus = map(np.count_nonzero, (
        data - np.uint8(ord("0")) < 10, data == ord("."), data == ord("-"), data == ord("+")))
    exps = np.flatnonzero(data == ord("e"))
    f_exp, neg, sign = np.searchsorted(ends, exps), data[starts] == ord("-"), data[exps + 1]
    first, last, e_minus = starts + neg, ends.copy(), sign == ord("-")
    last[f_exp] = exps
    # Digits and .e-+ only; at most one e, then a sign and a digit; a '-' only
    # first or as that sign, a '+' only as that sign.
    n, lengths = len(ends), np.concatenate((last - first, ends[f_exp] - exps - 2))
    if (n_digits + n_dot + len(exps) + n_minus + n_plus != (ends - starts).sum()
            or not ((lengths > 0).all() and (np.diff(f_exp) > 0).all())
            or not (e_minus | (sign == ord("+"))).all()
            or (n_minus, n_plus) != (neg.sum() + e_minus.sum(), len(exps) - e_minus.sum())):
        return None
    # The last 24 bytes of each mantissa, then of each exponent, as digits, the
    # bytes before them cleared; every dot inside a mantissa, at neither end.
    blobs = np.ndarray((len(data) + 1,), "V24", np.r_[np.zeros(24, np.uint8), data], strides=(1,))
    lanes = blobs[np.concatenate((last, ends[f_exp]))].view("<u8").reshape(-1, 3)
    lanes &= _MASK24.take(np.minimum(lengths, 24), axis=0)
    digits = lanes.view(np.uint8).reshape(-1)
    dots = np.flatnonzero(digits == ord(".") & 15)
    row, col = np.divmod(dots, 24)
    if (len(dots) != n_dot or not (np.diff(row) > 0).all()
            or not ((row < n) & (col > 24 - lengths[row]) & (col < 23)).all()):
        return None
    digits[dots] = 0  # the dot read as a 0 digit, which the divmod drops
    frac = np.bincount(row, 23 - col, n).astype(np.int64)  # digits after the dot
    lanes = lanes * 10 + (lanes >> 8)  # eight digits per lane (Lemire 2021)
    lanes = ((lanes & 0xFF000000FF) * 0xF424000000064
             + ((lanes >> 16) & 0xFF000000FF) * 0x271000000001) >> 32
    whole = lanes @ _POW10_U64[[16, 8, 0]]
    q, r = np.divmod(whole[:n], _POW10_U64[frac + (frac > 0)])
    e10 = -frac
    e10[f_exp] += np.where(e_minus, -1, 1) * whole[n:].astype(np.int64)
    x = (q * _POW10_U64[frac] + r).astype(np.longdouble) / _POW10[np.clip(-e10, 0, 27)]
    up = np.flatnonzero(e10 > 0)
    x[up] *= _POW10[np.minimum(e10[up], 27)]
    slow = ((lengths[:n] > 24) | (lanes[:n, 0] >= 1000) | (np.abs(e10) > 27)
            | (x.view(np.uint64)[::2] & 0x7FF == 0x400))
    slow[f_exp] |= lengths[n:] > 8  # float() reads these one by one
    values = np.where(neg, -x, x).astype(np.float64)
    values[slow] = [float(data[s:e].tobytes()) for s, e in zip(starts[slow], ends[slow])]
    return values


_COMMA, _NEWLINE = ord(","), ord("\n")
_I, _O, _D = ord("I"), ord("O"), ord("D")


def _record_origins(data: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Whether each line of the bytes `data` is an ID record, and its
    comma and newline positions, when every line is "ID,<v>" or "OOD,<v>"
    with v free of commas and the last line ends in a newline; else None. That holds when comma and
    newline bytes alternate, comma first, and each line's bytes before its
    comma are exactly ID or OOD. UTF-8 encodes every non-ASCII character in
    bytes of 0x80 and above, so it never holds a comma or newline byte."""
    seps = np.flatnonzero((data == _COMMA) | (data == _NEWLINE))
    commas, newlines = seps[0::2], seps[1::2]
    if (not data.size or data[-1] != _NEWLINE
            or (data[commas] != _COMMA).any() or (data[newlines] != _NEWLINE).any()):
        return None
    starts = np.concatenate(([0], newlines[:-1] + 1))
    head = commas - starts
    is_id = head == 2
    # A head of 2 or 3 bytes is ID or OOD when its first two bytes are ID or
    # OO, as its length says, and its last byte is D.
    if not ((is_id | (head == 3)).all()
            and (data[starts] == np.where(is_id, _I, _O)).all()
            and (data[starts + 1] == np.where(is_id, _D, _O)).all()
            and (data[commas - 1] == _D).all()):
        return None
    return is_id, commas, newlines


def _read_by_line(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a dump one line at a time: blank lines are skipped, and the
    first line that is not a record raises DataError naming it."""
    found: dict[str, list[float]] = {"ID": [], "OOD": []}
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            origin, value = line.split(",")
            score = float(value)
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        if origin not in found:
            raise DataError(f"{path}: line {lineno}: origin must be ID or OOD, got {origin!r}")
        if not math.isfinite(score):
            raise DataError(f"{path}: line {lineno}: score must be finite, got {score}")
        found[origin].append(score)
    if not found["ID"] and not found["OOD"]:
        raise DataError(f"{path}: empty score dump")
    return np.array(found["ID"], np.float64), np.array(found["OOD"], np.float64)
