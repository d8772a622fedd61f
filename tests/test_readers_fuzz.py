"""Fuzz the three file readers: whatever the bytes, `read_scores`,
`load_checkpoint` and `load_delimited` either return or raise DataError."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitbench.data import load_delimited
from logitbench.errors import DataError
from logitbench.model import init_model, load_checkpoint, save_checkpoint
from logitbench.scores import read_scores

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Tokens that sit next to valid ones: specials, out-of-range and huge
# numbers, bad separators and non-ASCII text.
NUMBERS = st.sampled_from([
    "0", "1", "2", "3", "-1", "0.5", "1e-300", "1e308", "1e400", "-1e400", "nan",
    "-nan", "inf", "-inf", "Infinity", "1_0", "0x10", "99999999999999999999",
    "-99999999999999999999", "2147483648", "1e19", "", " ", "abc", "٣", "é",
]) | st.floats(allow_nan=True, allow_infinity=True).map(repr) | st.integers().map(str)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\n\n"])


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


def only_data_error(read, path, content):
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    try:
        read(path)
    except DataError:
        pass


def records(fields):
    """Text of lines of comma-joined fields, with mixed line endings."""
    return st.lists(st.tuples(fields, LINE_ENDS), max_size=8).map(
        lambda lines: "".join(",".join(cells) + end for cells, end in lines))


READERS = {
    "read_scores": read_scores,
    "load_checkpoint": load_checkpoint,
    "load_delimited labeled": load_delimited,
    "load_delimited labeled k=3": lambda p: load_delimited(p, k=3),
}


@pytest.mark.parametrize("reader", READERS)
@FUZZ
@given(content=st.binary(max_size=300))
def test_arbitrary_bytes_raise_only_data_error(reader, content, path):
    only_data_error(READERS[reader], path, content)


@FUZZ
@given(text=records(st.lists(st.sampled_from(["ID", "OOD", "id", "", "X,"]) | NUMBERS,
                             min_size=1, max_size=3)))
def test_near_valid_score_dumps(text, path):
    only_data_error(read_scores, path, text)


@pytest.mark.parametrize("k", [None, 3])
@FUZZ
@given(text=records(st.lists(NUMBERS | st.sampled_from(["#", "# c"]), min_size=1,
                             max_size=4)))
def test_near_valid_delimited_files(k, text, path):
    only_data_error(lambda p: load_delimited(p, k=k), path, text)


@pytest.fixture(scope="module")
def checkpoint_lines(tmp_path_factory):
    good = tmp_path_factory.mktemp("ckpt") / "good.txt"
    save_checkpoint(init_model((2, 3, 2), seed=0), good, "abc")
    return good.read_text().splitlines()


@FUZZ
@given(data=st.data())
def test_near_valid_checkpoints(data, checkpoint_lines, path):
    """A valid checkpoint with a few lines dropped, duplicated or with one
    space-separated token replaced."""
    lines = [line.split(" ") for line in checkpoint_lines]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        edit = data.draw(st.sampled_from(["drop", "duplicate", "replace"]))
        if edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, list(lines[i]))
        else:
            j = data.draw(st.integers(0, len(lines[i]) - 1))
            lines[i][j] = data.draw(NUMBERS | st.sampled_from(["weight", "bias", "relu"]))
    only_data_error(load_checkpoint, path, "\n".join(" ".join(t) for t in lines) + "\n")
