"""Exception hierarchy shared across the workbench, the text-file reader
that maps a missing or undecodable file into it, and kind_params.

Exit-code mapping for the CLI lives in cli.py: ConfigError -> 1,
DataError (ShapeError included) -> 2, AllSeedsDiverged -> 3;
harness.train_cell catches DivergedError.
"""

from typing import Iterator, Optional


class ConfigError(ValueError):
    """A configuration value is invalid or an unknown key was supplied."""


class DataError(ValueError):
    """Input data is malformed (bad labels, ragged files, non-finite values)."""


class ShapeError(DataError):
    """Operand shapes are incompatible."""


class DivergedError(RuntimeError):
    """Training produced a non-finite loss, parameter or logit."""

    def __init__(self, epoch: int, step: int):
        super().__init__(f"non-finite loss at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step


class AllSeedsDiverged(RuntimeError):
    """Every seed of an experiment diverged; nothing to aggregate."""


def read_lines(path, error: type[ValueError] = DataError) -> Iterator[str]:
    """The lines of a UTF-8 text file, read one at a time. A file that
    cannot be opened or read, or is not UTF-8, raises `error` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def kind_params(table: dict, axis: str, kind: str, params: Optional[dict] = None) -> dict:
    """Every parameter of `kind` on `axis` ("loss", "score" or "OOD"): the
    defaults of table[kind] updated by params. The table maps a name to
    (default, accepted range), the range an interval such as "(0, inf)" or
    "[0, 1e6]"; an int default marks a count, whose value must be an int.
    Raises ConfigError for an unknown kind or name, or a value out of range."""
    if kind not in table:
        raise ConfigError(f"unknown {axis} kind {kind!r}, expected one of {tuple(table)}")
    params = params or {}
    unknown = set(params) - set(table[kind])
    if unknown:
        raise ConfigError(f"unknown params for {axis} kind {kind!r}: {sorted(unknown)}")
    full = {}
    for name, (default, interval) in table[kind].items():
        value = params.get(name, default)
        low, high = (float(end) for end in interval[1:-1].split(","))
        if ((type(default) is int and type(value) is not int)
                or not (low < value if interval[0] == "(" else low <= value)
                or not (value < high if interval[-1] == ")" else value <= high)):
            what = "an integer" if type(default) is int else "a number"
            raise ConfigError(f"{kind} param {name} must be {what} in {interval}, got {value!r}")
        full[name] = type(default)(value)
    return full
