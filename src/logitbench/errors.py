"""Exception hierarchy shared across the workbench, and the text-file reader
that maps a missing or undecodable file into it.

Exit-code mapping for the CLI lives in cli.py: ConfigError -> 1,
DataError (ShapeError included) -> 2, AllSeedsDiverged -> 3;
harness.train_cell catches DivergedError.
"""

from typing import Iterator


class ConfigError(ValueError):
    """A configuration value is invalid or an unknown key was supplied."""


class DataError(ValueError):
    """Input data is malformed (bad labels, ragged files, non-finite values)."""


class ShapeError(DataError):
    """Operand shapes are incompatible."""


class ContractError(RuntimeError):
    """An API precondition was violated (e.g. backward on a non-scalar)."""


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
