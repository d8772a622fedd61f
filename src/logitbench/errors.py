"""Exception hierarchy shared across the workbench.

Exit-code mapping for the CLI lives in cli.py: ConfigError -> 1,
DataError -> 2, AllSeedsDiverged -> 3; harness.train_cell catches DivergedError.
"""


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class ConfigError(ValueError):
    """A configuration value is invalid or an unknown key was supplied."""


class DataError(ValueError):
    """Input data is malformed (bad labels, ragged files, non-finite values)."""


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
