"""Fuzz the config reader: whatever JSON value sits at any key path of
configs/desk.json, `config_from_dict` either returns a config that
round-trips through `config_to_dict` or raises ConfigError."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from logitbench.errors import ConfigError
from logitbench.harness import config_from_dict, config_to_dict

from conftest import CONFIGS, replaced

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

DESK = json.loads((CONFIGS / "desk.json").read_text())


def key_paths(value, prefix=()):
    """Every key path into value, the empty path (the whole document) first."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from key_paths(child, prefix + (key,))


PATHS = list(key_paths(DESK))
KEYS = sorted({key for path in PATHS for key in path if isinstance(key, str)})

# Values next to valid ones (zero, negatives, the kinds, booleans) and
# beyond them (NaN, infinities, integers too large for a float).
SCALARS = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([0, -1, 1, 2, 10**400, -10**400, 2**63, 0.5, "msp",
                              "cross_entropy", "logit_norm", "gaussian_noise", "blobs"]))
JSON = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner,
                                     max_size=4)),
    max_leaves=12)


@FUZZ
@given(path=st.sampled_from(PATHS), value=JSON)
def test_any_value_at_any_key_raises_only_config_error(path, value):
    try:
        cfg = config_from_dict(replaced(DESK, path, value))
    except ConfigError:
        return
    assert config_from_dict(config_to_dict(cfg)) == cfg
