"""The config ranges: every numeric key has one in `config.BOUNDS` or a
cross-field rule, the README states each range as the table does, and
`config_from_dict` decides by it at and just past every end."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from ssbl.config import BOUNDS, ConfigError, config_from_dict, config_to_dict, default_config

DEFAULTS = config_to_dict(default_config())

# the numeric keys BOUNDS gives no range: a rule of FullConfig.validate bounds
# each of them
RULED_KEYS = {"proxemics.d_social", "proxemics.d_public", "spawn.robot_min_dist",
              "spawn.rng_seed", "reward_weights.sign_r1", "episode.max_steps"}

BOUNDED = [(f"{name}.{key}", bound)
           for name, bounds in BOUNDS.items() for key, bound in bounds.items()]


def is_numeric(default) -> bool:
    return (isinstance(default, (int, float, list))
            and not isinstance(default, bool))


def readme_rows() -> dict[str, tuple[str, str]]:
    """key -> (range, rule), from the README's configuration table."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return {key: (rng.strip(), rule.strip()) for key, rng, rule in re.findall(
        r"^\| `(\w+\.\w+)` \|[^|]*\|([^|]*)\|([^|]*)\|$", text, re.MULTILINE)}


def test_every_numeric_key_has_a_range_or_a_rule():
    """A new numeric key cannot land without a stated range (or a rule)."""
    numeric = {f"{name}.{key}" for name, section in DEFAULTS.items()
               for key, default in section.items() if is_numeric(default)}
    bounded = {key for key, _ in BOUNDED}
    assert not bounded & RULED_KEYS
    assert bounded | RULED_KEYS == numeric


def test_readme_lists_every_key():
    """Each key has a row; a ruled key states its rule in place of a range
    (the bounded keys' ranges are checked below)."""
    rows = readme_rows()
    assert set(rows) == {f"{name}.{key}" for name, section in DEFAULTS.items()
                         for key in section}
    for key in RULED_KEYS:
        assert rows[key][0] == "" and rows[key][1], key


def doc_with(key: str, value) -> dict:
    name, field = key.split(".")
    return {name: {field: [value] if isinstance(DEFAULTS[name][field], list)
                   else value}}


def refused(key: str, value) -> None:
    with pytest.raises(ConfigError, match=re.escape(key)):
        config_from_dict(doc_with(key, value))


@pytest.mark.parametrize("key, bound", BOUNDED, ids=[key for key, _ in BOUNDED])
def test_config_bounds_at_and_past_each_end(key, bound):
    """The README states the range as BOUNDS does, which pins the brackets.
    At a closed end the value is accepted, at an open one refused, and one
    step past either end (1 for an integer key, one float otherwise) is
    refused; -0.0 is refused where the range says so, else accepted at a
    closed 0."""
    assert readme_rows()[key][0] == str(bound)
    name, field = key.split(".")
    default = DEFAULTS[name][field]
    integer = isinstance(default, (int, list))
    for end, edge, outward in ((bound.ends[0], bound.low, -math.inf),
                               (bound.ends[1], bound.high, math.inf)):
        if math.isinf(edge):
            continue
        if end in "[]":
            config_from_dict(doc_with(key, edge))
        else:
            refused(key, edge)
        refused(key, edge + int(math.copysign(1, outward)) if integer
                else float(np.nextafter(edge, outward)))
    if bound.ends[0] == "[" and bound.low == 0 and not integer:
        if bound.no_minus_zero:
            refused(key, -0.0)
        else:
            config_from_dict(doc_with(key, -0.0))

