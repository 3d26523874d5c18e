"""Property test of the config boundary: any JSON value validates or raises ConfigError."""

import json
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvsym.config import EXPERIMENT_KINDS, ExperimentConfig
from cvsym.errors import ConfigError

# Integers of any size, those beyond the float range included.
_INT = st.integers() | st.integers(-2 ** 1100, 2 ** 1100)

# Everything json.loads can return, NaN and ±Infinity included.
_JSON = st.recursive(
    st.none() | st.booleans() | _INT | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)

_NUMBER = _INT | st.floats(allow_nan=False, allow_infinity=False)

# Values of the declared type, so that the value checks behind the type
# checks are reached as well.
_TYPED = {
    "int": _INT,
    "float": _NUMBER,
    "str": st.sampled_from(EXPERIMENT_KINDS + ("none", "gaussian-mixture", "phase-diffusion",
                                               "amplitude-threshold", "roots-of-unity", "haar-sample")),
    "list[int]": st.lists(_INT, max_size=4),
    "list[float]": st.lists(_NUMBER, max_size=4),
    "int | list[int]": _INT | st.lists(_INT, max_size=4),
}



def _configs(value_for):
    return st.fixed_dictionaries({}, optional={f.name: value_for(f) for f in fields(ExperimentConfig)})


_CONFIGS = (_configs(lambda f: st.sampled_from(EXPERIMENT_KINDS) if f.name == "kind" else _TYPED[f.type])
            | _configs(lambda f: _JSON))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_CONFIGS | _JSON)
# Integers beyond the float range once escaped as OverflowError from the
# Cauchy-Schwarz budget and the mixture weight sum.
@example({"kind": "invariant-audit", "seed": 0, "n": 1, "audit_symp_xy": 2 ** 1100})
@example({"kind": "keyrate-report", "seed": 0, "n": 1, "perturbation": "gaussian-mixture",
          "mixture_weights": [2 ** 1100], "mixture_transmittances": [0.5], "mixture_excess_noises": [0.1]})
def test_config_boundary_raises_only_config_error(data):
    data = json.loads(json.dumps(data))
    try:
        ExperimentConfig.from_dict(data).validate()
    except ConfigError:
        pass
