"""Property tests over the three text and byte inputs a user hands to pamr.

Every input must either load or raise a PamrError subclass, which the CLI
turns into `error: ...` and exit code 1; any other exception is a crash.
Examples are derandomized and no example database is kept, so a run is
repeatable and leaves nothing in the checkout.
"""
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from pamr.checkpoint import MAGIC, VERSION, decode_checkpoint, encode_checkpoint
from pamr.config import ModelConfig, TrainConfig, parse_config_text, split_mapping
from pamr.data import parse_xyz
from pamr.errors import PamrError

# Hypothesis caches the constants it finds in local modules, at collection
# time, under `.hypothesis/` in the working directory unless told otherwise.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "pamr-hypothesis")
SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def loads_or_pamr_error(load, arg) -> None:
    try:
        load(arg)
    except PamrError:
        pass


# -- checkpoints ---------------------------------------------------------------

_rng = np.random.default_rng(0)
_PARAMS = {"a.bias": _rng.normal(size=(4,)), "b.weight": _rng.normal(size=(2, 3))}
_ONES = {k: np.ones_like(v) for k, v in _PARAMS.items()}
VALID = [
    encode_checkpoint(_PARAMS, "0123456789abcdef", 3),
    encode_checkpoint(_PARAMS, "0123456789abcdef", 3, (3, _ONES, _ONES)),
]
HEADER = MAGIC + VERSION.to_bytes(4, "little")


@st.composite
def damaged_checkpoints(draw) -> bytes:
    payload = bytearray(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(0, 4))):
        payload[draw(st.integers(0, len(payload) - 1))] = draw(st.integers(0, 255))
    return bytes(payload[: draw(st.integers(0, len(payload)))])


@SETTINGS
@given(st.one_of(st.binary(max_size=200), st.binary(max_size=200).map(lambda b: HEADER + b)))
def test_checkpoint_from_arbitrary_bytes(payload):
    loads_or_pamr_error(decode_checkpoint, payload)


@SETTINGS
@given(damaged_checkpoints())
def test_checkpoint_with_flipped_and_cut_bytes(payload):
    loads_or_pamr_error(decode_checkpoint, payload)


# -- .xyz clouds ---------------------------------------------------------------

_TOKEN = st.one_of(
    st.floats().map(repr),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["#", "label", "nan", "-inf", "1e999", "x", ""]),
)
_LINE = st.lists(_TOKEN, max_size=4).map(" ".join)
_LABEL = st.integers(-(2**70), 2**70).map(lambda n: f"# label {n}\n")
_LINES = st.lists(_LINE, max_size=8).map("\n".join)
XYZ_TEXT = st.one_of(
    st.text(max_size=200),
    st.tuples(st.one_of(st.just(""), _LABEL), _LINES).map("".join),
)


@SETTINGS
@given(XYZ_TEXT)
def test_xyz_from_arbitrary_text(text):
    loads_or_pamr_error(parse_xyz, text)


# -- config files --------------------------------------------------------------

_KEYS = ModelConfig.field_names() + TrainConfig.field_names()
_VALUE = st.one_of(
    st.integers(-3, 8).map(str),
    st.integers(-(2**40), 2**40).map(str),
    st.floats().map(repr),
    st.lists(st.integers(-3, 600), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["true", "false", "yes", "off", "maybe"]),
    st.text(max_size=8),
)
_PAIR = st.tuples(st.one_of(st.sampled_from(_KEYS), st.text(max_size=6)), _VALUE)
CONFIG_TEXT = st.lists(_PAIR, max_size=4).map(
    lambda pairs: "\n".join(f"{k} = {v}" for k, v in pairs)
)


@SETTINGS
@given(CONFIG_TEXT)
def test_config_from_key_value_text(text):
    loads_or_pamr_error(lambda t: split_mapping(parse_config_text(t)), text)
