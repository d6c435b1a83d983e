"""Property tests over the three text and byte inputs a user hands to pamr,
and over the fps and kNN kernels.

Every input must either load or raise a PamrError subclass, which the CLI
turns into `error: ...` and exit code 1; any other exception is a crash.
The kernels must return exactly the indices of their reference oracles on
clouds full of ties. Examples are derandomized and no example database is
kept, so a run is repeatable and leaves nothing in the checkout.
"""
import itertools
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from _oracles import fps_reference, knn_reference, pyramid_reference
from pamr.checkpoint import MAGIC, VERSION, decode_checkpoint, encode_checkpoint
from pamr.config import ModelConfig, TrainConfig, parse_config_text, split_mapping
from pamr.data import parse_xyz
from pamr.errors import PamrError
from pamr.geometry import build_scale_pyramid, fps, knn

# To report a failing example, Hypothesis imports `hypothesis.extra._patching`,
# whose libcst import warns (mypy_extensions' TypedDict is deprecated). Under
# `filterwarnings = error` that warning would stop the whole session with an
# INTERNALERROR, so the module is imported once here with it silenced, and a
# failing property stays one failed test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # its optional dependencies are missing; nothing warns then
        pass

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


# -- fps and kNN kernels -----------------------------------------------------

# Small integer coordinates make many equal distances. The six orderings of
# a float triple are equally far from the origin in exact arithmetic, and
# rounding alone decides their order, so the sum order of dx*dx + dy*dy +
# dz*dz shows. Scaled by 1e160 the squared distances overflow to inf, by
# 1e-170 they underflow to 0, and by 1e-160 they are subnormal. Up to 64
# points, so kNN runs both its full-sort and its partial-selection path.
_SCALES = st.sampled_from([1.0, 0.5, 1e160, 1e-160, 1e-170])
_TRIPLES = st.lists(
    st.tuples(*[st.floats(-4.0, 4.0, allow_subnormal=False)] * 3), min_size=1, max_size=10
)


@st.composite
def tie_clouds(draw, min_size=1, max_size=64):
    if draw(st.booleans()):
        n = draw(st.integers(min_size, max_size))
        coords = draw(st.lists(st.integers(-2, 2), min_size=3 * n, max_size=3 * n))
    else:
        points = [(0.0, 0.0, 0.0)] + [p for t in draw(_TRIPLES) for p in itertools.permutations(t)]
        coords = [v for p in draw(st.permutations(points)) for v in p]
    return np.array(coords, dtype=np.float64).reshape(-1, 3) * draw(_SCALES)


@SETTINGS
@given(tie_clouds(), tie_clouds())
def test_knn_matches_full_sort_for_every_k(queries, refs):
    with np.errstate(over="ignore"):
        full = knn_reference(queries, refs, refs.shape[0])
        for k in range(1, refs.shape[0] + 1):
            np.testing.assert_array_equal(knn(queries, refs, k), full[:, :k])


@SETTINGS
@given(tie_clouds())
def test_fps_matches_exhaustive_max_min(points):
    with np.errstate(over="ignore"):
        full = fps_reference(points, points.shape[0])
        for m in range(1, points.shape[0] + 1):
            np.testing.assert_array_equal(fps(points, m), full[:m])


@st.composite
def pyramid_args(draw):
    points = draw(tie_clouds(min_size=3))
    n = points.shape[0]
    s1 = draw(st.integers(2, n))
    sizes = (s1, draw(st.integers(1, s1 - 1)))
    ks = (draw(st.integers(1, n)), draw(st.integers(1, s1)))
    return points, sizes, ks


@SETTINGS
@given(pyramid_args())
def test_pyramid_is_fps_and_knn_level_by_level(args):
    points, sizes, ks = args
    with np.errstate(over="ignore"):
        pyr = build_scale_pyramid(points, sizes, ks)
        sample_idx, neighbors, levels = pyramid_reference(
            points, sizes, ks, fps_reference, knn_reference
        )
    for i in range(len(sizes)):
        np.testing.assert_array_equal(pyr.sample_idx[i], sample_idx[i])
        np.testing.assert_array_equal(pyr.neighbors[i], neighbors[i])
        np.testing.assert_array_equal(pyr.points[i + 1], levels[i + 1])
