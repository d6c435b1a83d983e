"""Property tests over the three text and byte inputs a user hands to pamr,
over the fps and kNN kernels, and over the model's packs of clouds.

Every input must either load or raise a PamrError subclass, which the CLI
turns into `error: ...` and exit code 1; any other exception is a crash.
The kernels must return exactly the indices of their reference oracles on
clouds full of ties, one cloud or a stack of them. A pack's stacked pyramid must hold each cloud's own
pyramid in the cloud's own rows, and a pack must give the loss, gradients
and features of the same clouds run one at a time (the features of a
no-grad pack bit for bit). Examples are derandomized
and no example database is kept, so a run is repeatable and leaves nothing
in the checkout.
"""
import itertools
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from _oracles import fps_reference, knn_reference, per_cloud_step, pyramid_reference, unstack_pack
from pamr import tensor as T
from pamr.backbone import CloudClassifier, MaskedAutoencoder
from pamr.checkpoint import MAGIC, VERSION, decode_checkpoint, encode_checkpoint
from pamr.config import ModelConfig, TrainConfig, parse_config_text, split_mapping
from pamr.data import parse_xyz
from pamr.errors import PamrError
from pamr.geometry import (
    build_scale_pyramid,
    fps,
    gather_patches,
    knn,
    mask_and_backproject,
    masked_rows,
    stack_pack,
)
from pamr.training import NO_GRAD_BUDGET, cloud_pyramids, pack_size, pooled_features

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
            idx, d2 = knn(queries[None], refs[None], k)
            np.testing.assert_array_equal(idx[0], full[:, :k])
            picked = np.take_along_axis(d2, idx, -1)
            assert np.all(picked[..., 1:] >= picked[..., :-1])  # not `diff`: inf - inf is nan
    # the distances knn picked from are, bit for bit, Python's (dx*dx + dy*dy) + dz*dz
    expected = [
        [(qx - rx) * (qx - rx) + (qy - ry) * (qy - ry) + (qz - rz) * (qz - rz) for rx, ry, rz in refs.tolist()]
        for qx, qy, qz in queries.tolist()
    ]
    np.testing.assert_array_equal(d2[0].view(np.int64), np.array(expected).view(np.int64))


@SETTINGS
@given(tie_clouds())
def test_fps_matches_exhaustive_max_min(points):
    with np.errstate(over="ignore"):
        full = fps_reference(points, points.shape[0])
        for m in range(1, points.shape[0] + 1):
            np.testing.assert_array_equal(fps(points[None], m)[0], full[:m])


@st.composite
def tie_stacks(draw, n_clouds):
    """`n_clouds` tie clouds cut to the point count of the smallest and
    stacked: (C, N, 3)."""
    clouds = [draw(tie_clouds()) for _ in range(n_clouds)]
    n = min(c.shape[0] for c in clouds)
    return np.stack([c[:n] for c in clouds])


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda c: st.tuples(tie_stacks(c), tie_stacks(c))), st.data())
def test_stacked_fps_and_knn_match_the_references_cloud_by_cloud(stacks, data):
    queries, refs = stacks
    m = data.draw(st.integers(1, refs.shape[1]))
    k = data.draw(st.integers(1, refs.shape[1]))
    with np.errstate(over="ignore"):
        sel, near = fps(refs, m), knn(queries, refs, k)[0]
        assert sel.shape == (refs.shape[0], m) and near.shape == queries.shape[:2] + (k,)
        for c in range(refs.shape[0]):
            np.testing.assert_array_equal(sel[c], fps_reference(refs[c], m))
            np.testing.assert_array_equal(near[c], knn_reference(queries[c], refs[c], k))


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
        pyr = build_scale_pyramid(points[None], sizes, ks)[0]
        sample_idx, neighbors, levels = pyramid_reference(
            points, sizes, ks, fps_reference, knn_reference
        )
    for i in range(len(sizes)):
        np.testing.assert_array_equal(pyr.sample_idx[i], sample_idx[i])
        np.testing.assert_array_equal(pyr.neighbors[i], neighbors[i])
        np.testing.assert_array_equal(pyr.points[i + 1], levels[i + 1])


# -- packs ---------------------------------------------------------------------

# the quick config, the acceptance-07 desk architecture, and three scales,
# whose decoder propagates between clouds' coarse and fine sets; its top
# patches (k = 2) leave scale-2 centers masked on every draw
PACK_CONFIGS = {
    "quick": ModelConfig.tiny(),
    "desk": ModelConfig(
        n_points=128, sizes=(32, 16), ks=(8, 8), dims=(16, 32), heads=2,
        encoder_blocks=1, decoder_blocks=1, la_window=3, la_groups=4,
    ),
    "three-scale": ModelConfig(
        n_points=64, sizes=(32, 16, 8), ks=(4, 4, 2), dims=(8, 16, 16), heads=2,
        encoder_blocks=1, decoder_blocks=1, la_window=3, la_groups=4,
    ),
}


@settings(max_examples=24, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(PACK_CONFIGS)), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_stack_pack_keeps_each_cloud_in_its_own_rows(config, n_clouds, seed):
    cfg = PACK_CONFIGS[config]
    rng = np.random.default_rng(seed)
    # raw counts differ between clouds: loading a dataset does not resample to n_points
    raw = rng.integers(cfg.sizes[0], 2 * cfg.n_points, size=n_clouds)
    pyramids = cloud_pyramids([rng.normal(size=(n, 3)) for n in raw], cfg)
    plans = [mask_and_backproject(pyr, 0.6, rng) for pyr in pyramids]
    pyr, plan = stack_pack(pyramids, plans)

    def same(a, b):
        assert len(a) == len(b) and all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))

    def levels(p):
        return p.points + p.sample_idx + p.neighbors + p.offsets

    for level in range(len(cfg.sizes) + 1):
        assert pyr.offsets[level].tolist() == [0] + np.cumsum([p.size_at(level) for p in pyramids]).tolist()
    # cut back at the offsets, every cloud's levels and indices are its own
    # pyramid's, so each shifted index lands in its own cloud's rows
    cuts = unstack_pack(pyr)
    assert len(cuts) == n_clouds
    for own, cut in zip(pyramids, cuts):
        same(levels(own), levels(cut))
    for scale in range(1, len(cfg.sizes) + 1):
        for rows in (lambda p, q: q.visible[scale], lambda p, q: masked_rows(p, q, scale)):
            want = [rows(p, q) + lo for p, q, lo in zip(pyramids, plans, pyr.offsets[scale])]
            same([rows(pyr, plan)], [np.concatenate(want)])
        own = [gather_patches(p, scale, np.arange(p.size_at(scale))) for p in pyramids]
        same([gather_patches(pyr, scale, np.arange(pyr.size_at(scale)))], [np.concatenate(own)])

    one, one_plan = stack_pack(pyramids[:1], plans[:1])
    same(levels(one) + one_plan.visible[1:], levels(pyramids[0]) + plans[0].visible[1:])


@settings(max_examples=24, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(sorted(PACK_CONFIGS)),
    st.booleans(),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_pack_matches_its_clouds_one_at_a_time(config, zero_scale_head, n_clouds, seed):
    base = PACK_CONFIGS[config]
    cfg = ModelConfig(**{**base.as_dict(), "zero_scale_head": zero_scale_head})
    rng = np.random.default_rng(seed)
    pyramids = cloud_pyramids([rng.normal(size=(cfg.n_points, 3)) for _ in range(n_clouds)], cfg)
    plans = [mask_and_backproject(pyr, 0.6, rng) for pyr in pyramids]
    model = MaskedAutoencoder(cfg, rng)
    params = model.param_dict()

    loss = model.loss(*stack_pack(pyramids, plans))
    loss.backward()
    packed = {name: p.grad.copy() for name, p in params.items()}
    for p in params.values():
        p.zero_grad()
    ref, _ = per_cloud_step(np.arange(n_clouds), lambda i: (model.loss(pyramids[i], plans[i]), None))
    assert abs(loss.item() - ref) <= 1e-12 * abs(ref)
    scale = max(np.abs(p.grad).max() for p in params.values())
    for name, p in params.items():
        assert np.abs(packed[name] - p.grad).max() <= 1e-12 * scale, name

    clf = CloudClassifier(cfg, 3, (8,), rng)
    with T.no_grad():
        feats = clf.features(stack_pack(pyramids)[0]).data
        one_by_one = np.concatenate([clf.features(pyr).data for pyr in pyramids])
    assert feats.shape == one_by_one.shape
    assert np.abs(feats - one_by_one).max() <= 1e-12


@pytest.mark.parametrize("config", sorted(PACK_CONFIGS))
def test_pooled_feature_rows_are_those_of_one_cloud_packs(config):
    cfg = PACK_CONFIGS[config]
    rng = np.random.default_rng(5)
    n_clouds = pack_size(cfg, NO_GRAD_BUDGET) + 2  # a full no-grad pack and a remainder of two
    pyramids = cloud_pyramids([rng.normal(size=(cfg.n_points, 3)) for _ in range(n_clouds)], cfg)
    clf = CloudClassifier(cfg, 3, (8,), rng)
    alone = np.concatenate([pooled_features(clf, [pyr]) for pyr in pyramids])
    assert pooled_features(clf, pyramids).tobytes() == alone.tobytes()
