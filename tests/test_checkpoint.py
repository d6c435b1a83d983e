import io
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from _oracles import SENTINEL, with_sentinel_as
from pamr import tensor as T
from pamr.backbone import CloudClassifier, MaskedAutoencoder
from pamr.checkpoint import (
    _RETIRED,
    _read_checkpoint,
    apply_params,
    decode_checkpoint,
    encode_checkpoint,
    load_checkpoint,
    load_encoder_weights,
    save_checkpoint,
)
from pamr.cli import main
from pamr.config import ModelConfig, TrainConfig, model_fingerprint
from pamr.data import ShapeSpec, gen_shapes
from pamr.errors import CheckpointCompatibilityError, CheckpointFormatError
from pamr.geometry import build_scale_pyramid, mask_and_backproject, normalize_points
from pamr.training import AdamW, pretrain_run

TINY = ModelConfig.tiny()
FP = "0123456789abcdef"


def tiny_params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "b.weight": rng.normal(size=(3, 4)),
        "a.bias": rng.normal(size=(4,)),
        "c.scalarish": rng.normal(size=(1,)),
    }


class TestRoundTrip:
    def test_params_bitwise(self, tmp_path):
        params = tiny_params()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, params, FP, step=17)
        data = load_checkpoint(p, expect_fingerprint=FP)
        assert data.step == 17
        assert data.fingerprint == FP
        assert set(data.params) == set(params)
        for k in params:
            assert np.array_equal(data.params[k], params[k])

    def test_save_load_save_bytes_identical(self, tmp_path):
        params = tiny_params()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, params, FP, step=3)
        data = load_checkpoint(a, expect_fingerprint=FP)
        save_checkpoint(b, data.params, data.fingerprint, data.step)
        assert a.read_bytes() == b.read_bytes()

    def test_optimizer_state_round_trip(self, tmp_path):
        params = {k: T.param(v) for k, v in tiny_params().items()}
        opt = AdamW(params, lr=0.1)
        for p in params.values():
            p._grad = np.random.default_rng(1).normal(size=p.shape)
        opt.step()
        path = tmp_path / "o.ckpt"
        save_checkpoint(path, params, FP, step=1, opt_state=opt.state_arrays())
        data = load_checkpoint(path, expect_fingerprint=FP)
        assert data.opt_t == 1
        for k in params:
            assert np.array_equal(data.opt_m[k], opt.m[k])
            assert np.array_equal(data.opt_v[k], opt.v[k])
        # and byte-identity survives the optimizer section too
        path2 = tmp_path / "o2.ckpt"
        save_checkpoint(path2, data.params, FP, 1, (data.opt_t, data.opt_m, data.opt_v))
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("through", ["bytes", "file"])
    def test_zero_d_entry_keeps_its_shape(self, tmp_path, through):
        params = {"s": np.float64(2.0)}
        if through == "bytes":
            data = decode_checkpoint(encode_checkpoint(params, FP, 0))
        else:
            save_checkpoint(tmp_path / "s.ckpt", params, FP, 0)
            data = load_checkpoint(tmp_path / "s.ckpt", expect_fingerprint=FP)
        assert data.params["s"].shape == ()
        assert data.params["s"] == 2.0

    def test_entries_stored_sorted(self):
        payload = encode_checkpoint(tiny_params(), FP, 0)
        pos_a = payload.find(b"a.bias")
        pos_b = payload.find(b"b.weight")
        pos_c = payload.find(b"c.scalarish")
        assert 0 < pos_a < pos_b < pos_c


class TestValidation:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOPE!" + b"\x00" * 40)
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(p)

    def test_truncation_everywhere(self, tmp_path):
        params = tiny_params()
        payload = encode_checkpoint(params, FP, step=5)
        # chop at several depths: header, mid-name, mid-payload, end
        for cut in (3, 9, 30, len(payload) // 2, len(payload) - 1):
            with pytest.raises(CheckpointFormatError):
                decode_checkpoint(payload[:cut])

    @staticmethod
    def with_dims(dims) -> bytes:
        payload = encode_checkpoint({"w": np.zeros(1)}, FP, step=0)
        header = struct.pack("<H", 1) + b"w" + struct.pack("<BI", 1, 1)
        assert payload.count(header) == 1
        huge = struct.pack("<H", 1) + b"w" + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
        return payload.replace(header, huge)

    @pytest.mark.parametrize("dims", [(2**31, 2**31, 4), (2**32 - 1, 2**32 - 1), (65536,) * 4])
    def test_dims_past_int64_read_as_truncation(self, tmp_path, dims):
        payload = self.with_dims(dims)
        with pytest.raises(CheckpointFormatError, match="truncated"):
            decode_checkpoint(payload)
        path = tmp_path / "huge.ckpt"
        path.write_bytes(payload)
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    def test_zero_dim_beside_overflowing_dims_is_a_format_error(self):
        payload = self.with_dims((0, 2**32 - 1, 2**32 - 1, 2**32 - 1))
        with pytest.raises(CheckpointFormatError, match="impossible shape"):
            decode_checkpoint(payload)

    def test_stream_shorter_than_its_stated_size(self):
        # a file that shrinks after its size was read: cut inside the magic,
        # and inside the one array's payload (8 floats, then the opt flag)
        payload = encode_checkpoint({"w": np.ones(8)}, FP, step=0)
        for cut in (3, len(payload) - 1 - 8):
            with pytest.raises(CheckpointFormatError, match="^<cut>: truncated checkpoint$"):
                _read_checkpoint(io.BytesIO(payload[:cut]), len(payload), "<cut>")

    @pytest.mark.parametrize(
        "second, message",
        [("p1", "duplicate entry 'p1'"), ("p0", "entries not in canonical order")],
        ids=["duplicate", "unsorted"],
    )
    def test_entries_are_unique_and_sorted(self, second, message):
        payload = encode_checkpoint({"p1": np.zeros(2), "p2": np.zeros(2)}, FP, step=0)
        name = struct.pack("<H", 2) + b"p2"
        assert payload.count(name) == 1
        crafted = payload.replace(name, struct.pack("<H", 2) + second.encode())
        with pytest.raises(CheckpointFormatError, match=f"^<bytes>: {message}$"):
            decode_checkpoint(crafted)

    def test_writer_refuses_a_name_past_a_u16_length(self):
        with pytest.raises(CheckpointFormatError, match="^name too long: 65536 bytes$"):
            encode_checkpoint({"w" * 65536: np.zeros(1)}, FP, step=0)

    def test_writer_refuses_optimizer_names_that_differ(self):
        params = tiny_params()
        moments = {**params, "extra": np.zeros(1)}
        with pytest.raises(CheckpointFormatError, match="^optimizer state names do not match parameters$"):
            encode_checkpoint(params, FP, 0, (1, moments, params))

    def test_trailing_garbage_rejected(self):
        payload = encode_checkpoint(tiny_params(), FP, 0) + b"\x00"
        with pytest.raises(CheckpointFormatError, match="trailing"):
            decode_checkpoint(payload)

    def test_invalid_utf8_strings_rejected(self):
        payload = encode_checkpoint(tiny_params(), FP, step=1)
        for offset in (5 + 4 + 2, 5 + 4 + 2 + len(FP) + 8 + 4 + 2):  # fingerprint, first name
            bad = bytearray(payload)
            bad[offset] = 0xFF
            with pytest.raises(CheckpointFormatError, match="utf-8"):
                decode_checkpoint(bytes(bad))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_arrays_rejected_by_name(self, value):
        params = tiny_params()
        params["b.weight"][1, 2] = SENTINEL
        payload = with_sentinel_as(encode_checkpoint(params, FP, step=1), value)
        with pytest.raises(CheckpointFormatError, match="'b.weight' holds non-finite"):
            decode_checkpoint(payload)
        params = tiny_params()
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(a) for k, a in params.items()}
        v["a.bias"][0] = SENTINEL
        payload = encode_checkpoint(params, FP, step=1, opt_state=(1, m, v))
        payload = with_sentinel_as(payload, value)
        with pytest.raises(CheckpointFormatError, match="optimizer v of 'a.bias'"):
            decode_checkpoint(payload)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["entry", "optimizer m of", "optimizer v of"])
    def test_non_finite_arrays_never_written(self, tmp_path, where, value):
        params = tiny_params()
        m = {k: np.zeros_like(a) for k, a in params.items()}
        v = {k: np.zeros_like(a) for k, a in params.items()}
        arrays = {"entry": params, "optimizer m of": m, "optimizer v of": v}[where]
        arrays["c.scalarish"][0] = value
        with pytest.raises(CheckpointFormatError, match=f"{where} 'c.scalarish' holds non-finite"):
            save_checkpoint(tmp_path / "x.ckpt", params, FP, step=1, opt_state=(1, m, v))
        assert list(tmp_path.iterdir()) == []

    def test_missing_file_is_a_format_error(self, tmp_path):
        with pytest.raises(CheckpointFormatError, match="cannot read checkpoint"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_wrong_version(self):
        payload = bytearray(encode_checkpoint(tiny_params(), FP, 0))
        payload[5] = 99
        with pytest.raises(CheckpointFormatError, match="version"):
            decode_checkpoint(bytes(payload))

    def test_fingerprint_mismatch_and_override(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, tiny_params(), FP, 0)
        with pytest.raises(CheckpointCompatibilityError, match="fingerprint"):
            load_checkpoint(p, expect_fingerprint="f" * 16)
        data = load_checkpoint(p)  # the override: no fingerprint to expect
        assert data.fingerprint == FP

    def test_failed_write_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.ckpt"

        class Boom:
            shape = (2,)

            def __array__(self, dtype=None):
                raise RuntimeError("boom")

        with pytest.raises(Exception):
            save_checkpoint(target, {"p": Boom()}, FP, 0)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


def opt_state_of(params, seed=1):
    rng = np.random.default_rng(seed)
    m = {k: rng.normal(size=a.shape) for k, a in params.items()}
    v = {k: rng.uniform(size=a.shape) for k, a in params.items()}
    return 7, m, v


class TestStreaming:
    @pytest.mark.parametrize("with_opt", [False, True])
    def test_save_writes_exactly_the_encoded_bytes(self, tmp_path, with_opt):
        params = tiny_params()
        opt = opt_state_of(params) if with_opt else None
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, params, FP, 4, opt)
        assert path.read_bytes() == encode_checkpoint(params, FP, 4, opt)

    def test_load_equals_decode_and_owns_writable_arrays(self, tmp_path):
        params = tiny_params()
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, params, FP, 9, opt_state_of(params))
        loaded = load_checkpoint(path)
        decoded = decode_checkpoint(path.read_bytes())
        assert (loaded.fingerprint, loaded.step, loaded.opt_t) == (
            decoded.fingerprint, decoded.step, decoded.opt_t
        )
        for field in ("params", "opt_m", "opt_v"):
            got, want = getattr(loaded, field), getattr(decoded, field)
            assert list(got) == list(want)
            for name in want:
                for arr in (got[name], want[name]):
                    assert arr.dtype == np.float64
                    assert arr.flags.owndata and arr.flags.writeable
                assert got[name].tobytes() == want[name].tobytes()

    def test_failed_save_keeps_older_file(self, tmp_path):
        params = tiny_params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, FP, 1)
        older = path.read_bytes()
        t, m, v = opt_state_of(params)
        last = sorted(params)[-1]
        v[last].flat[-1] = np.nan
        with pytest.raises(CheckpointFormatError, match=f"optimizer v of {last!r}"):
            save_checkpoint(path, params, FP, 2, (t, m, v))
        assert path.read_bytes() == older
        assert list(tmp_path.iterdir()) == [path]
        assert not list(tmp_path.glob("*.tmp"))


class TestModelIntegration:
    def test_forward_reproduced_bitwise_after_reload(self, tmp_path):
        clouds = gen_shapes([ShapeSpec("torus", 64, 0.02, seed=3, label=0)] * 2)
        cfg = TrainConfig(
            epochs=2, batch_size=2, base_lr=1e-3, warmup_epochs=1, seed=4,
            mask_ratio=0.6, augment=False,
        )
        pre = pretrain_run(clouds, TINY, cfg)
        fp = model_fingerprint(TINY)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, pre.model.param_dict(), fp, 2)

        pts = normalize_points(clouds[0].points)
        pyr = build_scale_pyramid(pts[None], TINY.sizes, TINY.ks)[0]
        plan = mask_and_backproject(pyr, 0.6, np.random.default_rng(0))
        with T.no_grad():
            want = pre.model.loss(pyr, plan).item()

        fresh = MaskedAutoencoder(TINY, np.random.default_rng(999))
        apply_params(fresh, load_checkpoint(path, expect_fingerprint=fp).params)
        with T.no_grad():
            got = fresh.loss(pyr, plan).item()
        assert got == want

    def test_apply_params_rejects_wrong_names(self):
        model = MaskedAutoencoder(TINY, np.random.default_rng(0))
        params = {k: v.data for k, v in model.param_dict().items()}
        params.pop(sorted(params)[0])
        with pytest.raises(CheckpointCompatibilityError, match="missing"):
            apply_params(model, params)

    def test_apply_params_rejects_wrong_shape(self):
        model = MaskedAutoencoder(TINY, np.random.default_rng(0))
        params = {k: v.data for k, v in model.param_dict().items()}
        first = sorted(params)[0]
        params[first] = np.zeros(np.array(params[first]).shape + (2,))
        with pytest.raises(CheckpointCompatibilityError, match="shape"):
            apply_params(model, params)


class TestRetiredEntries:
    """v1 files written before the untrainable gate biases and attention key
    biases were deleted still load: the reader drops exactly those entries."""

    CFG = replace(ModelConfig(), dims=(12, 24, 48))  # the default's blocks at small widths
    LOOK_ALIKES = [
        "old.attn.wk.weight",
        "old.attn.wq.bias",
        "old.gate_a.avg_kernel",
        "encoder.tokenizer.gate_c.avg_bias",
        "encoder.stages.0.0.xattn.wk.bias",
        "encoder.tokenizer.gate_a.avg_bias.old",
    ]

    def old_payload(self, extra=()):
        """A v1 payload of the model's parameters plus the retired and `extra`
        names, with optimizer state, as the model, its arrays and the payload."""
        model = MaskedAutoencoder(self.CFG, np.random.default_rng(0))
        params = {n: p.data for n, p in model.param_dict().items()}
        rng = np.random.default_rng(1)
        old = dict(params)
        for g in "ab":
            for branch in ("avg", "max"):
                old[f"encoder.tokenizer.gate_{g}.{branch}_bias"] = rng.normal(size=1) * 1e-17
        for name in params:
            if name.endswith("attn.wq.bias"):
                old[name.replace(".wq.", ".wk.")] = rng.normal(size=params[name].shape) * 1e-17
        retired = sorted(set(old) - set(params))
        for name in extra:
            old[name] = rng.normal(size=3)
        m = {n: rng.normal(size=a.shape) for n, a in old.items()}
        v = {n: rng.uniform(size=a.shape) for n, a in old.items()}
        payload = encode_checkpoint(old, FP, 5, (11, m, v))
        return model, retired, (params, m, v), payload

    def test_decode_drops_exactly_the_retired_entries(self):
        model, retired, (params, m, v), payload = self.old_payload()
        assert len(retired) == 21
        data = decode_checkpoint(payload)
        for table, want in ((data.params, params), (data.opt_m, m), (data.opt_v, v)):
            assert set(table) == set(params)
            for name, arr in table.items():
                assert arr.tobytes() == want[name].tobytes(), name
        assert (data.fingerprint, data.step, data.opt_t) == (FP, 5, 11)

    def test_result_loads_into_model_optimizer_and_classifier(self):
        model, _, _, payload = self.old_payload()
        data = decode_checkpoint(payload)
        apply_params(model, data.params)
        AdamW(model.param_dict(), lr=1e-3).load_state(data.opt_t, data.opt_m, data.opt_v)
        clf = CloudClassifier(self.CFG, 3, (8,), np.random.default_rng(2))
        # every encoder parameter, so few-shot still encodes each cloud once per call
        assert load_encoder_weights(clf, data.params) is True

    @pytest.mark.parametrize("name", LOOK_ALIKES)
    def test_look_alike_names_stay_and_are_rejected(self, name):
        model, _, _, payload = self.old_payload(extra=[name])
        data = decode_checkpoint(payload)
        assert name in data.params and name in data.opt_m and name in data.opt_v
        with pytest.raises(CheckpointCompatibilityError, match="extra"):
            apply_params(model, data.params)


QUICK_CFG = """
n_points = 64
sizes = 16,8
ks = 4,4
dims = 8,16
heads = 2
encoder_blocks = 1
decoder_blocks = 1
la_window = 3
la_groups = 4
epochs = 2
batch_size = 4
warmup_epochs = 0
"""


class TestV1BytesOfTheOldWriter:
    """`tests/data/v1-quick.ckpt` holds bytes the v1 writer wrote before the
    untrainable parameters were deleted: the tree of commit 4edbb25 ran
    `pamr gen-data --per-class 2 --kinds sphere,cube` and `pamr pretrain` on
    QUICK_CFG. Its 93 entries carry AdamW state; seven are retired names."""

    PATH = Path(__file__).parent / "data" / "v1-quick.ckpt"
    MODEL = ModelConfig(n_points=64, sizes=(16, 8), ks=(4, 4), dims=(8, 16), heads=2, encoder_blocks=1,
                        decoder_blocks=1, la_window=3, la_groups=4)

    def test_the_file_is_the_old_writers(self):
        raw = self.PATH.read_bytes()
        assert len(raw) == 221_711 and raw[:5] == b"PAMR1"
        assert struct.unpack_from("<I", raw, 5 + 4 + 2 + 16 + 8) == (93,)  # entries, after the fingerprint and step
        assert len(re.findall(rb"gate_[ab]\.(?:avg|max)_bias|attn\.wk\.bias", raw)) == 7

    def test_it_loads_under_the_fingerprint_check_without_its_retired_names(self):
        data = load_checkpoint(self.PATH, expect_fingerprint=model_fingerprint(self.MODEL))
        assert (data.step, data.opt_t) == (2, 2)
        for table in (data.params, data.opt_m, data.opt_v):
            assert len(table) == 86 and not any(map(_RETIRED.search, table))
        model = MaskedAutoencoder(self.MODEL, np.random.default_rng(0))
        apply_params(model, data.params)
        AdamW(model.param_dict(), lr=1e-3).load_state(data.opt_t, data.opt_m, data.opt_v)

    def test_pamr_reconstruct_runs_on_it(self, tmp_path, capsys):
        cfg, data, out = tmp_path / "quick.cfg", tmp_path / "data", tmp_path / "out"
        cfg.write_text(QUICK_CFG)
        assert main(["gen-data", "--config", str(cfg), "--out", str(data), "--per-class", "1",
                     "--kinds", "sphere,cube"]) == 0
        inputs = sorted(str(p) for p in data.glob("*.xyz"))
        assert main(["reconstruct", "--config", str(cfg), "--checkpoint", str(self.PATH), "--out", str(out),
                     *inputs]) == 0
        capsys.readouterr()
        stems = [Path(p).stem for p in inputs]
        want = {f"{s}.{kind}.xyz" for s in stems for kind in ("original", "masked", "reconstructed")}
        assert len(inputs) == 2 and {p.name for p in out.iterdir()} == want
