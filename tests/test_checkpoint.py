import numpy as np
import pytest

from _oracles import SENTINEL, with_sentinel_as
from pamr import tensor as T
from pamr.backbone import MaskedAutoencoder
from pamr.checkpoint import (
    apply_params,
    decode_checkpoint,
    encode_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
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
        data = load_checkpoint(p, expect_fingerprint="f" * 16, allow_mismatch=True)
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
        pyr = build_scale_pyramid(pts, TINY.sizes, TINY.ks)
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
