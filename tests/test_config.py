import dataclasses
import re
from pathlib import Path

import pytest

from pamr.config import (
    ModelConfig,
    TrainConfig,
    _coerce,
    load_config_file,
    model_fingerprint,
    parse_config_text,
    resolved_lines,
    split_mapping,
)
from pamr.errors import ConfigError


class TestParseText:
    def test_basic_pairs(self):
        text = "alpha = 3\nbeta = hello  # trailing comment\n\n# full comment\ngamma=1,2,3\n"
        assert parse_config_text(text) == {"alpha": "3", "beta": "hello", "gamma": "1,2,3"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\nnot a pair\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text(" = 5\n")

    def test_comment_only_value_is_missing_pair(self):
        with pytest.raises(ConfigError):
            parse_config_text("a  # = 1\n")


class TestModelConfig:
    def test_defaults_validate(self):
        cfg = ModelConfig()
        cfg.validate()
        assert cfg.sizes == (512, 256, 64)
        assert cfg.dims == (96, 192, 384)

    def test_tiny_validates(self):
        ModelConfig.tiny().validate()

    def test_from_mapping_coerces_tuples(self):
        cfg = ModelConfig.from_mapping(
            {"sizes": "16,8", "ks": "4,4", "dims": "8,16", "heads": "2",
             "n_points": "32", "encoder_blocks": "1", "decoder_blocks": "1",
             "la_window": "3", "la_groups": "4"}
        )
        assert cfg.sizes == (16, 8)
        assert cfg.dims == (8, 16)

    def test_size_chain_must_decrease(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_mapping({"sizes": "16,16", "ks": "4,4", "dims": "8,16",
                                      "heads": "2", "n_points": "32"})

    def test_heads_must_divide_dims(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_mapping({"sizes": "16,8", "ks": "4,4", "dims": "8,18",
                                      "heads": "4", "n_points": "32"})

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_mapping({"sizes": "16,8", "ks": "4,4", "dims": "8,16",
                                      "heads": "2", "n_points": "32", "la_window": "4"})

    @pytest.mark.parametrize("heads", ["0", "-2"])
    def test_heads_must_be_positive(self, heads):
        with pytest.raises(ConfigError, match="heads must be at least 1"):
            ModelConfig.from_mapping({"heads": heads})

    def test_both_branches_off_with_gate_on_rejected(self):
        with pytest.raises(ConfigError, match="set la_enabled = false"):
            ModelConfig(la_avg_branch=False, la_max_branch=False)
        cfg = ModelConfig(la_enabled=False, la_avg_branch=False, la_max_branch=False)
        assert cfg.la_enabled is False


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    def test_mask_ratio_domain(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_mapping({"mask_ratio": "1.0"})
        with pytest.raises(ConfigError):
            TrainConfig.from_mapping({"mask_ratio": "-0.1"})

    def test_warmup_must_fit_inside_epochs(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_mapping({"epochs": "5", "warmup_epochs": "5"})

    def test_seed_must_be_nonnegative(self):
        TrainConfig.from_mapping({"seed": "0"})
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            TrainConfig.from_mapping({"seed": "-1"})

    def test_bool_coercion(self):
        cfg = TrainConfig.from_mapping({"augment": "false", "freeze_backbone": "true"})
        assert cfg.augment is False
        assert cfg.freeze_backbone is True
        with pytest.raises(ConfigError):
            TrainConfig.from_mapping({"augment": "maybe"})


FLOAT_FIELDS = [
    f.name for cls in (ModelConfig, TrainConfig) for f in dataclasses.fields(cls)
    if isinstance(f.default, float)
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_non_finite_float_rejected(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        split_mapping({key: value})


@pytest.mark.parametrize("raw", ["512,,256,64", ",8", "8,8,", " , "])
def test_empty_tuple_item_rejected(raw):
    """An empty item is an error, not dropped: `512,,256,64` is not (512, 256, 64)."""
    with pytest.raises(ConfigError) as err:
        split_mapping({"sizes": raw})
    assert str(err.value) == f"sizes: expected comma-separated integers, got {raw!r}"


@pytest.mark.parametrize("raw", ["", "  "])
def test_empty_tuple_value_is_empty(raw):
    assert split_mapping({"head_hidden": raw})[1].head_hidden == ()


@pytest.mark.parametrize("cls", [ModelConfig, TrainConfig])
def test_every_field_default_is_a_type_coerce_reads(cls):
    """`_coerce` reads a bool, an int or a float, and any other field as a tuple of ints."""
    for f in dataclasses.fields(cls):
        value = f.default
        assert isinstance(value, (bool, int, float)) or (
            isinstance(value, tuple) and all(type(v) is int for v in value)
        ), f.name


class TestCheckedOnceAndFrozen:
    """Every config is checked when it is built, however it is built."""

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: TrainConfig(translate=1e308), "translate"),
            (lambda: ModelConfig(sizes=(16, 16)), "sizes"),
            (lambda: dataclasses.replace(TrainConfig(), seed=-1), "seed must be nonnegative"),
        ],
        ids=["translate-in-code", "sizes-in-code", "seed-by-replace"],
    )
    def test_invalid_config_rejected_at_construction(self, build, match):
        with pytest.raises(ConfigError, match=match):
            build()

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(sizes=(16,), ks=(4,), dims=(8,)), "need at least 2 scales, got sizes (16,)"),
            (dict(ks=(4, 17)), "patch size 17 exceeds the 16 points below it"),
            (dict(heads=1, dims=(7, 16)), "first dim must be even, got 7"),
            (dict(encoder_blocks=0), "block counts must be at least 1"),
            (dict(decoder_blocks=0), "block counts must be at least 1"),
            (dict(interp_k=0), "interp_k must be positive, got 0"),
            (dict(weight_decay=-0.1), "weight_decay must be nonnegative, got -0.1"),
            (dict(checkpoint_every=-1), "checkpoint_every must be nonnegative, got -1"),
            (dict(head_hidden=(256, 0)), "head_hidden must be positive widths, got (256, 0)"),
        ],
        ids=["one-scale", "patch-size", "odd-first-dim", "encoder-blocks", "decoder-blocks", "interp-k",
             "weight-decay", "checkpoint-every", "head-hidden"],
    )
    def test_each_check_names_what_is_wrong(self, change, message):
        cfg = TrainConfig() if next(iter(change)) in TrainConfig.field_names() else ModelConfig.tiny()
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(cfg, **change)

    def test_interp_k_past_the_coarsest_scale_is_refused_where_the_decoder_propagates(self):
        three = dict(n_points=64, sizes=(32, 16, 8), ks=(4, 4, 2), dims=(8, 16, 16), heads=2)
        assert ModelConfig(**three, interp_k=8).interp_k == 8
        with pytest.raises(ConfigError, match=r"^interp_k 9 exceeds sizes\[-1\] = 8$"):
            ModelConfig(**three, interp_k=9)
        # two scales: the decoder propagates no tokens, so the key is unused
        assert dataclasses.replace(ModelConfig.tiny(), interp_k=100).interp_k == 100

    @pytest.mark.parametrize(
        "cfg, name", [(ModelConfig.tiny(), "heads"), (TrainConfig(), "seed")], ids=["model", "train"]
    )
    def test_fields_cannot_be_assigned(self, cfg, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, 1)


class TestSplitAndResolve:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            split_mapping({"learning_rate": "0.1"})

    def test_split_routes_keys(self):
        model, train = split_mapping({"heads": "3", "epochs": "7", "warmup_epochs": "2"})
        assert model.heads == 3
        assert train.epochs == 7

    def test_resolved_lines_sorted_and_complete(self):
        model, train = split_mapping({})
        lines = resolved_lines(model, train)
        keys = [ln.split(" = ")[0] for ln in lines]
        assert keys == sorted(keys)
        assert len(keys) == len(ModelConfig.field_names()) + len(TrainConfig.field_names())

    def test_resolved_lines_reparse_to_same_configs(self):
        model, train = split_mapping({"heads": "2", "dims": "8,16", "sizes": "16,8",
                                      "ks": "4,4", "n_points": "32", "epochs": "12"})
        mapping = parse_config_text("\n".join(resolved_lines(model, train)))
        model2, train2 = split_mapping(mapping)
        assert model2 == model
        assert train2 == train

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("heads = 2\nepochs = 3\n")
        assert load_config_file(p) == {"heads": "2", "epochs": "3"}
        with pytest.raises(ConfigError, match="cannot read"):
            load_config_file(tmp_path / "missing.cfg")


class TestFingerprint:
    def test_stable_across_train_settings(self):
        model = ModelConfig.tiny()
        assert model_fingerprint(model) == model_fingerprint(ModelConfig.tiny())
        assert len(model_fingerprint(model)) == 16

    def test_sensitive_to_architecture(self):
        a = ModelConfig.tiny()
        b = dataclasses.replace(a, heads=1)
        assert model_fingerprint(a) != model_fingerprint(b)

    def test_differs_between_presets(self):
        assert model_fingerprint(ModelConfig()) != model_fingerprint(ModelConfig.tiny())


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config_defaults() -> dict[str, str]:
    """Key -> documented default text, from the README's Configuration table.
    A row naming several keys gives one default for all or one for each."""
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
    out: dict[str, str] = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 3 or not cells[0].startswith("`"):
            continue
        keys = re.findall(r"`(\w+)`", cells[0])
        defaults = cells[1].split(", ")
        if len(defaults) == 1:
            defaults *= len(keys)
        assert len(defaults) == len(keys), line
        out.update(zip(keys, defaults))
    return out


def test_readme_table_documents_every_field_and_its_default():
    fields = {f.name: f.default for cls in (ModelConfig, TrainConfig) for f in dataclasses.fields(cls)}
    documented = readme_config_defaults()
    assert set(documented) == set(fields)
    for key, raw in documented.items():
        assert _coerce(raw, fields[key], key) == fields[key], key
