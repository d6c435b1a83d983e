import warnings
from pathlib import Path

import numpy as np
import pytest

from _oracles import SENTINEL, with_sentinel_as
from pamr import tensor as T
from pamr.checkpoint import decode_checkpoint, encode_checkpoint
from pamr.cli import main
from pamr.data import load_dataset_dir, read_xyz, write_xyz
from pamr.geometry import PointCloud
from pamr.metrics import format_metrics
from pamr.training import AdamW, MetricsRow

TINY_CFG = """
# architecture
n_points = 32
sizes = 16,8
ks = 4,4
dims = 8,16
heads = 2
encoder_blocks = 1
decoder_blocks = 1
la_window = 3
la_groups = 4

# training
epochs = 2
batch_size = 4
base_lr = 0.001
warmup_epochs = 1
seed = 5
mask_ratio = 0.6
augment = false
head_hidden = 16
holdout_fraction = 0.25
"""


def with_setting(text: str, key: str, value: str) -> str:
    """`text` with the `key = ...` line set to `value`, appended if absent."""
    lines = [ln for ln in text.splitlines() if not ln.startswith(f"{key} =")]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CFG)
    return str(p)


@pytest.fixture
def dataset(tmp_path, cfg_file):
    d = tmp_path / "data"
    rc = main([
        "gen-data", "--config", cfg_file, "--out", str(d),
        "--kinds", "sphere,cube,torus,cylinder", "--per-class", "3",
        "--n-points", "64", "--jitter", "0.02",
    ])
    assert rc == 0
    return str(d)


class TestMetricsFormat:
    def test_header_only_when_empty(self):
        assert format_metrics([]) == "step,epoch,lr,loss\n"

    def test_accuracy_column_appears_when_present(self):
        rows = [MetricsRow(1, 0, 0.5, 1.25, 0.75)]
        text = format_metrics(rows)
        assert text.splitlines()[0] == "step,epoch,lr,loss,accuracy"
        assert text.splitlines()[1] == "1,0,0.5,1.25,0.75"

    def test_floats_round_trip_through_repr(self):
        lr = 1.0 / 3.0
        text = format_metrics([MetricsRow(1, 0, lr, 2.0 / 7.0)])
        _, _, lr_s, loss_s = text.splitlines()[1].split(",")
        assert float(lr_s) == lr
        assert float(loss_s) == 2.0 / 7.0


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["gradcheck", "--wat"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["pretrain"]) == 2
        capsys.readouterr()

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        rc = main(["pretrain", "--data", str(tmp_path), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error:" in captured.err

    def test_bad_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        rc = main(["gradcheck", "--config", str(cfg)])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_a_failed_allocation_is_one_error_line(self, tmp_path, capsys):
        """10^17 float64 points are 2.08 EiB, past any 64-bit address space:
        the first array fails at once, allocating nothing."""
        rc = main(["gen-data", "--out", str(tmp_path / "d"), "--n-points", str(10**17), "--per-class", "1",
                   "--kinds", "sphere"])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: Unable to allocate")

    def test_a_point_count_no_array_can_hold_is_one_error_line(self, tmp_path, capsys):
        """10^18 float64 points need more bytes than a numpy array can
        describe: the spec refuses them before anything is allocated."""
        out = tmp_path / "d"
        rc = main(["gen-data", "--out", str(out), "--n-points", str(10**18), "--per-class", "1",
                   "--kinds", "sphere"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {10**18} points per shape are more than one numpy array can hold\n"
        assert not out.exists()


class TestUnreadableFiles:
    @pytest.mark.parametrize(
        "case", ["missing checkpoint", "xyz not utf-8", "config not utf-8", "xyz label past int64"]
    )
    def test_exits_1_without_traceback(self, tmp_path, cfg_file, dataset, capsys, case):
        out = str(tmp_path / "out")
        if case == "missing checkpoint":
            missing = str(tmp_path / "missing.ckpt")
            cloud = str(sorted(Path(dataset).glob("*.xyz"))[0])
            args = ["reconstruct", "--config", cfg_file, "--checkpoint", missing, "--out", out, cloud]
        elif case == "xyz not utf-8":
            (Path(dataset) / "bad.xyz").write_bytes(b"0 0 0\n\xff 1 1\n")
            args = ["pretrain", "--config", cfg_file, "--data", dataset, "--out", out]
        elif case == "config not utf-8":
            bad = tmp_path / "bad.cfg"
            bad.write_bytes(b"seed = 1\xff\n")
            args = ["pretrain", "--config", str(bad), "--data", dataset, "--out", out]
        else:
            (Path(dataset) / "big.xyz").write_text(f"# label {10**30}\n0 0 0\n1 0 0\n")
            args = ["finetune", "--config", cfg_file, "--data", dataset, "--out", out]
        capsys.readouterr()
        rc = main(args)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["reconstruct", "finetune", "fewshot"])
    def test_empty_checkpoint_path_is_unreadable(self, tmp_path, cfg_file, dataset, capsys, command):
        out = str(tmp_path / "out")
        args = [command, "--config", cfg_file, "--checkpoint", "", "--out", out]
        if command == "reconstruct":
            args.append(str(sorted(Path(dataset).glob("*.xyz"))[0]))
        else:
            args += ["--data", dataset]
        capsys.readouterr()
        rc = main(args)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: cannot read checkpoint")
        assert "Traceback" not in err
        assert not Path(out).exists()


class TestUnusableOutPath:
    @pytest.mark.parametrize("command", ["pretrain", "gen-data", "ablate"])
    def test_exits_1_without_traceback(self, tmp_path, cfg_file, dataset, capsys, command):
        # an existing file where a directory is wanted, or the reverse
        taken = tmp_path / "taken"
        if command == "ablate":
            taken.mkdir()
            args = ["ablate", "--axis", "la-branches", "--data", dataset]
        else:
            taken.write_text("keep\n")
            args = {"pretrain": ["pretrain", "--data", dataset], "gen-data": TestBadConfigValues.GEN}[command]
        capsys.readouterr()
        rc = main(args + ["--config", cfg_file, "--out", str(taken)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert list(tmp_path.glob("*.tmp")) == []


class TestBadConfigValues:
    """Values that used to crash mid-run or pass validation as NaN or inf."""

    GEN = ["gen-data", "--kinds", "sphere", "--per-class", "1", "--n-points", "64"]

    @pytest.mark.parametrize("command", ["gen-data", "pretrain", "gradcheck"])
    @pytest.mark.parametrize(
        "setting",
        ["heads = 0", "heads = -2", "seed = -1", "--seed -1", "base_lr = nan", "min_lr = nan",
         "weight_decay = nan", "base_lr = inf", "translate = inf", "translate = 1e308",
         "scale_hi = inf"],
    )
    def test_exits_1_naming_the_key(self, tmp_path, dataset, capsys, command, setting):
        key = setting.split()[0].lstrip("-")
        text, flags = TINY_CFG, []
        if setting.startswith("--"):
            flags = setting.split()
        else:
            text = with_setting(TINY_CFG, key, setting.split(" = ")[1])
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = str(tmp_path / "out")
        args = {
            "gen-data": self.GEN + ["--out", out],
            "pretrain": ["pretrain", "--data", dataset, "--out", out],
            "gradcheck": ["gradcheck"],
        }[command]
        capsys.readouterr()
        rc = main(args + ["--config", str(cfg)] + flags)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and key in err
        assert "Traceback" not in err


class TestGenData:
    @pytest.mark.parametrize(
        "flags",
        [["--jitter", "nan"], ["--jitter", "-0.1"], ["--per-class", "0"], ["--per-class", "-1"],
         ["--kinds", ","], ["--kinds", "sphere,sphere"]],
    )
    def test_bad_flags_exit_1_before_writing(self, tmp_path, cfg_file, capsys, flags):
        out = tmp_path / "d"
        args = ["gen-data", "--config", cfg_file, "--out", str(out), "--kinds", "sphere",
                "--per-class", "1", "--n-points", "64"]
        capsys.readouterr()
        rc = main(args + flags)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_n_points_below_64_exits_1_without_n_points_flag(self, tmp_path, cfg_file, capsys):
        # the config's n_points (32) is the default points per cloud, and a
        # shape needs at least 64
        out = tmp_path / "d"
        capsys.readouterr()
        rc = main(["gen-data", "--config", cfg_file, "--out", str(out), "--kinds", "sphere", "--per-class", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: need at least 64 points per shape, got 32\n"
        assert not out.exists()

    def test_echoes_resolved_config(self, tmp_path, cfg_file, capsys):
        rc = main(["gen-data", "--config", cfg_file, "--out", str(tmp_path / "d"),
                   "--kinds", "sphere", "--per-class", "1", "--n-points", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# resolved config" in out
        assert "mask_ratio = 0.6" in out
        assert "sizes = 16,8" in out

    def test_writes_labeled_clouds(self, dataset):
        clouds = load_dataset_dir(dataset)
        assert len(clouds) == 12
        labels = sorted({c.label for c in clouds})
        assert labels == [0, 1, 2, 3]
        assert all(c.points.shape == (64, 3) for c in clouds)

    def test_deterministic_across_runs(self, tmp_path, cfg_file, capsys):
        args = ["gen-data", "--config", cfg_file, "--kinds", "torus",
                "--per-class", "2", "--n-points", "64"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        for name in ("torus_0000.xyz", "torus_0001.xyz"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestPretrainCommand:
    def test_writes_metrics_and_checkpoint(self, tmp_path, cfg_file, dataset, capsys):
        out_dir = tmp_path / "run"
        rc = main(["pretrain", "--config", cfg_file, "--data", dataset, "--out", str(out_dir)])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "# resolved config" in printed
        assert (out_dir / "model.ckpt").exists()
        lines = (out_dir / "metrics.csv").read_text().splitlines()
        assert lines[0] == "step,epoch,lr,loss"
        assert len(lines) == 1 + 2 * 3  # 2 epochs x ceil(12/4) batches

    def test_rerun_byte_identical(self, tmp_path, cfg_file, dataset, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["pretrain", "--config", cfg_file, "--data", dataset, "--out", str(out)])
            assert rc == 0
        capsys.readouterr()
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()

    def test_overflow_is_one_error_line(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "huge_lr.cfg"
        cfg.write_text(TINY_CFG.replace("base_lr = 0.001", "base_lr = 1e200\nmin_lr = 1e200"))
        out = tmp_path / "pre"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["pretrain", "--config", str(cfg), "--data", dataset, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: non-finite")
        assert decode_checkpoint((out / "model_aborted.ckpt").read_bytes()).step == 1

    def test_mid_run_error_writes_aborted_checkpoint(self, tmp_path, capsys):
        # a 3-scale config whose mask plans can leave no scale-2 center masked;
        # under seed 13 the first such plan comes in step 2
        text = TINY_CFG
        for key, value in [("n_points", "128"), ("sizes", "64,32,16"), ("ks", "8,8,8"),
                           ("dims", "16,32,64"), ("epochs", "3"), ("warmup_epochs", "0")]:
            text = with_setting(text, key, value)
        cfg = tmp_path / "three.cfg"
        cfg.write_text(text)
        data, out = tmp_path / "data", tmp_path / "pre"
        assert main(["gen-data", "--config", str(cfg), "--out", str(data), "--kinds", "sphere,cube",
                     "--per-class", "2", "--n-points", "128"]) == 0
        capsys.readouterr()
        rc = main(["pretrain", "--config", str(cfg), "--data", str(data), "--out", str(out),
                   "--seed", "13"])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: no masked scale-2 centers")
        assert decode_checkpoint((out / "model_aborted.ckpt").read_bytes()).step == 1

    def test_empty_mask_in_a_pack_stops_before_its_forward(self, tmp_path, cfg_file, dataset, capsys, monkeypatch):
        # batches of 4; the second batch's third cloud draws a plan with nothing masked
        import pamr.training

        draw, step, calls, after_step = pamr.training.mask_and_backproject, AdamW.step, [], []

        def draw_spy(pyr, mu, rng):
            calls.append(mu)
            return draw(pyr, 0.0 if len(calls) == 7 else mu, rng)

        def step_spy(opt):
            step(opt)
            after_step.append({name: p.data.copy() for name, p in opt.params.items()})

        monkeypatch.setattr(pamr.training, "mask_and_backproject", draw_spy)
        monkeypatch.setattr(AdamW, "step", step_spy)
        out = tmp_path / "pre"
        rc = main(["pretrain", "--config", cfg_file, "--data", dataset, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and len(calls) == 8
        assert err.splitlines() == [
            "error: no masked scale-2 centers in cloud 2 of the pack; raise mask_ratio or lower ks"
        ]
        ckpt = decode_checkpoint((out / "model_aborted.ckpt").read_bytes())
        assert ckpt.step == len(after_step) == 1
        assert ckpt.params.keys() == after_step[0].keys()
        for name, value in ckpt.params.items():
            assert value.tobytes() == after_step[0][name].tobytes(), name

    def test_overflowing_cloud_is_one_error_line(self, tmp_path, cfg_file, dataset, capsys):
        huge = np.array([[1e200, -1e200, 1e200], [-1e200, 1e200, -1e200]] * 32)
        write_xyz(Path(dataset) / "huge.xyz", PointCloud(huge, 0))
        rc = main(["pretrain", "--config", cfg_file, "--data", dataset, "--out", str(tmp_path / "pre")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "overflows" in err

    def test_too_small_cloud_is_named_by_its_dataset_position(self, tmp_path, cfg_file, dataset, capsys):
        write_xyz(Path(dataset) / "few.xyz", PointCloud(np.random.default_rng(4).normal(size=(9, 3)), 0))
        pos = [len(c.points) for c in load_dataset_dir(dataset)].index(9)
        rc = main(["pretrain", "--config", cfg_file, "--data", dataset, "--out", str(tmp_path / "pre")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: cloud {pos} in dataset order has 9 points, fewer than the first scale size 16\n"
        assert not list((tmp_path / "pre").glob("*.ckpt"))

    def test_seed_flag_changes_run(self, tmp_path, cfg_file, dataset, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["pretrain", "--config", cfg_file, "--data", dataset, "--out", str(a)]) == 0
        assert main(["pretrain", "--config", cfg_file, "--data", dataset, "--out", str(b),
                     "--seed", "99"]) == 0
        capsys.readouterr()
        assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()


def relabeled(dataset: str, out: Path, labels: dict[int, int]) -> str:
    """A copy of the clouds of `dataset` whose label is a key of `labels`,
    each relabelled to that key's value."""
    out.mkdir()
    for f in sorted(Path(dataset).glob("*.xyz")):
        cloud = read_xyz(f)
        if cloud.label in labels:
            write_xyz(out / f.name, PointCloud(cloud.points, labels[cloud.label]))
    return str(out)


class TestFinetuneCommand:
    def test_end_to_end_with_checkpoint(self, tmp_path, cfg_file, dataset, capsys):
        pre = tmp_path / "pre"
        assert main(["pretrain", "--config", cfg_file, "--data", dataset, "--out", str(pre)]) == 0
        ft = tmp_path / "ft"
        rc = main(["finetune", "--config", cfg_file, "--data", dataset, "--out", str(ft),
                   "--checkpoint", str(pre / "model.ckpt")])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "train accuracy" in printed and "holdout accuracy" in printed
        assert (ft / "classifier.ckpt").exists()
        header = (ft / "metrics.csv").read_text().splitlines()[0]
        assert header == "step,epoch,lr,loss,accuracy"

    @pytest.mark.parametrize("label", [2**62, -3])
    def test_any_int64_labels_train(self, tmp_path, cfg_file, dataset, capsys, label):
        data = relabeled(dataset, tmp_path / "relabeled", {0: 0, 1: label, 2: 2, 3: 3})
        rc = main(["finetune", "--config", cfg_file, "--data", data, "--out", str(tmp_path / "ft")])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "holdout accuracy" in captured.out

    def test_labels_map_to_their_rank(self, tmp_path, cfg_file, dataset, capsys):
        runs = []
        for name, second in (("dense", 1), ("sparse", 5)):
            data = relabeled(dataset, tmp_path / name, {0: 0, 1: second})
            ft = tmp_path / f"ft_{name}"
            capsys.readouterr()
            assert main(["finetune", "--config", cfg_file, "--data", data, "--out", str(ft)]) == 0
            runs.append(
                (capsys.readouterr().out, (ft / "metrics.csv").read_bytes(), (ft / "classifier.ckpt").read_bytes())
            )
        assert runs[0] == runs[1]

    def test_fingerprint_mismatch_fails_without_override(self, tmp_path, cfg_file, dataset, capsys):
        pre = tmp_path / "pre"
        assert main(["pretrain", "--config", cfg_file, "--data", dataset, "--out", str(pre)]) == 0
        other = tmp_path / "other.cfg"
        other.write_text(TINY_CFG.replace("heads = 2", "heads = 1"))
        rc = main(["finetune", "--config", str(other), "--data", dataset,
                   "--out", str(tmp_path / "ft"), "--checkpoint", str(pre / "model.ckpt")])
        assert rc == 1
        assert "fingerprint" in capsys.readouterr().err


class TestFewshotCommand:
    def test_prints_mean_and_std(self, tmp_path, cfg_file, capsys):
        d = tmp_path / "data"
        assert main(["gen-data", "--config", cfg_file, "--out", str(d),
                     "--kinds", "sphere,cube", "--per-class", "6",
                     "--n-points", "64", "--jitter", "0.02"]) == 0
        cfg2 = tmp_path / "fs.cfg"
        cfg2.write_text(TINY_CFG + "n_way = 2\nm_shot = 2\ntrials = 2\ntest_per_class = 3\nepochs = 5\n")
        # the extended config duplicates epochs; rewrite cleanly instead
        cfg2.write_text(
            TINY_CFG.replace("epochs = 2", "epochs = 5")
            + "n_way = 2\nm_shot = 2\ntrials = 2\ntest_per_class = 3\n"
        )
        out = tmp_path / "fs"
        rc = main(["fewshot", "--config", str(cfg2), "--data", str(d), "--out", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "2-way 2-shot over 2 trials" in printed
        lines = (out / "fewshot.csv").read_text().splitlines()
        assert lines[0] == "trial,accuracy"
        assert len(lines) == 3


class TestReconstructCommand:
    def test_three_files_per_input(self, tmp_path, cfg_file, dataset, capsys):
        pre = tmp_path / "pre"
        assert main(["pretrain", "--config", cfg_file, "--data", dataset, "--out", str(pre)]) == 0
        clouds = sorted(__import__("pathlib").Path(dataset).glob("*.xyz"))[:2]
        out = tmp_path / "rec"
        rc = main(["reconstruct", "--config", cfg_file, "--checkpoint", str(pre / "model.ckpt"),
                   "--out", str(out), str(clouds[0]), str(clouds[1])])
        capsys.readouterr()
        assert rc == 0
        written = sorted(p.name for p in out.iterdir())
        assert len(written) == 6
        for stem in (clouds[0].stem, clouds[1].stem):
            for suffix in ("original", "masked", "reconstructed"):
                assert f"{stem}.{suffix}.xyz" in written
        # masked file holds the visible subset: strictly fewer rows than scale 1
        masked = read_xyz(out / f"{clouds[0].stem}.masked.xyz")
        original = read_xyz(out / f"{clouds[0].stem}.original.xyz")
        assert masked.points.shape[0] < 16
        assert original.points.shape[0] == 64


    def test_checks_every_input_before_writing_any_output(self, tmp_path, cfg_file, dataset, capsys):
        pre = tmp_path / "pre"
        assert main(["pretrain", "--config", cfg_file, "--data", dataset, "--out", str(pre)]) == 0
        few = tmp_path / "few.xyz"
        write_xyz(few, PointCloud(np.random.default_rng(4).normal(size=(9, 3)), 0))
        out = tmp_path / "rec"
        capsys.readouterr()
        rc = main(["reconstruct", "--config", cfg_file, "--checkpoint", str(pre / "model.ckpt"),
                   "--out", str(out), str(sorted(Path(dataset).glob("*.xyz"))[0]), str(few)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {few} has 9 points, fewer than the first scale size 16\n"
        assert not out.exists()

    def test_rejects_inputs_that_share_a_stem(self, tmp_path, cfg_file, dataset, capsys):
        pre = tmp_path / "pre"
        assert main(["pretrain", "--config", cfg_file, "--data", dataset, "--out", str(pre)]) == 0
        first, second = tmp_path / "a" / "x.xyz", tmp_path / "b" / "x.xyz"
        for path, cloud in zip((first, second), sorted(Path(dataset).glob("*.xyz"))):
            path.parent.mkdir()
            path.write_bytes(cloud.read_bytes())
        out = tmp_path / "rec"
        capsys.readouterr()
        rc = main(["reconstruct", "--config", cfg_file, "--checkpoint", str(pre / "model.ckpt"),
                   "--out", str(out), str(first), str(second)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: inputs {first} and {second} would both write x.*.xyz\n"
        assert not out.exists()


class TestCorruptCheckpoint:
    FS_CFG = TINY_CFG + "n_way = 2\nm_shot = 1\ntest_per_class = 2\ntrials = 1\n"

    @pytest.fixture
    def pretrained(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "fs.cfg"
        cfg.write_text(self.FS_CFG)
        pre = tmp_path / "pre"
        assert main(["pretrain", "--config", str(cfg), "--data", dataset, "--out", str(pre)]) == 0
        capsys.readouterr()
        return cfg, pre / "model.ckpt"

    def test_invalid_utf8_name_exits_1(self, dataset, pretrained, capsys):
        cfg, ckpt = pretrained
        payload = bytearray(ckpt.read_bytes())
        fp = decode_checkpoint(bytes(payload)).fingerprint
        payload[5 + 4 + 2 + len(fp) + 8 + 4 + 2] = 0xFF  # first byte of the first entry name
        ckpt.write_bytes(bytes(payload))
        rc = main(["fewshot", "--config", str(cfg), "--data", dataset, "--checkpoint", str(ckpt)])
        assert rc == 1
        assert "utf-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fewshot", "reconstruct"])
    def test_non_finite_entry_exits_1(self, tmp_path, dataset, pretrained, capsys, command):
        cfg, ckpt = pretrained
        data = decode_checkpoint(ckpt.read_bytes())
        name = sorted(data.params)[0]
        data.params[name].flat[0] = SENTINEL
        payload = encode_checkpoint(data.params, data.fingerprint, data.step)
        ckpt.write_bytes(with_sentinel_as(payload, np.nan))
        args = [command, "--config", str(cfg), "--checkpoint", str(ckpt)]
        if command == "fewshot":
            args += ["--data", dataset]
        else:
            args += ["--out", str(tmp_path / "rec"), str(sorted(Path(dataset).glob("*.xyz"))[0])]
        rc = main(args)
        err = capsys.readouterr().err
        assert rc == 1
        assert name in err and "non-finite" in err


class TestGradcheckCommand:
    def test_exits_zero_and_prints_max_err(self, cfg_file, capsys):
        rc = main(["gradcheck", "--config", cfg_file])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "max rel err" in printed
        assert "gradient checks passed" in printed

    def test_a_wrong_gradient_exits_one_and_names_its_op(self, capsys, monkeypatch):
        right = T._gelu_grad
        monkeypatch.setattr(T, "_gelu_grad", lambda *args: 1.01 * right(*args))
        rc = main(["gradcheck"])
        printed = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert any(line.startswith("FAIL gelu: ") for line in printed)
        assert "gradient checks passed" not in printed


class TestAblateCommand:
    @pytest.fixture
    def quick_cfg(self, tmp_path):
        p = tmp_path / "quick.cfg"
        p.write_text(
            TINY_CFG.replace("epochs = 2", "epochs = 1").replace(
                "warmup_epochs = 1", "warmup_epochs = 0"
            )
        )
        return str(p)

    @pytest.fixture
    def small_data(self, tmp_path, quick_cfg):
        d = tmp_path / "abl_data"
        assert main(["gen-data", "--config", quick_cfg, "--out", str(d),
                     "--kinds", "sphere,torus", "--per-class", "2",
                     "--n-points", "64", "--jitter", "0.02"]) == 0
        return str(d)

    def test_mask_ratio_axis_rows(self, tmp_path, quick_cfg, small_data, capsys):
        out = tmp_path / "mask.csv"
        rc = main(["ablate", "--axis", "mask-ratio", "--config", quick_cfg,
                   "--data", small_data, "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mask_ratio,final_loss"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0.9", "0.8", "0.7", "0.6", "0.5"]
        for ln in lines[1:]:
            assert np.isfinite(float(ln.split(",")[1]))

    @pytest.mark.parametrize("out", ["bare.csv", "new/dirs/deep.csv"], ids=["bare name", "missing parents"])
    def test_writes_to_a_bare_name_or_a_path_with_missing_parents(
        self, out, tmp_path, quick_cfg, small_data, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        rc = main(["ablate", "--axis", "la-branches", "--config", quick_cfg,
                   "--data", small_data, "--out", out])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / out).read_text().splitlines()[0] == "avg_branch,max_branch,final_loss"

    def test_la_grid_axis_rows(self, tmp_path, quick_cfg, small_data, capsys):
        out = tmp_path / "grid.csv"
        rc = main(["ablate", "--axis", "la-grid", "--config", quick_cfg,
                   "--data", small_data, "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "la_window,la_groups,final_loss"
        assert [tuple(ln.split(",")[:2]) for ln in lines[1:]] == [
            ("5", "16"), ("5", "32"), ("7", "16"), ("7", "32")]

    def test_branch_axis_rows_and_determinism(self, tmp_path, quick_cfg, small_data, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            rc = main(["ablate", "--axis", "la-branches", "--config", quick_cfg,
                       "--data", small_data, "--out", str(out)])
            assert rc == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "avg_branch,max_branch,final_loss"
        assert [tuple(ln.split(",")[:2]) for ln in lines[1:]] == [
            ("true", "true"), ("true", "false"), ("false", "true"), ("false", "false")]

    def test_branch_axis_ignores_the_base_gate(self, tmp_path, quick_cfg, small_data, capsys):
        # each row sets the gate from its own branches, whatever the base config says
        gate_off = tmp_path / "gate_off.cfg"
        gate_off.write_text(with_setting(Path(quick_cfg).read_text(), "la_enabled", "false"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for cfg, out in ((quick_cfg, a), (gate_off, b)):
            rc = main(["ablate", "--axis", "la-branches", "--config", str(cfg),
                       "--data", small_data, "--out", str(out)])
            assert rc == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
