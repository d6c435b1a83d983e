"""Command-line entry point.

Every run echoes its resolved configuration (defaults filled in, sorted) so a
log line is enough to reproduce the artifact. Usage mistakes exit 2, runtime
failures exit 1.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .backbone import MaskedAutoencoder
from .checkpoint import apply_params, load_checkpoint, save_checkpoint
from .config import (
    ModelConfig,
    TrainConfig,
    load_config_file,
    model_fingerprint,
    resolved_lines,
    split_mapping,
)
from .data import (
    SHAPE_KINDS,
    ShapeSpec,
    gen_shapes,
    load_dataset_dir,
    read_xyz,
    write_text_atomic,
    write_xyz,
)
from .errors import ConfigError, PamrError
from .geometry import PointCloud, gather_patches, mask_and_backproject, masked_rows
from .gradcheck import op_gradient_suite, pipeline_gradient_check
from .metrics import write_metrics
from .training import cloud_pyramids, few_shot_eval, finetune_classify, pretrain_run

__all__ = ["main"]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--seed", type=int, help="overrides the config seed")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pamr", description="masked point-cloud autoencoding")
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("gen-data", help="write a synthetic labeled dataset")
    _add_common(s)
    s.add_argument("--out", required=True, help="output directory for .xyz files")
    s.add_argument("--kinds", default=",".join(sorted(SHAPE_KINDS)), help="comma-separated shape kinds")
    s.add_argument("--per-class", type=int, default=16)
    s.add_argument("--n-points", type=int, default=None, help="points per cloud (default: model n_points)")
    s.add_argument("--jitter", type=float, default=0.02)

    s = subs.add_parser("pretrain", help="masked-reconstruction pretraining")
    _add_common(s)
    s.add_argument("--data", required=True, help="directory of .xyz clouds")
    s.add_argument("--out", required=True, help="output directory")

    s = subs.add_parser("finetune", help="supervised classification with holdout")
    _add_common(s)
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--checkpoint", help="pretrained autoencoder checkpoint")
    s.add_argument("--allow-mismatch", action="store_true", help="skip the fingerprint check")

    s = subs.add_parser("fewshot", help="n-way m-shot evaluation")
    _add_common(s)
    s.add_argument("--data", required=True)
    s.add_argument("--out", help="directory for the per-trial CSV")
    s.add_argument("--checkpoint")
    s.add_argument("--allow-mismatch", action="store_true")

    s = subs.add_parser("reconstruct", help="mask and rebuild the given clouds")
    _add_common(s)
    s.add_argument("inputs", nargs="+", help=".xyz files to reconstruct")
    s.add_argument("--out", required=True)
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--allow-mismatch", action="store_true")

    s = subs.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_common(s)

    s = subs.add_parser("ablate", help="single-axis sweeps, CSV output")
    _add_common(s)
    s.add_argument("--axis", required=True, choices=("mask-ratio", "la-grid", "la-branches"))
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True, help="CSV file path")

    return p


def _configs(args) -> tuple[ModelConfig, TrainConfig]:
    mapping = load_config_file(args.config) if args.config else {}
    model, train = split_mapping(mapping)
    if args.seed is not None:
        train = replace(train, seed=args.seed)
    return model, train


def _load_pretrained(args, model_cfg: ModelConfig):
    """The parameter arrays of `--checkpoint`, or None without one."""
    if args.checkpoint is None:
        return None
    data = load_checkpoint(
        args.checkpoint,
        expect_fingerprint=model_fingerprint(model_cfg),
        allow_mismatch=args.allow_mismatch,
    )
    return data.params


def _cmd_gen_data(args, model_cfg: ModelConfig, train_cfg: TrainConfig) -> int:
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if not kinds or len(set(kinds)) != len(kinds):
        raise ConfigError(f"--kinds must name distinct shape kinds, got {args.kinds!r}")
    if args.per_class < 1:
        raise ConfigError(f"--per-class must be at least 1, got {args.per_class}")
    n_points = args.n_points if args.n_points is not None else model_cfg.n_points
    # every spec is validated before the first file is written
    specs = [
        ShapeSpec(kind, n_points, args.jitter, seed=train_cfg.seed + label * args.per_class + j, label=label)
        for label, kind in enumerate(kinds)
        for j in range(args.per_class)
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, spec in enumerate(specs):
        (cloud,) = gen_shapes([spec])
        write_xyz(out / f"{spec.kind}_{i % args.per_class:04d}.xyz", cloud)
    print(f"wrote {len(specs)} clouds ({len(kinds)} classes) to {out}")
    return 0


def _cmd_pretrain(args, model_cfg: ModelConfig, train_cfg: TrainConfig) -> int:
    clouds = load_dataset_dir(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fp = model_fingerprint(model_cfg)

    def on_checkpoint(model, opt, step, tag):
        name = "model.ckpt" if tag == "final" else f"model_{tag}.ckpt"
        save_checkpoint(out / name, model.param_dict(), fp, step, opt.state_arrays())

    result = pretrain_run(clouds, model_cfg, train_cfg, on_checkpoint=on_checkpoint)
    write_metrics(out / "metrics.csv", result.rows)
    last = result.rows[-1]
    print(f"pretrained {last.step} steps over {len(clouds)} clouds; final loss {last.loss!r}")
    print(f"checkpoint: {out / 'model.ckpt'}")
    return 0


def _cmd_finetune(args, model_cfg: ModelConfig, train_cfg: TrainConfig) -> int:
    clouds = load_dataset_dir(args.data)
    pretrained = _load_pretrained(args, model_cfg)
    result = finetune_classify(clouds, model_cfg, train_cfg, pretrained=pretrained)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics(out / "metrics.csv", result.rows)
    step = result.rows[-1].step if result.rows else 0
    save_checkpoint(
        out / "classifier.ckpt",
        result.classifier.param_dict(),
        model_fingerprint(model_cfg),
        step,
    )
    print(f"train accuracy {result.train_accuracy!r}")
    print(f"holdout accuracy {result.holdout_accuracy!r}")
    return 0


def _cmd_fewshot(args, model_cfg: ModelConfig, train_cfg: TrainConfig) -> int:
    clouds = load_dataset_dir(args.data)
    pretrained = _load_pretrained(args, model_cfg)
    result = few_shot_eval(clouds, model_cfg, train_cfg, pretrained=pretrained)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["trial,accuracy"]
        lines += [f"{i},{acc!r}" for i, acc in enumerate(result.per_trial)]
        write_text_atomic(out / "fewshot.csv", "\n".join(lines) + "\n")
    print(
        f"{train_cfg.n_way}-way {train_cfg.m_shot}-shot over {train_cfg.trials} trials: "
        f"{result.mean_accuracy:.4f} +/- {result.std_accuracy:.4f}"
    )
    return 0


def _cmd_reconstruct(args, model_cfg: ModelConfig, train_cfg: TrainConfig) -> int:
    stems = [Path(source).stem for source in args.inputs]  # each input's output names
    for i, stem in enumerate(stems):
        if stem in stems[:i]:
            first = args.inputs[stems.index(stem)]
            raise ConfigError(f"inputs {first} and {args.inputs[i]} would both write {stem}.*.xyz")
    params = _load_pretrained(args, model_cfg)
    rng = np.random.default_rng(train_cfg.seed)
    model = MaskedAutoencoder(model_cfg, rng)
    apply_params(model, params)
    # every input is read and built before the first output is written
    clouds = [read_xyz(source) for source in args.inputs]
    pyramids = cloud_pyramids([c.points for c in clouds], model_cfg, names=args.inputs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stem, cloud, pyramid in zip(stems, clouds, pyramids):
        plan = mask_and_backproject(pyramid, train_cfg.mask_ratio, rng)
        with T.no_grad():
            rec = model.reconstruct(pyramid, plan)
        visible_fine = pyramid.points[1][plan.visible[1]]
        centers = pyramid.points[2]
        truth_vis = gather_patches(pyramid, 2, plan.visible[2]) + centers[plan.visible[2]][:, None, :]
        pred_msk = rec.pred.data + centers[masked_rows(pyramid, plan, 2)][:, None, :]
        rebuilt = np.concatenate(
            [truth_vis.reshape(-1, 3), pred_msk.reshape(-1, 3)], axis=0
        )
        write_xyz(out / f"{stem}.original.xyz", PointCloud(pyramid.points[0], cloud.label))
        write_xyz(out / f"{stem}.masked.xyz", PointCloud(visible_fine, cloud.label))
        write_xyz(out / f"{stem}.reconstructed.xyz", PointCloud(rebuilt, cloud.label))
    print(f"wrote 3 files per input for {len(args.inputs)} cloud(s) under {out}")
    return 0


def _cmd_gradcheck(args, model_cfg: ModelConfig, train_cfg: TrainConfig) -> int:
    seed = train_cfg.seed
    reports = op_gradient_suite(seed=seed)
    worst_op = max(reports, key=lambda k: reports[k].max_rel_err)
    ops_ok = all(r.ok for r in reports.values())
    print(f"op suite: {len(reports)} ops, max rel err {reports[worst_op].max_rel_err:.3e} ({worst_op})")
    pipeline = pipeline_gradient_check(seed=seed)
    print(f"end-to-end loss: max rel err {pipeline.max_rel_err:.3e}")
    if not ops_ok or not pipeline.ok:
        for name, rep in sorted(reports.items()):
            if not rep.ok:
                print(f"FAIL {name}: {rep.summary()}")
        if not pipeline.ok:
            print(f"FAIL end-to-end: {pipeline.summary()}")
        return 1
    print("gradient checks passed")
    return 0


def _cmd_ablate(args, model_cfg: ModelConfig, train_cfg: TrainConfig) -> int:
    clouds = load_dataset_dir(args.data)

    def final_loss(mc: ModelConfig, tc: TrainConfig) -> float:
        return pretrain_run(clouds, mc, tc).rows[-1].loss

    rows: list[str] = []
    if args.axis == "mask-ratio":
        header = "mask_ratio,final_loss"
        for mu in (0.9, 0.8, 0.7, 0.6, 0.5):
            loss = final_loss(model_cfg, replace(train_cfg, mask_ratio=mu))
            rows.append(f"{mu!r},{loss!r}")
    elif args.axis == "la-grid":
        header = "la_window,la_groups,final_loss"
        for window in (5, 7):
            for groups in (16, 32):
                loss = final_loss(
                    replace(model_cfg, la_window=window, la_groups=groups), train_cfg
                )
                rows.append(f"{window},{groups},{loss!r}")
    else:
        header = "avg_branch,max_branch,final_loss"
        for avg in (True, False):
            for mx in (True, False):
                mc = replace(model_cfg, la_enabled=avg or mx, la_avg_branch=avg, la_max_branch=mx)
                loss = final_loss(mc, train_cfg)
                rows.append(f"{str(avg).lower()},{str(mx).lower()},{loss!r}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(out, "\n".join([header] + rows) + "\n")
    print(f"{args.axis}: {len(rows)} rows -> {out}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "fewshot": _cmd_fewshot,
    "reconstruct": _cmd_reconstruct,
    "gradcheck": _cmd_gradcheck,
    "ablate": _cmd_ablate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code is None else int(e.code)
    try:
        model_cfg, train_cfg = _configs(args)
        print("# resolved config")
        for line in resolved_lines(model_cfg, train_cfg):
            print(line)
        # the Tensor finiteness check turns an overflow or 0/0 into a NonFiniteError
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args, model_cfg, train_cfg)
    except (PamrError, OSError, MemoryError) as e:
        print(f"error: {e or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
