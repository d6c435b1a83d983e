"""Golden output digests: the sha256 of every file and every stdout of a fixed
command matrix, pinned in `tests/golden.json`.

    python tests/golden.py --write   # rerun the matrix and rewrite golden.json
    python tests/golden.py           # rerun it and list the digests that moved

`test_golden.py` reruns the matrix in a temporary directory and names every
digest that moved. A change that moves a digest on purpose regenerates the
file with `--write` and says which digests moved and why.

The matrix runs the `pamr` commands in-process on three architectures: the
quick config (two scales on 80- and 64-point clouds), the acceptance-07 desk
architecture at reduced size and a three-scale config. Every dataset mixes
two point counts, so pyramids are built both in stacks and alone. The quick
config also pretrains with `zero_scale_head = true`, and the desk config
pretrains at batch size 12 (packs of 8 and 4) and fits a frozen head at
batch size 7, and runs few-shot (30 test clouds a trial) on a two-block
encoder whose checkpoint covers only the first block. One forward and
backward of the default config pins its loss and gradients. Digests hold
on one software and hardware stack only; the file records it, and the test
skips on another.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden.json")

_QUICK = """
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

# the acceptance-07 architecture, three epochs
_DESK = """
n_points = 128
sizes = 32,16
ks = 8,8
dims = 16,32
heads = 2
encoder_blocks = 1
decoder_blocks = 1
la_window = 3
la_groups = 4
epochs = 3
batch_size = 16
warmup_epochs = 1
"""

_THREE_SCALE = """
n_points = 128
sizes = 64,32,16
ks = 8,8,4
dims = 16,32,64
heads = 2
encoder_blocks = 1
decoder_blocks = 1
la_window = 3
la_groups = 4
epochs = 2
batch_size = 8
warmup_epochs = 0
"""

_TRAIN = """
seed = 5
mask_ratio = 0.6
checkpoint_every = 1
base_lr = 0.001
head_hidden = 16
holdout_fraction = 0.25
n_way = 2
m_shot = 2
test_per_class = 2
trials = 3
"""

# name: (architecture, clouds per kind at the large and the small point count)
CONFIGS = {
    "quick": (_QUICK, (80, 64), 2),
    "desk": (_DESK, (128, 100), 11),
    "scale3": (_THREE_SCALE, (128, 100), 2),
}


def stack() -> dict[str, str]:
    """What the digests depend on besides the code: numpy, the BLAS it calls
    (with the kernel OpenBLAS picked for this CPU, when it says) and the platform."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its build config
        blas = {}
    name = f"{blas.get('name')} {blas.get('version')}"
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                name += f" {fn().decode()}"
                break
    return {
        "numpy": np.__version__,
        "blas": name,
        "platform": f"{platform.system()} {platform.machine()}",
        "python": platform.python_version(),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_matrix(root: Path) -> dict[str, str]:
    """Run every command under `root`; the digest of each stdout and each
    file written, keyed by a name free of `root`."""
    from pamr.cli import main

    digests: dict[str, str] = {}

    def run(key: str, argv: list[str]) -> None:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(out):
            rc = main([str(a) for a in argv])
        text = out.getvalue().replace(str(root), "<root>")
        if rc != 0:
            raise RuntimeError(f"{key} exited {rc}:\n{text}")
        digests[f"{key}/stdout"] = _sha(text.encode())

    def collect(key: str, directory: Path) -> None:
        for path in sorted(directory.rglob("*")):
            if path.is_file():
                digests[f"{key}/{path.relative_to(directory).as_posix()}"] = _sha(path.read_bytes())

    for name, (arch, (big, small), per_class) in CONFIGS.items():
        base = root / name
        base.mkdir()
        on, off = base / "augment_on.cfg", base / "augment_off.cfg"
        on.write_text(arch + _TRAIN + "augment = true\n")
        off.write_text(arch + _TRAIN + "augment = false\n")
        data = base / "data"
        # two gen-data calls into one directory: two classes, each of two
        # kinds with a point count of its own
        run(f"{name}/gen-data-big", ["gen-data", "--config", off, "--out", data, "--kinds", "sphere,cube",
                                     "--per-class", per_class + 1, "--n-points", big])
        run(f"{name}/gen-data-small", ["gen-data", "--config", off, "--out", data, "--kinds", "torus,cylinder",
                                       "--per-class", per_class, "--n-points", small, "--seed", 9])
        collect(f"{name}/data", data)
        for tag, cfg in (("on", on), ("off", off)):
            out = base / f"pre_{tag}"
            run(f"{name}/pretrain-{tag}", ["pretrain", "--config", cfg, "--data", data, "--out", out])
            collect(f"{name}/pre_{tag}", out)
        ckpt = base / "pre_off" / "model.ckpt"
        frozen = base / "frozen.cfg"
        frozen.write_text(off.read_text() + "freeze_backbone = true\n")
        for tag, cfg in (("frozen", frozen), ("unfrozen", on)):
            out = base / f"ft_{tag}"
            run(f"{name}/finetune-{tag}", ["finetune", "--config", cfg, "--data", data, "--out", out,
                                           "--checkpoint", ckpt])
            collect(f"{name}/ft_{tag}", out)
        run(f"{name}/fewshot-ckpt", ["fewshot", "--config", off, "--data", data, "--out", base / "fs_ckpt",
                                     "--checkpoint", ckpt])
        run(f"{name}/fewshot", ["fewshot", "--config", off, "--data", data, "--out", base / "fs"])
        collect(f"{name}/fs_ckpt", base / "fs_ckpt")
        collect(f"{name}/fs", base / "fs")
        # two inputs of one point count and one of the other
        files = sorted(data.glob("*.xyz"))
        inputs = [files[0], files[-1], files[1]]
        run(f"{name}/reconstruct", ["reconstruct", "--config", off, "--checkpoint", ckpt, "--out",
                                    base / "rec", *inputs])
        collect(f"{name}/rec", base / "rec")
    quick = root / "quick"
    zero = quick / "zero_head.cfg"
    zero.write_text((quick / "augment_on.cfg").read_text() + "zero_scale_head = true\n")
    run("quick/pretrain-zero-head", ["pretrain", "--config", zero, "--data", quick / "data", "--out",
                                     quick / "pre_zero"])
    collect("quick/pre_zero", quick / "pre_zero")
    # batch sizes that are not powers of two: uneven packs (8 + 4) when
    # pretraining, and a frozen head whose reported loss is (l * 7) / 7
    desk = root / "desk"
    for key, cfg_name, batch, command, extra in (
        ("desk/pre_b12", "augment_on.cfg", 12, "pretrain", []),
        ("desk/ft_frozen_b7", "frozen.cfg", 7, "finetune", ["--checkpoint", desk / "pre_off" / "model.ckpt"]),
    ):
        cfg = desk / f"{key.split('/')[1]}.cfg"
        cfg.write_text((desk / cfg_name).read_text().replace("batch_size = 16", f"batch_size = {batch}"))
        run(key, [command, "--config", cfg, "--data", desk / "data", "--out", root / key, *extra])
        collect(key, root / key)
    # a checkpoint that covers only part of the encoder: every trial keeps
    # its own random init of the second block and encodes its own clouds
    partial = desk / "blocks2.cfg"
    text = (desk / "augment_off.cfg").read_text()
    for old, new in (("encoder_blocks = 1", "encoder_blocks = 2"), ("m_shot = 2", "m_shot = 3"),
                     ("test_per_class = 2", "test_per_class = 15")):
        text = text.replace(old, new)
    partial.write_text(text)
    run("desk/fewshot-partial", ["fewshot", "--config", partial, "--data", desk / "data", "--out",
                                 desk / "fs_partial", "--checkpoint", desk / "pre_off" / "model.ckpt",
                                 "--allow-mismatch"])
    collect("desk/fs_partial", desk / "fs_partial")
    run("quick/ablate", ["ablate", "--axis", "la-branches", "--config", quick / "augment_off.cfg", "--data",
                         quick / "data", "--out", quick / "ablate.csv"])
    digests["quick/ablate.csv"] = _sha((quick / "ablate.csv").read_bytes())
    run("gradcheck", ["gradcheck", "--seed", 3])
    digests.update(_default_step())
    return digests


def _default_step() -> dict[str, str]:
    """One forward and backward of the default config on one cloud: the
    digests of its loss and of every gradient, in parameter order."""
    from pamr.backbone import MaskedAutoencoder
    from pamr.config import ModelConfig
    from pamr.geometry import mask_and_backproject
    from pamr.training import cloud_pyramids

    cfg = ModelConfig()
    rng = np.random.default_rng(0)
    pyr = cloud_pyramids([rng.normal(size=(cfg.n_points, 3))], cfg)[0]
    plan = mask_and_backproject(pyr, 0.6, rng)
    model = MaskedAutoencoder(cfg, rng)
    loss = model.loss(pyr, plan)
    loss.backward()
    grads = hashlib.sha256()
    for _, p in model.named_parameters():
        grads.update(p.grad.tobytes())
    return {"default/loss": _sha(loss.data.tobytes()), "default/gradients": grads.hexdigest()}


def moved(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """Every digest name that differs, is missing or is new, sorted."""
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name} from this tree")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        got = run_matrix(Path(tmp))
    if args.write:
        GOLDEN.write_text(json.dumps({"stack": stack(), "digests": got}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} digests to {GOLDEN}")
        return 0
    want = json.loads(GOLDEN.read_text())
    if want["stack"] != stack():
        print(f"recorded on another stack: {want['stack']} here {stack()}")
    diff = moved(want["digests"], got)
    for key in diff:
        print(f"moved: {key}")
    print(f"{len(diff)} of {len(want['digests'])} digests moved")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
