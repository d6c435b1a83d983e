"""Workload definitions for the pamr benchmark.

Standard library only: the orchestrating process reads these without
importing numpy or pamr. A workload fixes the program's configuration; the
benchmark seed only changes the generated `.xyz` clouds, so the program sees
the same settings on every run and different inputs on different seeds.

One *main call* is the unit that is timed and repeated within a run:

- pretrain: `pretrain_run` with a `save_checkpoint` callback, then
  `write_metrics`, as `pamr pretrain` does. One sample is one cloud's
  forward and backward pass.
- fewshot: `few_shot_eval` on a pretrained checkpoint, as `pamr fewshot`
  does. One sample is one no-grad encode of one cloud in one trial.
"""
from __future__ import annotations

from dataclasses import dataclass, field

ALL_KINDS = ("cone", "cube", "cylinder", "plane-with-bump", "sphere", "torus")
DESK_KINDS = ("sphere", "cube", "torus", "cylinder")

# the desk-scale architecture of acceptance criterion 07
DESK_MODEL = dict(
    n_points=128,
    sizes=(32, 16),
    ks=(8, 8),
    dims=(16, 32),
    heads=2,
    encoder_blocks=1,
    decoder_blocks=1,
    la_window=3,
    la_groups=4,
)

TINY_MODEL = dict(
    n_points=64,
    sizes=(16, 8),
    ks=(4, 4),
    dims=(8, 16),
    heads=2,
    encoder_blocks=1,
    decoder_blocks=1,
    la_window=3,
    la_groups=4,
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pretrain" or "fewshot"
    model: dict  # ModelConfig overrides; empty means the full default model
    train: dict  # TrainConfig overrides for the main call
    kinds: tuple[str, ...]
    per_class: int  # consecutive clouds of one kind before the next kind
    clouds_per_input: int
    n_points: int
    jitter: float = 0.01
    # pretrain-full gives every main call its own input set, so no cloud is
    # ever seen twice in a run and per-cloud caching has nothing to reuse
    fresh_inputs: bool = False
    # the main call is dominated by the interpreter and small arrays, so its
    # timing is reported relative to child.reference_seconds() (README.md)
    interpreter_bound: bool = True
    # fewshot: the untimed preparation pretrains this long to write the checkpoint
    prep_train: dict = field(default_factory=dict)
    # with fresh_inputs: nominal seconds per main call, to size the prepared inputs
    nominal_call_s: float = 1.0

    def samples_per_call(self) -> int:
        if self.kind == "pretrain":
            return self.clouds_per_input * self.train["epochs"]
        t = self.train
        return t["trials"] * t["n_way"] * (t["m_shot"] + t["test_per_class"])

    def n_inputs(self, seconds: float) -> int:
        """Input sets the preparation writes: one, or one per possible call."""
        if not self.fresh_inputs:
            return 1
        return int(seconds / (0.5 * self.nominal_call_s)) + 2

    def cloud_specs(self, seed: int, input_index: int) -> list[tuple[str, int, int]]:
        """(kind, label, shape seed) of every cloud in one input set."""
        out = []
        for j in range(self.clouds_per_input):
            g = input_index * self.clouds_per_input + j
            label = (g // self.per_class) % len(self.kinds)
            out.append((self.kinds[label], label, seed * 1_000_003 + g))
        return out


_PRETRAIN_DESK_TRAIN = dict(epochs=2, batch_size=16, warmup_epochs=1, seed=0)
_FEWSHOT_TRAIN = dict(
    n_way=4,
    m_shot=10,
    test_per_class=20,
    trials=4,
    epochs=15,
    batch_size=64,
    base_lr=1e-3,
    warmup_epochs=0,
    seed=0,
)
_PREP_TRAIN = dict(epochs=1, batch_size=16, warmup_epochs=0, seed=0)

WORKLOADS = {
    w.name: w
    for w in (
        # why each workload exists: BENCHMARK.json and README.md
        Workload(
            name="pretrain-desk",
            kind="pretrain",
            model=DESK_MODEL,
            train=_PRETRAIN_DESK_TRAIN,
            kinds=DESK_KINDS,
            per_class=16,
            clouds_per_input=64,
            n_points=128,
        ),
        Workload(
            name="pretrain-full",
            kind="pretrain",
            model={},
            train=dict(epochs=1, batch_size=4, warmup_epochs=0, seed=0),
            kinds=ALL_KINDS,
            per_class=1,
            clouds_per_input=4,
            n_points=2048,
            fresh_inputs=True,
            interpreter_bound=False,
            nominal_call_s=9.0,
        ),
        Workload(
            name="fewshot-desk",
            kind="fewshot",
            model=DESK_MODEL,
            train=_FEWSHOT_TRAIN,
            kinds=DESK_KINDS,
            per_class=30,
            clouds_per_input=120,
            n_points=128,
            prep_train=_PREP_TRAIN,
        ),
        # toy-sized workloads for the harness self-test; not in BENCHMARK.json
        Workload(
            name="selftest-pretrain",
            kind="pretrain",
            model=TINY_MODEL,
            train=dict(epochs=1, batch_size=4, warmup_epochs=0, seed=0),
            kinds=("sphere", "cube"),
            per_class=2,
            clouds_per_input=4,
            n_points=64,
            fresh_inputs=True,
            nominal_call_s=0.1,
        ),
        Workload(
            name="selftest-fewshot",
            kind="fewshot",
            model=TINY_MODEL,
            train=dict(
                n_way=2,
                m_shot=2,
                test_per_class=2,
                trials=2,
                epochs=2,
                batch_size=4,
                warmup_epochs=0,
                head_hidden=(8,),
                seed=0,
            ),
            kinds=("sphere", "cube"),
            per_class=4,
            clouds_per_input=8,
            n_points=64,
            prep_train=dict(epochs=1, batch_size=4, warmup_epochs=0, seed=0),
        ),
    )
}
