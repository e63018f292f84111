"""The three benchmark workloads: inputs, timed commands and output checks.

Inputs are made only from the workload seed, through the program's own
``gen-refs`` and ``train-policy --updates 0`` commands plus seeded latents
written into the library artifact. So a change to encoder or training
numerics cannot change the work that ``train-pi3`` or ``evalplan-pi3`` do.
Every flag that defines the work is passed explicitly, because CLI and
dataclass defaults disagree and may be unified later.

The output checks hold across legitimate refactors: exit code 0, finite
numbers, bounded scores, and counts that match the argv. Nothing compares
bit-exact values or the columns of the training CSV.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

LATENT_DIM = 4
PI3_REWARD_WEIGHTS = "0.35,0.35,0.3"

# How long episodes last before a fall depends much on the seed's initial
# policy, so a pass trains several short runs, each from its own seed.
TRAIN_RUNS = 4
TRAIN_UPDATES = 5
TRAIN_EPISODES_PER_UPDATE = 4
TRAIN_HORIZON = 200
TRAIN_CHECKPOINT_EVERY = 5
ENCODER_EPOCHS = 150
EVAL_ROLLOUTS = 6
EVAL_HORIZON = 200
PLAN_KNOTS = 11
PLAN_KNOT_DT = 0.3
PLAN_TRIALS = 2
PLAN_EPISODES = 40
CONTROL_DT = 0.02  # RobotConfig.control_dt
PLAN_STEPS_PER_KNOT = round(PLAN_KNOT_DT / CONTROL_DT)
# train-encoder keeps a step only if the loss rises by at most this much.
ENCODER_ROLLBACK_TOLERANCE = 1e-9


class CheckError(Exception):
    """An output that fails a semantic check."""


@dataclass(frozen=True)
class Command:
    stage: str  # the CLI subcommand
    argv: list[str]
    check: Callable[[Path], None]  # raises CheckError; gets the pass directory
    # The work the argv asks for, fixed whatever the program skips: env-steps
    # at full episode length (full-batch epochs for train-encoder).
    work: int
    # The command's named rate: (metric, amount per command, unit). An amount
    # of None means the env-steps the program actually ran.
    rate: tuple[str, int | None, str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[Callable, Path, int], None]  # (run_cli, input dir, seed)
    commands: Callable[[Path, Path, int], list[Command]]  # (input dir, pass dir, seed)
    simulates: bool = True  # every command steps the simulator
    prepare: Callable[[Path, Path], None] | None = None  # per pass, untimed


# --- checks --------------------------------------------------------------------


def _payload(path: Path, kind: str) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"{path.name}: unreadable ({exc})") from exc
    if doc.get("format") != f"modeloco/{kind}":
        raise CheckError(f"{path.name}: format {doc.get('format')!r}, want modeloco/{kind}")
    _require_finite(doc["payload"], path.name)
    return doc["payload"]


def _require_finite(obj, where: str) -> None:
    if isinstance(obj, float) and not math.isfinite(obj):
        raise CheckError(f"{where}: non-finite number {obj}")
    if isinstance(obj, dict):
        for v in obj.values():
            _require_finite(v, where)
    elif isinstance(obj, list):
        for v in obj:
            _require_finite(v, where)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _check_train(run: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        _payload(out / f"policy{run}.json", "policy")
        ck = _payload(out / f"checkpoint{run}.json", "checkpoint")
        _require(ck["update_count"] == TRAIN_UPDATES,
                 f"checkpoint has {ck['update_count']} updates, want {TRAIN_UPDATES}")
        episodes = TRAIN_UPDATES * TRAIN_EPISODES_PER_UPDATE
        _require(ck["episode_count"] == episodes,
                 f"checkpoint has {ck['episode_count']} episodes, want {episodes}")

    return check


def _check_encoder(out: Path) -> None:
    _payload(out / "encoder.json", "encoder")
    with open(out / "encoder.json.loss.csv", newline="") as f:
        losses = [float(row["loss"]) for row in csv.DictReader(f)]
    _require(len(losses) == ENCODER_EPOCHS + 1,
             f"loss log has {len(losses)} rows, want {ENCODER_EPOCHS + 1}")
    _require(all(math.isfinite(v) for v in losses), "non-finite encoder loss")
    rises = [i for i in range(1, len(losses))
             if losses[i] > losses[i - 1] + ENCODER_ROLLBACK_TOLERANCE]
    _require(not rises, f"encoder loss increases at epochs {rises[:5]}")


def _check_eval(n: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        report = _payload(out / "eval.json", "eval")
        modes = np.asarray(report["mode_mra"], dtype=float)
        table = np.asarray(report["transition_mra"], dtype=float)
        _require(modes.shape == (n,), f"mode MRA shape {modes.shape}, want ({n},)")
        _require(table.shape == (n, n), f"transition MRA shape {table.shape}, want {n}x{n}")
        for name, a in (("mode", modes), ("transition", table)):
            _require(bool(((a >= 0.0) & (a <= 1.0)).all()), f"{name} MRA outside [0, 1]")

    return check


def _check_plan(n: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        plan = _payload(out / "plan.json", "plan")
        modes = plan["mode_indices"]
        _require(len(modes) == PLAN_KNOTS, f"plan has {len(modes)} knots, want {PLAN_KNOTS}")
        _require(all(0 <= i < n for i in modes), f"plan mode index outside [0, {n})")
        ceiling = PLAN_KNOTS * PLAN_STEPS_PER_KNOT
        _require(0.0 <= plan["best_return"] <= ceiling,
                 f"best return {plan['best_return']} outside [0, {ceiling}]")

    return check


# --- inputs --------------------------------------------------------------------


def _gen_refs(run_cli, modeset: str, out: Path) -> None:
    run_cli(["gen-refs", "--modeset", modeset, "--out", str(out)])


def _seed_latents(path: Path, seed: int) -> None:
    """Write seeded standard-normal latents into a library artifact."""
    doc = json.loads(path.read_text())
    rng = np.random.default_rng(seed)
    for mode in doc["payload"]["modes"]:
        mode["latent"] = rng.normal(0.0, 1.0, LATENT_DIM).tolist()
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _build_pi3(run_cli, inputs: Path, seed: int) -> None:
    _gen_refs(run_cli, "pi3", inputs / "library.json")
    _seed_latents(inputs / "library.json", seed)


def _build_evalplan(run_cli, inputs: Path, seed: int) -> None:
    _build_pi3(run_cli, inputs, seed)
    # Zero updates: the policy artifact is the program's seeded initializer.
    run_cli(["train-policy", "--library", str(inputs / "library.json"),
             "--out", str(inputs / "policy.json"), "--updates", "0",
             "--horizon", str(EVAL_HORIZON), "--seed", str(seed),
             "--checkpoint", str(inputs / "init.checkpoint.json"),
             "--log", str(inputs / "init.csv")])


def _build_pi1(run_cli, inputs: Path, seed: int) -> None:
    _gen_refs(run_cli, "pi1", inputs / "library.json")


def _fresh_library(inputs: Path, out: Path) -> None:
    # train-encoder rewrites its input library in place.
    shutil.copyfile(inputs / "library.json", out / "library.json")


# --- commands ------------------------------------------------------------------


def _train_commands(inputs: Path, out: Path, seed: int) -> list[Command]:
    return [Command("train-policy", [
        "train-policy", "--library", str(inputs / "library.json"),
        "--out", str(out / f"policy{run}.json"), "--terrain", "flat",
        "--sampler", "adaptive", "--gamma-i", "0.4", "--gamma-f", "0.4",
        "--epsilon", "0.2", "--updates", str(TRAIN_UPDATES),
        "--episodes-per-update", str(TRAIN_EPISODES_PER_UPDATE),
        "--horizon", str(TRAIN_HORIZON), "--seed", str(TRAIN_RUNS * seed + run),
        "--modeset", "pi3", "--reward-weights", PI3_REWARD_WEIGHTS,
        "--checkpoint", str(out / f"checkpoint{run}.json"),
        "--checkpoint-every", str(TRAIN_CHECKPOINT_EVERY),
        "--log", str(out / f"train{run}.csv"),
    ], _check_train(run),
        work=TRAIN_UPDATES * TRAIN_EPISODES_PER_UPDATE * TRAIN_HORIZON,
        rate=("train.env_steps_per_s", None, "env-steps/s")) for run in range(TRAIN_RUNS)]


def _encoder_commands(inputs: Path, out: Path, seed: int) -> list[Command]:
    return [Command("train-encoder", [
        "train-encoder", "--library", str(out / "library.json"),
        "--out", str(out / "encoder.json"), "--epochs", str(ENCODER_EPOCHS),
        "--lr", "5e-3", "--seed", str(seed),
    ], _check_encoder, work=ENCODER_EPOCHS,
        rate=("encoder.epochs_per_s", ENCODER_EPOCHS, "epochs/s"))]


def _evalplan_commands(inputs: Path, out: Path, seed: int) -> list[Command]:
    library, policy = str(inputs / "library.json"), str(inputs / "policy.json")
    n = len(json.loads((inputs / "library.json").read_text())["payload"]["modes"])
    cases, episodes = n * n * EVAL_ROLLOUTS, PLAN_TRIALS * PLAN_EPISODES
    return [
        Command("eval", [
            "eval", "--library", library, "--policy", policy, "--terrain", "flat",
            "--horizon", str(EVAL_HORIZON), "--rollouts", str(EVAL_ROLLOUTS),
            "--clock-rate", "1.0", "--modeset", "pi3",
            "--reward-weights", PI3_REWARD_WEIGHTS, "--out", str(out / "eval.json"),
        ], _check_eval(n), work=cases * EVAL_HORIZON,
            rate=("eval.cases_per_s", cases, "cases/s")),
        Command("plan", [
            "plan", "--library", library, "--policy", policy, "--terrain", "gap",
            "--knots", str(PLAN_KNOTS), "--dt", str(PLAN_KNOT_DT),
            "--goal-x", "2.0", "--goal-z", "0.5", "--alpha", "0.3",
            "--explore", "0.2", "--episodes", str(PLAN_EPISODES),
            "--trials", str(PLAN_TRIALS), "--seed", str(seed),
            "--out", str(out / "plan.json"),
        ], _check_plan(n), work=episodes * PLAN_KNOTS * PLAN_STEPS_PER_KNOT,
            rate=("plan.episodes_per_s", episodes, "episodes/s")),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-pi3",
            "PPO training at the default batch of 4 episodes: physics-bound "
            "rollouts, PPO updates, checkpoint writes",
            _build_pi3, _train_commands,
        ),
        Workload(
            "encoder-pi1",
            "LSTM autoencoder fit on the largest built-in library: "
            "backprop-through-time only, no physics",
            _build_pi1, _encoder_commands, simulates=False, prepare=_fresh_library,
        ),
        Workload(
            "evalplan-pi3",
            "deterministic rollouts of a fixed policy: the full eval switch "
            "grid, then Q-learned plans over a gap",
            _build_evalplan, _evalplan_commands,
        ),
    )
}
