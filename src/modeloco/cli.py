"""Command line pipeline: gen-refs, train-encoder, train-policy, eval, plan.

Every command is deterministic given its configuration and seed, writes
artifacts with a config-hash header, and exits 0 on success, 1 on input
validation problems (usage errors included), and 2 on runtime failures. The
output directory defaults to the MODELOCO_OUT environment variable, then the
current directory; a command whose output directory is missing, or whose
output path is a directory, exits 1 before it does any work.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import encoder as enc_mod
from . import planner as plan_mod
from . import policy as pol_mod
from . import training as train_mod
from .fileio import (
    ArtifactError, config_hash, read_artifact, read_json, write_artifact, write_table
)
from .refmotion import (
    AT_LEAST_ONE,
    FieldError,
    InvalidInputError,
    MODESET_NAMES,
    builtin_library,
    check_fields,
    library_from_payload,
    library_to_payload,
    modeset_from_spec,
)
from .sampler import switch_steps
from .sim import (
    CONTACT_LEFT,
    CONTACT_RIGHT,
    NUM_JOINTS,
    PITCH,
    Q,
    QDOT,
    TERRAIN_PRESETS,
    TIME,
    RewardConfig,
    RobotConfig,
    Terrain,
    observation_dim,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

# Reward gains of the mode sets that differ from RewardConfig's: contact
# tracking is only rewarded for the mode set that ships contact schedules.
MODESET_REWARD_WEIGHTS = {"pi3": (0.35, 0.35, 0.3)}


def _out_path(arg: str | None, default_name: str) -> Path:
    if arg:
        return Path(arg)
    root = os.environ.get("MODELOCO_OUT", ".")
    return Path(root) / default_name


def _check_out_paths(*paths) -> None:
    """InvalidInputError naming the first output path that lies in a missing
    directory or is itself a directory; commands call it before any work."""
    for path in map(Path, paths):
        if not path.parent.is_dir():
            raise InvalidInputError(f"output directory {path.parent} of {path} does not exist")
        if path.is_dir():
            raise InvalidInputError(f"output path {path} is a directory")


def _load_terrain(spec: str) -> Terrain:
    if spec in TERRAIN_PRESETS:
        return TERRAIN_PRESETS[spec]()
    return Terrain.from_payload(read_artifact(spec, "terrain"))


def _load_encoded_library(path: str):
    library = library_from_payload(read_artifact(path, "library"))
    if library.latents is None:
        raise InvalidInputError(f"library {path} has no latents; run train-encoder first")
    return library


def _check_policy_fits(policy, library, policy_path: str, library_path: str) -> None:
    """The policy's input size must be the observation size the library's
    latents give, and its action size the biped's joint count."""
    latent_dim = library.latents.shape[1]
    want = observation_dim(latent_dim)
    if policy.dims[0] != want:
        raise InvalidInputError(
            f"policy {policy_path} takes {policy.dims[0]} observation inputs, but the "
            f"{latent_dim}-dimensional latents of library {library_path} give {want}"
        )
    if policy.action_dim != NUM_JOINTS:
        raise InvalidInputError(
            f"policy {policy_path} gives {policy.action_dim} actions, but the biped has "
            f"{NUM_JOINTS} joints"
        )


def _config(cls, args):
    """The config dataclass cls with each field from the flag that sets it:
    every field of cls is a flag whose dest is the field's name."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def _reward_config(args) -> RewardConfig:
    if args.reward_weights:
        try:
            return RewardConfig(weights=tuple(map(float, args.reward_weights.split(","))))
        except ValueError as exc:
            raise InvalidInputError(f"--reward-weights takes three comma-separated weights, "
                                    f"got {args.reward_weights!r}: {exc}") from exc
    if args.modeset in MODESET_REWARD_WEIGHTS:
        return RewardConfig(weights=MODESET_REWARD_WEIGHTS[args.modeset])
    return RewardConfig()


def cmd_gen_refs(args) -> int:
    out = _out_path(args.out, "library.json")
    _check_out_paths(out)
    if Path(args.modeset).is_file():
        spec = read_json(args.modeset)
        library = modeset_from_spec(spec)
        cfg = {"modeset_file": spec}
    else:
        library = builtin_library(args.modeset)
        cfg = {"modeset": args.modeset}
    write_artifact(out, "library", library_to_payload(library), config_hash(cfg))
    print(f"wrote {library.n}-mode library to {out}")
    return EXIT_OK


def cmd_train_encoder(args) -> int:
    out = _out_path(args.out, "encoder.json")
    log_path = Path(str(out) + ".loss.csv")
    _check_out_paths(out, log_path)
    library = library_from_payload(read_artifact(args.library, "library"))
    cfg = _config(enc_mod.EncoderTrainConfig, args)
    result = enc_mod.train_autoencoder(library, cfg)
    cfg_hash = config_hash(dataclasses.asdict(cfg))
    write_artifact(out, "encoder", enc_mod.params_to_payload(result.params), cfg_hash)
    write_artifact(
        args.library, "library", library_to_payload(result.library), cfg_hash
    )
    write_table(log_path, ["epoch", "loss"],
                [np.arange(len(result.losses)), np.array(result.losses, dtype=np.float64)])
    print(
        f"trained encoder on {library.n} modes: final loss {result.final_loss:.6e}; "
        f"wrote {out}, updated latents in {args.library}, loss log {log_path}"
    )
    return EXIT_OK


def _write_training_log(path: Path, rows, n: int) -> None:
    header = ["update", "episode", "mode_from", "mode_to", "switch_step",
              "episode_return", "normalized_return", "fell",
              "policy_loss", "value_loss", "entropy"]
    header += [f"mode_return_{i}" for i in range(n)]
    header += [f"transition_return_{i}_{j}" for i in range(n) for j in range(n)]
    ints = np.array([[r.update, r.episode, r.mode_from, r.mode_to, r.switch_step, r.fell]
                     for r in rows], dtype=np.int64).reshape(-1, 6)
    floats = np.array([[r.episode_return, r.normalized_return, r.policy_loss, r.value_loss,
                        r.entropy, *r.mode_returns, *r.transition_returns.ravel()]
                       for r in rows], dtype=np.float64).reshape(-1, 5 + n + n * n)
    write_table(path, header, [ints[:, :5], floats[:, :2], ints[:, 5], floats[:, 2:]])


def cmd_train_policy(args) -> int:
    out = _out_path(args.out, "policy.json")
    checkpoint_path = args.checkpoint or str(out) + ".checkpoint.json"
    log_path = Path(args.log or str(out) + ".train.csv")
    _check_out_paths(out, checkpoint_path, log_path)
    library = _load_encoded_library(args.library)
    terrain = _load_terrain(args.terrain)
    robot = RobotConfig()
    reward_cfg = _reward_config(args)
    ppo, tc = pol_mod.PpoConfig(), _config(train_mod.TrainConfig, args)
    cfg_hash = config_hash(
        {"ppo": dataclasses.asdict(ppo), "train": dataclasses.asdict(tc)}
    )
    start = None
    if args.resume:
        start = train_mod.load_checkpoint(args.resume)
        _check_policy_fits(start.policy, library, args.resume, args.library)
        sampled = start.sampler_state.mode_returns.shape[0]
        if sampled != library.n:
            raise InvalidInputError(
                f"checkpoint {args.resume} has sampler records for {sampled} modes, but "
                f"library {args.library} has {library.n}"
            )
        print(f"resuming from {args.resume} at update {start.update_count}")
    result = train_mod.run_training(
        library,
        terrain,
        robot,
        reward_cfg,
        ppo,
        tc,
        start=start,
        checkpoint_path=checkpoint_path,
    )
    write_artifact(out, "policy", pol_mod.policy_to_payload(result.state.policy), cfg_hash)
    _write_training_log(log_path, result.rows, library.n)
    returns = [r.normalized_return for r in result.rows[-4 * library.n :]]
    recent = (
        f"recent normalized return {np.mean(returns):.3f}" if returns
        else "no episodes were run"
    )
    print(
        f"trained policy for {result.state.update_count} updates "
        f"({result.state.episode_count} episodes); {recent}; wrote {out}, log {log_path}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    check_fields(args, rollouts_per_case=AT_LEAST_ONE)
    out = _out_path(args.out, "eval.json")
    library = _load_encoded_library(args.library)
    trace_paths = [Path(str(out) + f".{name}.csv") for name in library.names]  # beside the report
    _check_out_paths(out, *trace_paths)
    policy = pol_mod.policy_from_payload(read_artifact(args.policy, "policy"))
    _check_policy_fits(policy, library, args.policy, args.library)
    terrain = _load_terrain(args.terrain)
    robot = RobotConfig()
    reward_cfg = _reward_config(args)
    for k, switch in enumerate(switch_steps(robot.cycle_steps)[: args.rollouts_per_case]):
        if switch >= args.horizon:
            raise InvalidInputError(f"--horizon {args.horizon} ends before step {switch}, where "
                                    f"rollout {k + 1} of --rollouts {args.rollouts_per_case} "
                                    "switches modes; it must switch inside the episode")
    traces: dict = {}
    mode_scores, transition_scores = pol_mod.evaluate_modes(
        policy,
        library,
        terrain,
        robot,
        reward_cfg,
        horizon=args.horizon,
        rollouts_per_case=args.rollouts_per_case,
        clock_rate=args.clock_rate,
        traces=traces,
    )
    report = {
        "mode_names": list(library.names),
        "clock_rate": args.clock_rate,
        "mode_mra": mode_scores,
        "transition_mra": transition_scores,
        "mean_mode_mra": float(mode_scores.mean()),
        "mean_transition_mra": float(transition_scores.mean()),
        "traces": {},
    }
    # Per-mode traces: base height and heading velocity profiles.
    for i, (name, trace_path) in enumerate(zip(library.names, trace_paths)):
        rows, rewards = traces[i]
        write_table(
            trace_path,
            ["t", "x", "z", "pitch", "hip_l", "knee_l", "hip_r", "knee_r",
             "vx", "vz", "pitch_rate", "dhip_l", "dknee_l", "dhip_r",
             "dknee_r", "contact_l", "contact_r", "reward", "mode_index"],
            [rows[:, TIME], rows[:, Q:TIME], rows[:, [CONTACT_LEFT, CONTACT_RIGHT]].astype(int),
             rewards, np.full(len(rows), i)],
        )
        pitch = rows[:, PITCH]
        heading = np.cos(pitch) * rows[:, QDOT] + np.sin(pitch) * rows[:, QDOT + 1]
        report["traces"][name] = {
            "file": trace_path.name,
            "mean_heading_velocity": float(np.mean(heading)) if len(heading) else 0.0,
        }
    write_artifact(out, "eval", report, config_hash({"clock_rate": args.clock_rate}))
    print(f"mode MRA: {np.array2string(mode_scores, precision=3)}")
    print(f"mean transition MRA: {transition_scores.mean():.3f}; wrote {out}")
    return EXIT_OK


def cmd_plan(args) -> int:
    check_fields(args, trials=AT_LEAST_ONE)
    cfg = _config(plan_mod.PlannerConfig, args)
    out = _out_path(args.out, "plan.json")
    trace_path = Path(str(out) + ".trace.csv")
    _check_out_paths(out, trace_path)
    library = _load_encoded_library(args.library)
    policy = pol_mod.policy_from_payload(read_artifact(args.policy, "policy"))
    _check_policy_fits(policy, library, args.policy, args.library)
    terrain = _load_terrain(args.terrain)
    robot = RobotConfig()
    plan_mod.knot_steps(cfg, robot)
    cfg_hash = config_hash(dataclasses.asdict(cfg))
    print(
        f"planning: {cfg.knots} knots x {cfg.knot_dt}s, goal "
        f"({cfg.goal_x}, {cfg.goal_z}), {args.trials} trials x {cfg.episodes} episodes"
    )
    t0 = time.monotonic()
    result = plan_mod.parallel_trials(policy, library, terrain, robot, cfg, trials=args.trials)
    solve_seconds = time.monotonic() - t0
    payload = plan_mod.plan_to_payload(result.plan, library, cfg, cfg_hash)
    payload["best_return"] = result.best_return
    payload["solve_seconds"] = solve_seconds
    payload["q_table"] = result.q_table
    write_artifact(out, "plan", payload, cfg_hash)
    write_table(trace_path, ["t", "x", "z", "pitch", "reward", "mode_index"], [
        np.concatenate([knot for _, knot in result.trace]),
        np.concatenate([np.full(len(knot), mode) for mode, knot in result.trace]),
    ])
    names = " ".join(library.names[i] for i in result.plan.mode_indices)
    print(f"best plan (return {result.best_return:.2f}): {names}")
    print(f"wrote {out} and {trace_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="modeloco",
        description="Multimodal biped locomotion: reference library, latent "
        "mode encoder, adaptive-sampling policy training, and mode planning.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # Flags that set a config field or a function argument take its default
    # from the dataclass or the function signature, and its name as their dest.
    enc_d = enc_mod.EncoderTrainConfig()
    train_d = train_mod.TrainConfig()
    plan_d = plan_mod.PlannerConfig()
    eval_d = inspect.signature(pol_mod.evaluate_modes).parameters
    trials_d = inspect.signature(plan_mod.parallel_trials).parameters

    g = sub.add_parser("gen-refs", help="build a reference-motion library")
    g.add_argument("--modeset", required=True,
                   help=f"one of {','.join(MODESET_NAMES)} or a modeset JSON file")
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_gen_refs)

    t = sub.add_parser("train-encoder", help="fit latent modes to a library")
    t.add_argument("--library", required=True)
    t.add_argument("--out", default=None)
    t.add_argument("--epochs", type=int, default=enc_d.epochs)
    t.add_argument("--lr", type=float, default=enc_d.learning_rate, dest="learning_rate")
    t.add_argument("--seed", type=int, default=enc_d.seed)
    t.set_defaults(fn=cmd_train_encoder)

    tp = sub.add_parser("train-policy", help="train the multimodal policy")
    tp.add_argument("--library", required=True)
    tp.add_argument("--out", default=None)
    tp.add_argument("--terrain", default="flat")
    tp.add_argument("--sampler", choices=("adaptive", "uniform"), default=train_d.sampler)
    tp.add_argument("--gamma-i", type=float, default=train_d.mode_decay, dest="mode_decay")
    tp.add_argument("--gamma-f", type=float, default=train_d.transition_decay,
                    dest="transition_decay")
    tp.add_argument("--epsilon", type=float, default=train_d.floor, dest="floor")
    tp.add_argument("--updates", type=int, default=train_d.updates)
    tp.add_argument("--episodes-per-update", type=int, default=train_d.episodes_per_update)
    tp.add_argument("--horizon", type=int, default=train_d.horizon)
    tp.add_argument("--seed", type=int, default=train_d.seed)
    tp.add_argument("--modeset", choices=MODESET_NAMES, default=None,
                    help="selects default reward gains")
    tp.add_argument("--reward-weights", default=None,
                    help="three comma-separated tracking weights")
    tp.add_argument("--checkpoint", default=None)
    tp.add_argument("--checkpoint-every", type=int, default=train_d.checkpoint_every)
    tp.add_argument(
        "--resume", default=None,
        help="continue from this checkpoint; the checkpoint holds state only, so this "
        "run's own flags (seed, sampler, --gamma-i/--gamma-f/--epsilon, episodes per "
        "update, horizon) apply to the resumed run: pass the original flags to replay "
        "it exactly",
    )
    tp.add_argument("--log", default=None)
    tp.set_defaults(fn=cmd_train_policy)

    e = sub.add_parser("eval", help="normalized mean returns across modes and transitions")
    e.add_argument("--library", required=True)
    e.add_argument("--policy", required=True)
    e.add_argument("--terrain", default="flat")
    e.add_argument("--horizon", type=int, default=eval_d["horizon"].default)
    e.add_argument("--rollouts", type=int, default=eval_d["rollouts_per_case"].default,
                   dest="rollouts_per_case")
    e.add_argument("--clock-rate", type=float, default=eval_d["clock_rate"].default,
                   dest="clock_rate")
    e.add_argument("--modeset", choices=MODESET_NAMES, default=None)
    e.add_argument("--reward-weights", default=None)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_eval)

    pl = sub.add_parser("plan", help="Q-learn an open-loop mode plan for a goal")
    pl.add_argument("--library", required=True)
    pl.add_argument("--policy", required=True)
    pl.add_argument("--terrain", default="gap")
    pl.add_argument("--knots", type=int, default=plan_d.knots)
    pl.add_argument("--dt", type=float, default=plan_d.knot_dt, dest="knot_dt")
    pl.add_argument("--goal-x", type=float, default=plan_d.goal_x, dest="goal_x")
    pl.add_argument("--goal-z", type=float, default=plan_d.goal_z, dest="goal_z")
    pl.add_argument("--alpha", type=float, default=plan_d.alpha)
    pl.add_argument("--explore", type=float, default=plan_d.explore)
    pl.add_argument("--episodes", type=int, default=plan_d.episodes)
    pl.add_argument("--trials", type=int, default=trials_d["trials"].default)
    pl.add_argument("--seed", type=int, default=plan_d.seed)
    pl.add_argument("--out", default=None)
    pl.set_defaults(fn=cmd_plan)
    # Each command's flags by their dests: `main` names the flag of a rejected setting.
    for command in sub.choices.values():
        command.set_defaults(flags={a.dest: a.option_strings[0] for a in command._actions})
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: each `main` call parses into a new namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return EXIT_VALIDATION  # argparse has printed the usage error
    try:
        return args.fn(args)
    except FieldError as exc:  # a setting: name the flag that set it
        field, rule, value = exc.args
        print(f"error: {args.flags.get(field, field)} {rule}, got {value}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InvalidInputError, ArtifactError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
