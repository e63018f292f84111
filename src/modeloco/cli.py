"""Command line pipeline: gen-refs, train-encoder, train-policy, eval, plan.

Every command is deterministic given its configuration and seed, writes
artifacts with a config-hash header, and exits 0 on success, 1 on input
validation problems (usage errors included), and 2 on runtime failures. The
output directory defaults to the MODELOCO_OUT environment variable, then the
current directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import encoder as enc_mod
from . import planner as plan_mod
from . import policy as pol_mod
from . import training as train_mod
from .fileio import ArtifactError, config_hash, read_artifact, write_artifact, write_table
from .refmotion import (
    InvalidInputError,
    MODESET_NAMES,
    builtin_library,
    library_from_payload,
    library_to_payload,
    modeset_from_spec,
)
from .sim import RewardConfig, RobotConfig, TERRAIN_PRESETS, Terrain, observation_dim

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
    """The policy's input size must be the observation size the library's latents give."""
    latent_dim = library.latents.shape[1]
    want = observation_dim(latent_dim)
    if policy.dims[0] != want:
        raise InvalidInputError(
            f"policy {policy_path} takes {policy.dims[0]} observation inputs, but the "
            f"{latent_dim}-dimensional latents of library {library_path} give {want}"
        )


def _reward_config(args) -> RewardConfig:
    if args.reward_weights:
        w = tuple(float(v) for v in args.reward_weights.split(","))
        if len(w) != 3:
            raise InvalidInputError("reward weights must be three comma-separated values")
        return RewardConfig(weights=w)
    if args.modeset in MODESET_REWARD_WEIGHTS:
        return RewardConfig(weights=MODESET_REWARD_WEIGHTS[args.modeset])
    return RewardConfig()


def cmd_gen_refs(args) -> int:
    if Path(args.modeset).exists():
        spec = json.loads(Path(args.modeset).read_text())
        library = modeset_from_spec(spec)
        cfg = {"modeset_file": spec}
    else:
        library = builtin_library(args.modeset)
        cfg = {"modeset": args.modeset}
    out = _out_path(args.out, "library.json")
    write_artifact(out, "library", library_to_payload(library), config_hash(cfg))
    print(f"wrote {library.n}-mode library to {out}")
    return EXIT_OK


def cmd_train_encoder(args) -> int:
    library = library_from_payload(read_artifact(args.library, "library"))
    cfg = enc_mod.EncoderTrainConfig(
        learning_rate=args.lr, epochs=args.epochs, seed=args.seed
    )
    result = enc_mod.train_autoencoder(library, cfg)
    cfg_hash = config_hash(dataclasses.asdict(cfg))
    out = _out_path(args.out, "encoder.json")
    write_artifact(
        out, "encoder", enc_mod.params_to_payload(result.encoder, result.decoder), cfg_hash
    )
    write_artifact(
        args.library, "library", library_to_payload(result.library), cfg_hash
    )
    log_path = Path(str(out) + ".loss.csv")
    write_table(
        log_path, ["epoch", "loss"], ([i, repr(loss)] for i, loss in enumerate(result.losses))
    )
    print(
        f"trained encoder on {library.n} modes: final loss {result.final_loss:.6e}; "
        f"wrote {out}, updated latents in {args.library}, loss log {log_path}"
    )
    return EXIT_OK


def _train_configs(args):
    ppo = pol_mod.PpoConfig()
    tc = train_mod.TrainConfig(
        sampler=args.sampler,
        mode_decay=args.gamma_i,
        transition_decay=args.gamma_f,
        floor=args.epsilon,
        updates=args.updates,
        episodes_per_update=args.episodes_per_update,
        horizon=args.horizon,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
    )
    return ppo, tc


def _write_training_log(path: Path, rows, n: int) -> None:
    header = ["update", "episode", "mode_from", "mode_to", "switch_step",
              "episode_return", "normalized_return", "fell",
              "policy_loss", "value_loss", "entropy"]
    header += [f"mode_return_{i}" for i in range(n)]
    header += [f"transition_return_{i}_{j}" for i in range(n) for j in range(n)]
    write_table(path, header, (
        [r.update, r.episode, r.mode_from, r.mode_to, r.switch_step,
         repr(r.episode_return), repr(r.normalized_return), int(r.fell),
         repr(r.policy_loss), repr(r.value_loss), repr(r.entropy)]
        + [repr(v) for v in r.mode_returns]
        + [repr(v) for v in r.transition_returns.ravel()]
        for r in rows
    ))


def cmd_train_policy(args) -> int:
    library = _load_encoded_library(args.library)
    terrain = _load_terrain(args.terrain)
    robot = RobotConfig()
    reward_cfg = _reward_config(args)
    ppo, tc = _train_configs(args)
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
    out = _out_path(args.out, "policy.json")
    checkpoint_path = args.checkpoint or str(out) + ".checkpoint.json"
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
    write_artifact(
        out,
        "policy",
        pol_mod.policy_to_payload(result.state.policy, result.state.value),
        cfg_hash,
    )
    log_path = Path(args.log or str(out) + ".train.csv")
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
    library = _load_encoded_library(args.library)
    policy, _value = pol_mod.policy_from_payload(read_artifact(args.policy, "policy"))
    _check_policy_fits(policy, library, args.policy, args.library)
    terrain = _load_terrain(args.terrain)
    robot = RobotConfig()
    reward_cfg = _reward_config(args)
    traces: dict = {}
    mode_scores, transition_scores = pol_mod.evaluate_modes(
        policy,
        library,
        terrain,
        robot,
        reward_cfg,
        horizon=args.horizon,
        rollouts_per_case=args.rollouts,
        clock_rate=args.clock_rate,
        traces=traces,
    )
    report = {
        "mode_names": list(library.names),
        "clock_rate": args.clock_rate,
        "mode_mra": mode_scores.tolist(),
        "transition_mra": transition_scores.tolist(),
        "mean_mode_mra": float(mode_scores.mean()),
        "mean_transition_mra": float(transition_scores.mean()),
        "traces": {},
    }
    out = _out_path(args.out, "eval.json")
    # Per-mode traces: base height and heading velocity profiles.
    for i, name in enumerate(library.names):
        trace = traces[i]
        trace_path = Path(str(out) + f".{name}.csv")
        write_table(
            trace_path,
            ["t", "x", "z", "pitch", "hip_l", "knee_l", "hip_r", "knee_r",
             "vx", "vz", "pitch_rate", "dhip_l", "dknee_l", "dhip_r",
             "dknee_r", "contact_l", "contact_r", "reward", "mode_index"],
            ([repr(state.t)] + [repr(v) for v in state.q] + [repr(v) for v in state.qdot]
             + [int(state.contact_left), int(state.contact_right), repr(r), mode_idx]
             for state, r, mode_idx in trace),
        )
        heading = [float(np.cos(s.pitch) * s.qdot[0] + np.sin(s.pitch) * s.qdot[1])
                   for s, _, _ in trace]
        report["traces"][name] = {
            "file": trace_path.name,  # beside the report
            "mean_heading_velocity": float(np.mean(heading)) if heading else 0.0,
        }
    write_artifact(out, "eval", report, config_hash({"clock_rate": args.clock_rate}))
    print(f"mode MRA: {np.array2string(mode_scores, precision=3)}")
    print(f"mean transition MRA: {transition_scores.mean():.3f}; wrote {out}")
    return EXIT_OK


def _planner_config(args) -> plan_mod.PlannerConfig:
    return plan_mod.PlannerConfig(
        knots=args.knots,
        knot_dt=args.dt,
        goal_x=args.goal_x,
        goal_z=args.goal_z,
        alpha=args.alpha,
        explore=args.explore,
        episodes=args.episodes,
        seed=args.seed,
    )


def cmd_plan(args) -> int:
    library = _load_encoded_library(args.library)
    policy, _value = pol_mod.policy_from_payload(read_artifact(args.policy, "policy"))
    _check_policy_fits(policy, library, args.policy, args.library)
    terrain = _load_terrain(args.terrain)
    robot = RobotConfig()
    cfg = _planner_config(args)
    cfg_hash = config_hash(dataclasses.asdict(cfg))
    print(
        f"planning: {cfg.knots} knots x {cfg.knot_dt}s, goal "
        f"({cfg.goal_x}, {cfg.goal_z}), {args.trials} trials x {cfg.episodes} episodes"
    )
    t0 = time.monotonic()
    result = plan_mod.parallel_trials(policy, library, terrain, robot, cfg, trials=args.trials)
    solve_seconds = time.monotonic() - t0
    out = _out_path(args.out, "plan.json")
    payload = plan_mod.plan_to_payload(result.plan, library, cfg, cfg_hash)
    payload["best_return"] = result.best_return
    payload["solve_seconds"] = solve_seconds
    payload["q_table"] = result.q_table.tolist()
    write_artifact(out, "plan", payload, cfg_hash)
    trace: list = []
    plan_mod.plan_rollout(result.plan, policy, library, terrain, robot, cfg, trace=trace)
    trace_path = Path(str(out) + ".trace.csv")
    write_table(
        trace_path,
        ["t", "x", "z", "pitch", "reward", "mode_index"],
        ([repr(state.t), repr(state.x), repr(state.z), repr(state.pitch), repr(r), mode_idx]
         for state, r, mode_idx in trace),
    )
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
    # from the dataclass or the function signature.
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
    t.add_argument("--lr", type=float, default=enc_d.learning_rate)
    t.add_argument("--seed", type=int, default=enc_d.seed)
    t.set_defaults(fn=cmd_train_encoder)

    tp = sub.add_parser("train-policy", help="train the multimodal policy")
    tp.add_argument("--library", required=True)
    tp.add_argument("--out", default=None)
    tp.add_argument("--terrain", default="flat")
    tp.add_argument("--sampler", choices=("adaptive", "uniform"), default=train_d.sampler)
    tp.add_argument("--gamma-i", type=float, default=train_d.mode_decay, dest="gamma_i")
    tp.add_argument("--gamma-f", type=float, default=train_d.transition_decay, dest="gamma_f")
    tp.add_argument("--epsilon", type=float, default=train_d.floor)
    tp.add_argument("--updates", type=int, default=train_d.updates)
    tp.add_argument("--episodes-per-update", type=int, default=train_d.episodes_per_update)
    tp.add_argument("--horizon", type=int, default=train_d.horizon)
    tp.add_argument("--seed", type=int, default=train_d.seed)
    tp.add_argument("--modeset", default=None, help="selects default reward gains")
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
    e.add_argument("--rollouts", type=int, default=eval_d["rollouts_per_case"].default)
    e.add_argument("--clock-rate", type=float, default=eval_d["clock_rate"].default,
                   dest="clock_rate")
    e.add_argument("--modeset", default=None)
    e.add_argument("--reward-weights", default=None)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_eval)

    pl = sub.add_parser("plan", help="Q-learn an open-loop mode plan for a goal")
    pl.add_argument("--library", required=True)
    pl.add_argument("--policy", required=True)
    pl.add_argument("--terrain", default="gap")
    pl.add_argument("--knots", type=int, default=plan_d.knots)
    pl.add_argument("--dt", type=float, default=plan_d.knot_dt)
    pl.add_argument("--goal-x", type=float, default=plan_d.goal_x, dest="goal_x")
    pl.add_argument("--goal-z", type=float, default=plan_d.goal_z, dest="goal_z")
    pl.add_argument("--alpha", type=float, default=plan_d.alpha)
    pl.add_argument("--explore", type=float, default=plan_d.explore)
    pl.add_argument("--episodes", type=int, default=plan_d.episodes)
    pl.add_argument("--trials", type=int, default=trials_d["trials"].default)
    pl.add_argument("--seed", type=int, default=plan_d.seed)
    pl.add_argument("--out", default=None)
    pl.set_defaults(fn=cmd_plan)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return EXIT_VALIDATION  # argparse has printed the usage error
    try:
        return args.fn(args)
    except (InvalidInputError, ArtifactError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
