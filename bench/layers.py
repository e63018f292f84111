"""Which program functions the traced run wraps, and the per-layer metrics.

Each target names a public function of one ``modeloco`` module. The post
hooks read counts from a call's arguments and result (episode length, PPO
batch size, bytes written); they tolerate a changed signature by recording
nothing, so a refactored program still runs under the benchmark.
"""

from __future__ import annotations

import math
import os
import sys
from collections import defaultdict

from tracer import Span, Target, ancestor_named, self_times

# Failures a post hook may meet when the program's API has changed.
_API_DRIFT = (AttributeError, TypeError, IndexError, KeyError, ValueError)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _termination(args, kwargs, status):
    blowup = getattr(sys.modules.get("modeloco.sim"), "BLOWUP", "blowup")
    return {"blowup": 1} if status == blowup else None


def _rollout(args, kwargs, tr):
    try:
        attrs = {"steps": int(len(tr.rewards)), "fell": int(bool(tr.fell))}
    except _API_DRIFT:
        return None
    try:
        reward_cfg = _arg(args, kwargs, 6, "reward_cfg")
        attrs["normalized"] = float(
            sys.modules["modeloco.policy"].normalized_return(tr, reward_cfg)
        )
    except _API_DRIFT:
        pass
    return attrs


def _ppo_update(args, kwargs, result):
    try:
        trajectories = _arg(args, kwargs, 3, "trajectories")
        return {
            "samples": sum(int(len(tr.rewards)) for tr in trajectories),
            "rejected": int(bool(result[3].rejected)),
        }
    except _API_DRIFT:
        return None


def _plan_rollout(args, kwargs, rewards):
    try:
        plan = tuple(int(i) for i in _arg(args, kwargs, 0, "plan").mode_indices)
        # Knot rewards are strictly positive, and knots after a fall stay 0.
        run = max((k + 1 for k, r in enumerate(rewards) if r != 0.0), default=0)
    except _API_DRIFT:
        return None
    return {"plan": plan, "knots_run": run}


def _file_bytes(args, kwargs, result):
    try:
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    except (OSError, TypeError):
        return None


TARGETS = [
    Target("sim.step", "modeloco.sim", "step"),
    Target("sim.observe", "modeloco.sim", "observe"),
    Target("sim.reward", "modeloco.sim", "reward"),
    Target("sim.tracker_at", "modeloco.sim", "ModeTracker.at"),
    Target("sim.termination", "modeloco.sim", "termination", _termination),
    Target("policy.act", "modeloco.policy", "act"),
    Target("policy.value_of", "modeloco.policy", "value_of"),
    Target("policy.rollout", "modeloco.policy", "rollout", _rollout),
    Target("policy.ppo_update", "modeloco.policy", "ppo_update", _ppo_update),
    Target("policy.evaluate_modes", "modeloco.policy", "evaluate_modes"),
    Target("sampler.sample_script", "modeloco.sampler", "sample_script"),
    Target("sampler.update_records", "modeloco.sampler", "update_records"),
    Target("training.run_training", "modeloco.training", "run_training"),
    Target("training.save_checkpoint", "modeloco.training", "save_checkpoint"),
    Target("encoder.train_autoencoder", "modeloco.encoder", "train_autoencoder"),
    Target("encoder.autoencoder_gradient", "modeloco.encoder", "autoencoder_gradient"),
    Target("encoder.batch_loss", "modeloco.encoder", "batch_loss"),
    Target("encoder.encode", "modeloco.encoder", "encode"),
    Target("optim.adam_step", "modeloco.optim", "adam_step"),
    Target("planner.plan_rollout", "modeloco.planner", "plan_rollout", _plan_rollout),
    Target("planner.q_learn", "modeloco.planner", "q_learn"),
    Target("fileio.write_artifact", "modeloco.fileio", "write_artifact", _file_bytes),
    Target("fileio.read_artifact", "modeloco.fileio", "read_artifact", _file_bytes),
]

# Every env-step is one call of the scalar simulator step.
STEP_TARGET = [t for t in TARGETS if t.name == "sim.step"]

CLI_STAGES = ("train-policy", "train-encoder", "eval", "plan")

# (metric, unit); the traced run reports all of them on every workload, with
# 0 for a layer the workload does not reach.
METRICS = [
    ("sim.step.calls", "count"),
    ("sim.step.self_s", "s"),
    ("sim.step.us_p50", "us"),
    ("sim.step.us_p99", "us"),
    ("sim.observe.calls", "count"),
    ("sim.observe.self_s", "s"),
    ("sim.reward.self_s", "s"),
    ("sim.tracker_at.self_s", "s"),
    ("sim.termination.self_s", "s"),
    ("sim.blowups", "count"),
    ("policy.act.calls", "count"),
    ("policy.act.self_s", "s"),
    ("policy.value_of.calls", "count"),
    ("policy.value_of.self_s", "s"),
    ("policy.rollout.calls", "count"),
    ("policy.rollout.self_s", "s"),
    ("policy.rollout.env_steps", "count"),
    ("policy.rollout.falls", "count"),
    ("policy.ppo_update.calls", "count"),
    ("policy.ppo_update.ms_p50", "ms"),
    ("policy.ppo_update.ms_p90", "ms"),
    ("policy.ppo_update.samples", "count"),
    ("policy.ppo_update.rejected", "count"),
    ("policy.evaluate_modes.s", "s"),
    ("policy.evaluate_modes.rollouts", "count"),
    ("policy.evaluate_modes.useful_share", "share"),
    ("planner.plan_rollout.calls", "count"),
    ("planner.plan_rollout.self_s", "s"),
    ("planner.plan_rollout.env_steps", "count"),
    ("planner.prefix_repeat_share", "share"),
    ("planner.q_learn.s", "s"),
    ("encoder.autoencoder_gradient.calls", "count"),
    ("encoder.autoencoder_gradient.self_s", "s"),
    ("encoder.autoencoder_gradient.ms_p50", "ms"),
    ("encoder.batch_loss.calls", "count"),
    ("encoder.batch_loss.self_s", "s"),
    ("encoder.forward_passes_per_epoch", "count"),
    ("encoder.encode.calls", "count"),
    ("optim.adam_step.calls", "count"),
    ("optim.adam_step.self_s", "s"),
    ("sampler.sample_script.calls", "count"),
    ("sampler.sample_script.us_p50", "us"),
    ("sampler.update_records.self_s", "s"),
    ("training.save_checkpoint.calls", "count"),
    ("training.save_checkpoint.s", "s"),
    ("fileio.write_artifact.calls", "count"),
    ("fileio.write_artifact.s", "s"),
    ("fileio.write_artifact.bytes", "bytes"),
    ("fileio.read_artifact.calls", "count"),
    ("fileio.read_artifact.s", "s"),
    ("fileio.read_artifact.bytes", "bytes"),
    *((f"cli.{stage}.s", "s") for stage in CLI_STAGES),
    ("work.env_steps", "count"),
    ("quality.fall_share", "share"),
    ("quality.normalized_return", "share"),
    ("trace.absent_targets", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "share"),
]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def prefix_repeat_share(plans: list[tuple[tuple[int, ...], int]]) -> float:
    """Share of executed knots whose mode prefix an earlier rollout already ran.

    ``plans`` holds (mode indices, knots executed) per plan rollout, in call
    order. A deterministic policy in a deterministic simulator reaches the
    same state after the same prefix, so these knots are redundant work.
    """
    seen: set[tuple[int, ...]] = set()
    total = repeats = 0
    for modes, run in plans:
        for k in range(1, run + 1):
            prefix = modes[:k]
            total += 1
            if prefix in seen:
                repeats += 1
            else:
                seen.add(prefix)
    return repeats / total if total else 0.0


def layer_metrics(spans: list[Span], eval_cases: int, encoder_epochs: int) -> dict:
    """Per-layer metrics of one traced pass (one run of a workload's commands)."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    attrs: dict[str, list[dict]] = defaultdict(list)
    eval_rollouts = plan_steps = 0
    for s, own_s in zip(spans, own):
        calls[s.name] += 1
        self_s[s.name] += own_s
        total_s[s.name] += s.t1 - s.t0
        durations[s.name].append(s.t1 - s.t0)
        if s.attrs:
            attrs[s.name].append(s.attrs)
        if s.name == "policy.rollout" and ancestor_named(spans, s, "policy.evaluate_modes"):
            eval_rollouts += 1
        if s.name == "sim.step" and ancestor_named(spans, s, "planner.plan_rollout"):
            plan_steps += 1

    def attr_sum(name: str, key: str) -> float:
        return sum(a.get(key, 0) for a in attrs[name])

    rollouts = attrs["policy.rollout"]
    normalized = [a["normalized"] for a in rollouts if "normalized" in a]
    updates = calls["policy.ppo_update"]
    m = {
        "sim.step.calls": calls["sim.step"],
        "sim.step.self_s": self_s["sim.step"],
        "sim.step.us_p50": 1e6 * percentile(durations["sim.step"], 0.5),
        "sim.step.us_p99": 1e6 * percentile(durations["sim.step"], 0.99),
        "sim.observe.calls": calls["sim.observe"],
        "sim.observe.self_s": self_s["sim.observe"],
        "sim.reward.self_s": self_s["sim.reward"],
        "sim.tracker_at.self_s": self_s["sim.tracker_at"],
        "sim.termination.self_s": self_s["sim.termination"],
        "sim.blowups": attr_sum("sim.termination", "blowup"),
        "policy.act.calls": calls["policy.act"],
        "policy.act.self_s": self_s["policy.act"],
        "policy.value_of.calls": calls["policy.value_of"],
        "policy.value_of.self_s": self_s["policy.value_of"],
        "policy.rollout.calls": calls["policy.rollout"],
        "policy.rollout.self_s": self_s["policy.rollout"],
        "policy.rollout.env_steps": attr_sum("policy.rollout", "steps"),
        "policy.rollout.falls": attr_sum("policy.rollout", "fell"),
        "policy.ppo_update.calls": updates,
        "policy.ppo_update.ms_p50": 1e3 * percentile(durations["policy.ppo_update"], 0.5),
        "policy.ppo_update.ms_p90": 1e3 * percentile(durations["policy.ppo_update"], 0.9),
        "policy.ppo_update.samples":
            attr_sum("policy.ppo_update", "samples") / updates if updates else 0.0,
        "policy.ppo_update.rejected": attr_sum("policy.ppo_update", "rejected"),
        "policy.evaluate_modes.s": total_s["policy.evaluate_modes"],
        "policy.evaluate_modes.rollouts": eval_rollouts,
        "policy.evaluate_modes.useful_share":
            eval_cases / eval_rollouts if eval_rollouts else 0.0,
        "planner.plan_rollout.calls": calls["planner.plan_rollout"],
        "planner.plan_rollout.self_s": self_s["planner.plan_rollout"],
        "planner.plan_rollout.env_steps": plan_steps,
        "planner.prefix_repeat_share": prefix_repeat_share(
            [(a["plan"], a["knots_run"]) for a in attrs["planner.plan_rollout"]]
        ),
        "planner.q_learn.s": total_s["planner.q_learn"],
        "encoder.autoencoder_gradient.calls": calls["encoder.autoencoder_gradient"],
        "encoder.autoencoder_gradient.self_s": self_s["encoder.autoencoder_gradient"],
        "encoder.autoencoder_gradient.ms_p50":
            1e3 * percentile(durations["encoder.autoencoder_gradient"], 0.5),
        "encoder.batch_loss.calls": calls["encoder.batch_loss"],
        "encoder.batch_loss.self_s": self_s["encoder.batch_loss"],
        "encoder.forward_passes_per_epoch": (
            (calls["encoder.autoencoder_gradient"] + calls["encoder.batch_loss"])
            / encoder_epochs if encoder_epochs else 0.0
        ),
        "encoder.encode.calls": calls["encoder.encode"],
        "optim.adam_step.calls": calls["optim.adam_step"],
        "optim.adam_step.self_s": self_s["optim.adam_step"],
        "sampler.sample_script.calls": calls["sampler.sample_script"],
        "sampler.sample_script.us_p50":
            1e6 * percentile(durations["sampler.sample_script"], 0.5),
        "sampler.update_records.self_s": self_s["sampler.update_records"],
        "training.save_checkpoint.calls": calls["training.save_checkpoint"],
        "training.save_checkpoint.s": total_s["training.save_checkpoint"],
        "fileio.write_artifact.calls": calls["fileio.write_artifact"],
        "fileio.write_artifact.s": total_s["fileio.write_artifact"],
        "fileio.write_artifact.bytes": attr_sum("fileio.write_artifact", "bytes"),
        "fileio.read_artifact.calls": calls["fileio.read_artifact"],
        "fileio.read_artifact.s": total_s["fileio.read_artifact"],
        "fileio.read_artifact.bytes": attr_sum("fileio.read_artifact", "bytes"),
        "work.env_steps": calls["sim.step"],
        "quality.fall_share":
            attr_sum("policy.rollout", "fell") / len(rollouts) if rollouts else 0.0,
        "quality.normalized_return": sum(normalized) / len(normalized) if normalized else 0.0,
    }
    for stage in CLI_STAGES:
        m[f"cli.{stage}.s"] = total_s[f"cli.{stage}"]
    return m


def top_self_time(spans: list[Span]) -> list[tuple[str, float]]:
    """Layers by total self time, largest first, without the benchmark's own spans."""
    totals: dict[str, float] = defaultdict(float)
    for s, own_s in zip(spans, self_times(spans)):
        if not s.name.startswith("cli."):
            totals[s.name] += own_s
    return sorted(totals.items(), key=lambda kv: -kv[1])
