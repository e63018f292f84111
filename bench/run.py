"""Benchmark of the modeloco pipeline: end-to-end rates and a per-layer trace.

Run from the root of a source checkout:

    python3 bench/run.py --workload train-pi3 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each workload is a closed loop: one client, single-threaded, no arrival
rate. A run builds the workload's inputs from the seed, then repeats the
workload's commands through ``modeloco.cli.main`` in-process until
``--seconds`` are used up. The gated rate counts the work each command's
argv asks for, so work the program skips counts as a gain. The first pass
also counts env-steps (calls of ``modeloco.sim.step``) for the report; the
work is deterministic, so every pass does the same. With ``--trace 0``
every pass is untraced and the run reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the run reports the
per-layer metrics of the traced passes plus the tracing overhead. The last
line of stdout is one JSON object; see README.md.
"""

from __future__ import annotations

import os

# numpy links a multithreaded BLAS; pin it before anything imports numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
# Reference-kernel time per pass: a share of the pass, at least a minimum.
CALIBRATE_SHARE = 0.1
CALIBRATE_MIN_S = 0.1

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_ref_s": "1/s"}

# The import that set-up time charges: a fresh interpreter importing the CLI.
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import modeloco.cli; print(time.perf_counter() - t)"
)


class CliFailure(RuntimeError):
    pass


@dataclass
class Op:
    stage: str
    work: int  # what the argv asks for; see workloads.Command
    rate: tuple[str, int | None, str]  # the command's named rate
    wall_s: float = 0.0
    env_steps: int | None = None  # counted on the first pass only
    host_speed: float = 1.0  # of the reference host, measured around the command
    error: str | None = None


@dataclass
class Pass:
    ops: list[Op] = field(default_factory=list)
    spans: list | None = None  # traced passes only
    absent: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def ref_s(self) -> float:
        """Time the pass's commands would take on the reference host."""
        return sum(op.wall_s * op.host_speed for op in self.ops)

    @property
    def work(self) -> int:
        return sum(op.work for op in self.ops)

    def stage_wall(self, stage: str) -> float:
        return sum(op.wall_s for op in self.ops if op.stage == stage)


def run_cli(argv: list[str]) -> float:
    """Run one CLI command in-process; returns its wall time in seconds."""
    from modeloco import cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    if rc != 0:
        tail = captured.getvalue().strip().splitlines()[-1:] or [""]
        raise CliFailure(f"{argv[0]} exited {rc}: {tail[0]}")
    return wall


def run_pass(wl, inputs: Path, out: Path, seed: int, mode: str = "plain") -> Pass:
    """Run the workload's commands once into a fresh directory and check outputs.

    mode is "plain", "count" (also count env-steps per command) or "trace".
    Untraced commands are bracketed by blocks of the host-speed kernel.
    """
    import calibrate
    from layers import STEP_TARGET, TARGETS
    from tracer import Tracer, count_calls, trace
    from workloads import CheckError

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if wl.prepare is not None:
        wl.prepare(inputs, out)
    result = Pass()
    tracer = Tracer()
    counts: dict = {}
    restore = None
    if mode == "count":
        counts, restore, result.absent = count_calls(STEP_TARGET)
    elif mode == "trace":
        restore, result.absent = trace(tracer, TARGETS)
    before = calibrate.block(CALIBRATE_MIN_S) if mode != "trace" else None
    try:
        for cmd in wl.commands(inputs, out, seed):
            op = Op(cmd.stage, cmd.work, cmd.rate)
            steps_before = counts.get("sim.step", 0)
            try:
                if mode == "trace":
                    op.wall_s = tracer.span(f"cli.{cmd.stage}", run_cli, cmd.argv)
                else:
                    op.wall_s = run_cli(cmd.argv)
                cmd.check(out)
            except (CliFailure, CheckError, OSError, KeyError, ValueError) as exc:
                op.error = f"{cmd.stage}: {exc}"
            if mode == "count":
                op.env_steps = counts.get("sim.step", 0) - steps_before
            if before is not None:
                after = calibrate.block(max(CALIBRATE_MIN_S, CALIBRATE_SHARE * op.wall_s))
                op.host_speed = calibrate.speed(before, after)
                before = after
            result.ops.append(op)
    finally:
        if restore is not None:
            restore()
    if mode == "trace":
        result.spans = tracer.spans
    return result


def measure_setup(wl, inputs: Path, seed: int) -> tuple[float, float, float]:
    """(set-up time, import time, build time): medians over a few repeats."""
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, timeout=60, check=True)
        imports.append(float(probe.stdout.strip().splitlines()[-1]))
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        t0 = time.perf_counter()
        wl.build(run_cli, inputs, seed)
        builds.append(time.perf_counter() - t0)
    imp, build = statistics.median(imports), statistics.median(builds)
    return imp + build, imp, build


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies by version
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "modeloco").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # an exported checkout; src_sha256 identifies the code
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def end_to_end(passes: list[Pass]) -> tuple[float, list[str]]:
    """work_per_ref_s and report lines of the named stage rates (wall time).

    work_per_ref_s is the median over passes of the pass's work per second
    of reference-host time: each command's wall time is multiplied by the
    host speed measured around it.
    """
    amounts: dict[str, list] = {}  # stage -> [metric, amount per pass, unit]
    for op in passes[0].ops:  # the counting pass
        name, amount, unit = op.rate
        entry = amounts.setdefault(op.stage, [name, 0, unit])
        entry[1] += (op.env_steps or 0) if amount is None else amount
    lines = []
    for stage, (name, amount, unit) in amounts.items():
        if amount:  # env-steps are not counted if the program no longer calls sim.step
            rate = statistics.median(amount / p.stage_wall(stage) for p in passes)
            lines.append(f"{name} = {rate:.6g} {unit}")
    wall = [p.work / p.wall_s for p in passes]
    lines += ["work per wall second by pass: " + " ".join(f"{r:.5g}" for r in wall),
              "host speed by command: "
              + " ".join(f"{op.host_speed:.4g}" for p in passes for op in p.ops),
              f"work per wall second (median) = {statistics.median(wall):.6g} 1/s"]
    return statistics.median(p.work / p.ref_s for p in passes), lines


def per_layer(wl, traced: list[Pass], plain: list[Pass]) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over traced passes) and report lines."""
    from layers import layer_metrics, top_self_time

    amounts = {op.stage: op.rate[1] for op in plain[0].ops}
    eval_cases = amounts.get("eval", 0)
    epochs = amounts.get("train-encoder", 0)
    per_pass = [layer_metrics(p.spans, eval_cases, epochs) for p in traced]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    traced_wall = statistics.median(p.wall_s for p in traced)
    plain_wall = statistics.median(p.wall_s for p in plain)
    metrics["trace.absent_targets"] = len(traced[0].absent)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall

    spans = traced[0].spans
    top = top_self_time(spans)
    lines = ["self time by layer, first traced pass: "
             + ", ".join(f"{name} {sec:.3f} s" for name, sec in top[:6])]
    if traced[0].absent:
        lines.append("absent targets: " + ", ".join(traced[0].absent))
    names = {s.name for s in spans}
    has_encoder = any(n.startswith("encoder.") for n in names)
    if wl.simulates:
        expect = "sim.step has the largest self time, no encoder spans"
        holds = bool(top) and top[0][0] == "sim.step" and not has_encoder
    else:
        expect, holds = "no sim.step spans", "sim.step" not in names and has_encoder
    lines.append(f"layer split ({expect}): {'holds' if holds else 'DOES NOT HOLD'}")
    return metrics, lines


def run_workload(args) -> int:
    from layers import METRICS
    from tracer import write_spans
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    work_dir = OUT / wl.name
    shutil.rmtree(work_dir, ignore_errors=True)
    inputs, out = work_dir / "inputs", work_dir / "pass"

    setup_s, import_s, build_s = measure_setup(wl, inputs, args.seed)
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(wl, inputs, out, args.seed, "plain" if plain else "count"))
        if args.trace:
            traced.append(run_pass(wl, inputs, out, args.seed, "trace"))
        used = time.perf_counter() - start
        if used + used / len(plain) > args.seconds:
            break

    ops = [op for p in plain + traced for op in p.ops]
    failed = [op.error for op in ops if op.error]
    env_steps = [(op.stage, op.env_steps) for op in plain[0].ops]
    env = environment(args.seed)
    lines = [f"workload {wl.name}: {wl.why}",
             "environment: " + json.dumps(env, sort_keys=True),
             f"setup_s = {setup_s:.6g} s (import {import_s:.4g} s + inputs {build_s:.4g} s, "
             f"medians of {SETUP_REPEATS})",
             f"env-steps per command: {env_steps}"
             + (" (modeloco.sim.step not found)" if plain[0].absent else ""),
             f"passes: {len(plain)} untraced, {len(traced)} traced",
             f"ops = {len(ops)} commands", f"ops_failed = {len(failed)}"]
    lines += [f"failed: {e}" for e in failed[:5]]

    metrics: dict[str, float] = {}
    if not failed:
        if args.trace:
            metrics, extra = per_layer(wl, traced, plain)
            for i, p in enumerate(traced):
                write_spans(p.spans, work_dir / f"spans{i}.jsonl")
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            work_per_ref_s, extra = end_to_end(plain)
            metrics = {"setup_s": setup_s, "peak_rss_mb": rss_mb,
                       "work_per_ref_s": work_per_ref_s}
        lines += extra
    units = dict(METRICS) if args.trace else END_TO_END
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    lines += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    print("\n".join(lines))
    (work_dir / "result.json").write_text(json.dumps(
        {"workload": wl.name, "environment": env, "report": lines, **result}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] no result (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and res["correct"] and proc.returncode == 0
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            summary["metrics"][f"{name}/{k}"] = v
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    if not (SRC / "modeloco" / "cli.py").is_file():
        print(f"error: no modeloco sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
