import copy
import csv
import dataclasses
import functools
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from modeloco import cli
from modeloco import planner as plan_mod
from modeloco import policy as pol_mod
from modeloco import sampler
from modeloco import training as train_mod
from modeloco.encoder import EncoderTrainConfig
from modeloco.fileio import read_artifact, write_artifact
from modeloco.optim import AdamState
from modeloco.planner import PlannerConfig, parallel_trials
from modeloco.policy import evaluate_modes
from modeloco.training import TrainConfig


TWO_MODE_SPEC = {
    "name": "tiny",
    "dt": 0.02,
    "modes": [
        {
            "name": "idle",
            "kind": "steady_state",
            "keyframes": [
                {"time": 0.0, "x": 0.0, "z": 0.5, "pitch": 0.0},
                {"time": 1.0, "x": 0.0, "z": 0.5, "pitch": 0.0},
            ],
            "contact_phases": None,
        },
        {
            "name": "walk_f",
            "kind": "periodic",
            "keyframes": [
                {"time": 0.0, "x": 0.0, "z": 0.5, "pitch": 0.0},
                {"time": 1.0, "x": 0.5, "z": 0.5, "pitch": 0.0},
            ],
            "contact_phases": None,
        },
    ],
}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("MODELOCO_OUT", str(tmp_path))
    return tmp_path


def run(*argv):
    return cli.main(list(argv))


def test_gen_refs_builtin_and_rerun_identical(workdir):
    out = workdir / "library.json"
    assert run("gen-refs", "--modeset", "pi2", "--out", str(out)) == 0
    first = out.read_bytes()
    assert run("gen-refs", "--modeset", "pi2", "--out", str(out)) == 0
    assert out.read_bytes() == first
    payload = read_artifact(out, "library")
    assert payload["n"] == 4


def test_gen_refs_unknown_modeset(workdir, capsys):
    assert run("gen-refs", "--modeset", "pi9") == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "pi1" in err and "pi2" in err and "pi3" in err


def test_gen_refs_from_spec_file(workdir):
    spec_path = workdir / "tiny.modes.json"
    spec_path.write_text(json.dumps(TWO_MODE_SPEC))
    out = workdir / "tiny.json"
    assert run("gen-refs", "--modeset", str(spec_path), "--out", str(out)) == 0
    payload = read_artifact(out, "library")
    assert [m["name"] for m in payload["modes"]] == ["idle", "walk_f"]


def test_gen_refs_spec_without_modes_is_validation_error(workdir, capsys):
    spec_path = workdir / "nomodes.json"
    spec_path.write_text(json.dumps({"name": "tiny", "dt": 0.02}))
    assert run("gen-refs", "--modeset", str(spec_path)) == cli.EXIT_VALIDATION
    assert "no 'modes' entry" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, problem",
    [(b"[" * 100_000, "nests its JSON too deeply to read"),
     (b'{"name": "caf\xe9"}', "is not UTF-8 text"),
     (b'{"modes": [', "is not valid JSON")],
    ids=["deeply-nested", "not-utf8", "not-json"],
)
def test_gen_refs_spec_file_must_be_utf8_json(workdir, capsys, text, problem):
    spec_path = workdir / "bad.modes.json"
    spec_path.write_bytes(text)
    assert run("gen-refs", "--modeset", str(spec_path)) == cli.EXIT_VALIDATION
    assert f"error: {spec_path} {problem}" in capsys.readouterr().err
    assert not (workdir / "library.json").exists()


@pytest.mark.parametrize(
    "field, value, problem",
    [("time", None, "'time' of a keyframe of mode 1 must be a finite number, got None"),
     ("z", None, "'z' of a keyframe of mode 1 must be a finite number, got None"),
     ("dt", None, "'dt' of the modeset must be a finite number, got None"),
     # Finite numbers whose sample count overflows a float, with no numpy warning.
     ("dt", 1e-320, "mode 'idle': keyframes from 0.0 s to 1.0 s at dt 1e-320 give too many"),
     ("time", 1e308, "mode 'walk_f': keyframes from 0.0 s to 1e+308 s at dt 0.02 give too many")],
    ids=["time-a keyframe of mode 1", "z-a keyframe of mode 1", "dt-the modeset",
         "dt-overflowing", "time-overflowing"],
)
def test_gen_refs_spec_null_number_is_validation_error(workdir, capsys, field, value, problem):
    spec = copy.deepcopy(TWO_MODE_SPEC)
    entry = spec if field == "dt" else spec["modes"][1]["keyframes"][-1]
    entry[field] = value
    spec_path = workdir / "null.json"
    spec_path.write_text(json.dumps(spec))
    assert run("gen-refs", "--modeset", str(spec_path)) == cli.EXIT_VALIDATION
    assert problem in capsys.readouterr().err


def test_parser_defaults_are_the_config_defaults():
    parser = cli.build_parser()
    tp = parser.parse_args(["train-policy", "--library", "lib.json"])
    assert cli._config(TrainConfig, tp) == TrainConfig()
    pl = parser.parse_args(["plan", "--library", "lib.json", "--policy", "pol.json"])
    assert cli._config(PlannerConfig, pl) == PlannerConfig()
    te = parser.parse_args(["train-encoder", "--library", "lib.json"])
    assert cli._config(EncoderTrainConfig, te) == EncoderTrainConfig()
    ev = parser.parse_args(["eval", "--library", "lib.json", "--policy", "pol.json"])
    eval_d = inspect.signature(evaluate_modes).parameters
    assert (ev.horizon, ev.rollouts_per_case, ev.clock_rate) == tuple(
        eval_d[k].default for k in ("horizon", "rollouts_per_case", "clock_rate")
    )
    assert pl.trials == inspect.signature(parallel_trials).parameters["trials"].default


def test_main_builds_one_parser_and_parses_each_call_into_its_own_namespace(monkeypatch):
    builds, seen = [], []
    real_build = cli.build_parser

    def counted_build():
        builds.append(1)
        return real_build()

    def record(args):
        seen.append(args)
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "build_parser", counted_build)
    for name in ("cmd_gen_refs", "cmd_plan"):
        monkeypatch.setattr(cli, name, record)
    cli._parser.cache_clear()  # so that the parser is built with the recorders
    try:
        assert run("gen-refs", "--modeset", "pi1", "--out", "a.json") == cli.EXIT_OK
        assert run("plan", "--library", "l.json", "--policy", "p.json", "--knots", "3",
                   "--trials", "2") == cli.EXIT_OK
        assert run("gen-refs", "--modeset", "pi2") == cli.EXIT_OK
    finally:
        cli._parser.cache_clear()  # the next test's call builds the real parser
    assert len(builds) == 1
    first, plan, second = seen
    assert len({id(first), id(plan), id(second)}) == 3
    assert (first.command, first.modeset, first.out) == ("gen-refs", "pi1", "a.json")
    assert (second.command, second.modeset, second.out) == ("gen-refs", "pi2", None)
    assert (plan.command, plan.knots, plan.trials, plan.out) == ("plan", 3, 2, None)
    assert not hasattr(plan, "modeset") and not hasattr(first, "knots")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train-policy", "--library", "lib.json", "--workers", "2"],
         "unrecognized arguments: --workers 2"),
        (["plan", "--library", "lib.json", "--policy", "pol.json", "--workers", "2"],
         "unrecognized arguments: --workers 2"),
        (["train-policy", "--library", "lib.json", "--updates", "ten"],
         "argument --updates: invalid int value: 'ten'"),
        # The mode set picks the reward weights: a typo must not fall back
        # to the default weights.
        (["train-policy", "--library", "lib.json", "--modeset", "pi33"],
         "argument --modeset: invalid choice: 'pi33'"),
        (["eval", "--library", "lib.json", "--policy", "pol.json", "--modeset", "pi33"],
         "argument --modeset: invalid choice: 'pi33'"),
    ],
    ids=["train-policy-workers", "plan-workers", "updates-not-an-int", "train-policy-modeset",
         "eval-modeset"],
)
def test_usage_errors_are_validation_errors(capsys, argv, message):
    assert run(*argv) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run("plan", "--help")
    assert exc.value.code == 0
    assert "--trials" in capsys.readouterr().out


def _gen_and_encode(workdir, epochs="120"):
    spec_path = workdir / "tiny.modes.json"
    spec_path.write_text(json.dumps(TWO_MODE_SPEC))
    lib = workdir / "library.json"
    enc = workdir / "encoder.json"
    assert run("gen-refs", "--modeset", str(spec_path), "--out", str(lib)) == 0
    assert (
        run(
            "train-encoder", "--library", str(lib), "--out", str(enc),
            "--epochs", epochs, "--seed", "0",
        )
        == 0
    )
    return lib, enc


def test_train_encoder_fills_latents_and_logs_loss(workdir):
    lib, enc = _gen_and_encode(workdir)
    payload = read_artifact(lib, "library")
    for mode in payload["modes"]:
        assert mode["latent"] is not None and len(mode["latent"]) == 4
    doc = json.loads(enc.read_text())
    assert doc["format"] == "modeloco/encoder"
    assert doc["config_hash"]
    with open(str(enc) + ".loss.csv") as f:
        losses = [float(row["loss"]) for row in csv.DictReader(f)]
    assert len(losses) == 121
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def _train_policy(workdir, lib, out, *extra):
    return run(
        "train-policy", "--library", str(lib), "--out", str(out),
        "--updates", "3", "--episodes-per-update", "2", "--horizon", "100",
        "--seed", "1", *extra,
    )


@pytest.mark.parametrize(
    "flag", [("--lr", "nan"), ("--epochs", "-1"), ("--seed", "-1"), ("--lr", "0")]
)
def test_train_encoder_rejects_bad_config(workdir, capsys, flag):
    problem = {
        ("--lr", "nan"): "--lr must be positive and finite, got nan",
        ("--epochs", "-1"): "--epochs must be >= 0, got -1",
        ("--seed", "-1"): "--seed must be >= 0, got -1",
        ("--lr", "0"): "--lr must be positive and finite, got 0.0",
    }[flag]
    lib = workdir / "library.json"
    assert run("gen-refs", "--modeset", "pi2", "--out", str(lib)) == 0
    capsys.readouterr()
    before = lib.read_bytes()
    enc = workdir / "encoder.json"
    assert run(
        "train-encoder", "--library", str(lib), "--out", str(enc), *flag
    ) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "error:" in captured.err and problem in captured.err
    assert captured.out == ""
    assert not enc.exists()
    assert lib.read_bytes() == before


def test_train_policy_adaptive_and_uniform(workdir):
    lib, _ = _gen_and_encode(workdir)
    pol_a = workdir / "pol_a.json"
    assert _train_policy(workdir, lib, pol_a, "--sampler", "adaptive", "--gamma-i", "0.4") == 0
    pol_u = workdir / "pol_u.json"
    assert _train_policy(workdir, lib, pol_u, "--sampler", "uniform") == 0
    with open(str(pol_a) + ".train.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 6
    assert "mode_return_0" in rows[0] and "transition_return_1_1" in rows[0]


def test_train_policy_zero_updates_reports_no_episodes(workdir, capsys):
    lib, _ = _gen_and_encode(workdir)
    out = workdir / "pol0.json"
    assert run(
        "train-policy", "--library", str(lib), "--out", str(out), "--updates", "0",
    ) == 0
    stdout = capsys.readouterr().out
    assert "0 updates (0 episodes); no episodes were run" in stdout
    assert "nan" not in stdout
    assert out.exists()


def test_train_policy_requires_latents(workdir):
    lib = workdir / "raw.json"
    assert run("gen-refs", "--modeset", "pi2", "--out", str(lib)) == 0
    assert _train_policy(workdir, lib, workdir / "p.json") == cli.EXIT_VALIDATION


def _library_with_latents(workdir, latents, name="library.json"):
    """The two-mode library, with the given per-mode latents written into it."""
    spec_path = workdir / "tiny.modes.json"
    spec_path.write_text(json.dumps(TWO_MODE_SPEC))
    lib = workdir / name
    assert run("gen-refs", "--modeset", str(spec_path), "--out", str(lib)) == 0
    payload = read_artifact(lib, "library")
    for mode, z in zip(payload["modes"], latents):
        mode["latent"] = z
    write_artifact(lib, "library", payload)
    return lib


@pytest.mark.parametrize(
    "second, problem",
    [(None, "['walk_f'] have no latent"), ([0.1, 0.2, 0.3], "equal length"),
     ([0.1, float("nan"), 0.3, 0.4], "latents must be finite")],
)
def test_eval_rejects_bad_library_latents(workdir, capsys, second, problem):
    good = _library_with_latents(workdir, [[0.1, 0.2, 0.3, 0.4]] * 2, "good.json")
    pol = workdir / "policy.json"
    assert run("train-policy", "--library", str(good), "--out", str(pol), "--updates", "0") == 0
    lib = _library_with_latents(workdir, [[0.1, 0.2, 0.3, 0.4], second])
    assert run("eval", "--library", str(lib), "--policy", str(pol)) == cli.EXIT_VALIDATION
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "plan", "train-policy"])
def test_policy_must_fit_the_library_latents(workdir, capsys, command):
    small = _library_with_latents(workdir, [[0.1, 0.2, 0.3]] * 2, "small.json")
    pol = workdir / "small_policy.json"
    assert run("train-policy", "--library", str(small), "--out", str(pol), "--updates", "0") == 0
    lib = _library_with_latents(workdir, [[0.1, 0.2, 0.3, 0.4]] * 2)
    if command == "train-policy":
        argv = ["--resume", str(pol) + ".checkpoint.json", "--out", str(workdir / "p.json")]
    else:
        argv = ["--policy", str(pol), "--out", str(workdir / "out.json")]
    capsys.readouterr()
    assert run(command, "--library", str(lib), *argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "takes 18 observation inputs" in err and "give 19" in err
    assert not (workdir / "p.json").exists() and not (workdir / "out.json").exists()


@pytest.mark.parametrize("command", ["eval", "plan", "train-policy"])
def test_policy_must_give_one_action_per_joint(workdir, capsys, command):
    lib = _library_with_latents(workdir, [[0.1, 0.2, 0.3, 0.4]] * 2)
    good = workdir / "policy.json"
    assert run("train-policy", "--library", str(lib), "--out", str(good), "--updates", "0") == 0
    checkpoint = train_mod.load_checkpoint(str(good) + ".checkpoint.json")
    three = pol_mod.init_policy(np.random.default_rng(0), checkpoint.policy.dims[0], act_dim=3)
    if command == "train-policy":
        bad = workdir / "three.checkpoint.json"
        zeros = np.zeros_like(three.flat)
        train_mod.save_checkpoint(str(bad), dataclasses.replace(
            checkpoint, policy=three, opt=AdamState(zeros, zeros.copy(), 0)))
        argv = ["--resume", str(bad), "--out", str(workdir / "p.json")]
    else:
        bad = workdir / "three.json"
        write_artifact(bad, "policy", pol_mod.policy_to_payload(three))
        argv = ["--policy", str(bad), "--out", str(workdir / "out.json")]
    capsys.readouterr()
    assert run(command, "--library", str(lib), *argv) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""  # no banner
    assert f"policy {bad} gives 3 actions" in err and "has 4 joints" in err
    assert not (workdir / "p.json").exists() and not (workdir / "out.json").exists()


@pytest.mark.parametrize(
    "key, value, problem",
    [
        ("modes", None, "library: the library has no 'modes' entry"),
        ("modes", {}, "library: 'modes' of the library must be a list"),
        ("name", None, "library: mode 1 has no 'name' entry"),
        ("name", ["walk_f"], "a mode name must be a string, got ['walk_f']"),
        ("samples", None, "library: mode 1 has no 'samples' entry"),
        ("dt", None, "library: mode 1 has no 'dt' entry"),
        ("dt", "0.02", "library: 'dt' of mode 1 must be a finite number, got '0.02'"),
        ("kind", None, "library: mode 1 has no 'kind' entry"),
    ],
)
def test_library_schema_is_checked(workdir, capsys, key, value, problem):
    lib = _library_with_latents(workdir, [[0.1, 0.2, 0.3, 0.4]] * 2)
    payload = read_artifact(lib, "library")
    entry = payload if key == "modes" else payload["modes"][1]
    if value is None:
        del entry[key]
    else:
        entry[key] = value
    write_artifact(lib, "library", payload)
    capsys.readouterr()
    out = workdir / "p.json"
    argv = ["--library", str(lib), "--updates", "0", "--out", str(out)]
    assert run("train-policy", *argv) == cli.EXIT_VALIDATION
    assert problem in capsys.readouterr().err
    assert not out.exists()


def test_resume_rejects_a_checkpoint_for_another_mode_count(workdir, capsys):
    two = _library_with_latents(workdir, [[0.1, 0.2, 0.3, 0.4]] * 2, "two.json")
    pol = workdir / "two_policy.json"
    assert run("train-policy", "--library", str(two), "--out", str(pol), "--updates", "0") == 0
    four = workdir / "four.json"
    assert run("gen-refs", "--modeset", "pi2", "--out", str(four)) == 0
    payload = read_artifact(four, "library")
    for i, mode in enumerate(payload["modes"]):
        mode["latent"] = [0.1 * i, 0.2, 0.3, 0.4]
    write_artifact(four, "library", payload)
    out = workdir / "p.json"
    capsys.readouterr()
    assert run(
        "train-policy", "--library", str(four), "--resume", str(pol) + ".checkpoint.json",
        "--updates", "1", "--out", str(out),
    ) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "sampler records for 2 modes" in err and f"library {four} has 4" in err
    assert not out.exists() and not Path(str(out) + ".train.csv").exists()


def test_train_policy_checkpoint_resume_identical(workdir):
    lib, _ = _gen_and_encode(workdir)
    full = workdir / "full.json"
    assert run(
        "train-policy", "--library", str(lib), "--out", str(full),
        "--updates", "4", "--episodes-per-update", "2", "--horizon", "100",
        "--seed", "2", "--checkpoint-every", "2",
        "--checkpoint", str(workdir / "full.ckpt.json"),
    ) == 0
    half_ckpt = workdir / "half.ckpt.json"
    assert run(
        "train-policy", "--library", str(lib), "--out", str(workdir / "half.json"),
        "--updates", "2", "--episodes-per-update", "2", "--horizon", "100",
        "--seed", "2", "--checkpoint", str(half_ckpt),
    ) == 0
    resumed = workdir / "resumed.json"
    assert run(
        "train-policy", "--library", str(lib), "--out", str(resumed),
        "--updates", "2", "--episodes-per-update", "2", "--horizon", "100",
        "--seed", "2", "--resume", str(half_ckpt),
    ) == 0
    a = read_artifact(full, "policy")
    b = read_artifact(resumed, "policy")
    assert a == b


def test_eval_report_shape(workdir):
    lib, _ = _gen_and_encode(workdir)
    pol = workdir / "policy.json"
    assert _train_policy(workdir, lib, pol) == 0
    out = workdir / "eval.json"
    assert run(
        "eval", "--library", str(lib), "--policy", str(pol),
        "--horizon", "100", "--out", str(out),
    ) == 0
    report = read_artifact(out, "eval")
    n = 2
    assert len(report["mode_mra"]) == n
    assert len(report["transition_mra"]) == n
    assert all(len(row) == n for row in report["transition_mra"])
    flat = report["mode_mra"] + [v for row in report["transition_mra"] for v in row]
    assert all(0.0 <= v <= 1.0 for v in flat)
    assert set(report["traces"]) == {"idle", "walk_f"}
    for name in report["traces"]:
        assert (out.parent / report["traces"][name]["file"]).exists()


def test_eval_report_bytes_do_not_depend_on_the_output_path(workdir, monkeypatch):
    lib = _library_with_latents(workdir, [[0.1, -0.2, 0.3, 0.4], [0.5, 0.2, -0.1, 0.0]])
    pol = workdir / "policy.json"
    assert run("train-policy", "--library", str(lib), "--out", str(pol), "--updates", "0") == 0
    monkeypatch.chdir(workdir)
    outs = [workdir / "a" / "eval.json", workdir / "b" / "eval.json", Path("c") / "eval.json"]
    for out in outs:
        out.parent.mkdir()
        assert run(
            "eval", "--library", str(lib), "--policy", str(pol), "--horizon", "100",
            "--rollouts", "1", "--out", str(out),
        ) == 0
    first = outs[0].read_bytes()
    assert all(out.read_bytes() == first for out in outs[1:])
    for name, trace in read_artifact(outs[2], "eval")["traces"].items():
        assert trace["file"] == f"eval.json.{name}.csv"


def test_eval_short_horizon_needs_only_the_grid_inside_the_episode(workdir, capsys):
    lib = _library_with_latents(workdir, [[0.1, -0.2, 0.3, 0.4], [0.5, 0.2, -0.1, 0.0]])
    pol = workdir / "policy.json"
    assert run("train-policy", "--library", str(lib), "--out", str(pol), "--updates", "0") == 0
    out = workdir / "eval60.json"
    # The trace case switches at step 75; a 60-step episode traces its trunk.
    assert run(
        "eval", "--library", str(lib), "--policy", str(pol), "--horizon", "60",
        "--rollouts", "1", "--out", str(out),
    ) == 0
    report = read_artifact(out, "eval")
    for name in ("idle", "walk_f"):
        with open(out.parent / report["traces"][name]["file"]) as f:
            assert 0 < len(list(csv.DictReader(f))) <= 60
    # The first grid switch, step 12, lies outside a 10-step episode.
    capsys.readouterr()
    assert run(
        "eval", "--library", str(lib), "--policy", str(pol), "--horizon", "10",
        "--rollouts", "1", "--out", str(workdir / "eval10.json"),
    ) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: --horizon 10 ends before step 12, where rollout 1 of --rollouts 1 switches "
        "modes; it must switch inside the episode\n")


def test_every_artifact_is_the_indented_json_text(workdir):
    """Each artifact the CLI writes is json.dumps(doc, sort_keys=True, indent=1)."""
    lib, enc = _gen_and_encode(workdir, epochs="5")
    pol = workdir / "policy.json"
    ckpt = workdir / "policy.ckpt.json"
    assert _train_policy(workdir, lib, pol, "--checkpoint", str(ckpt)) == 0
    assert run(
        "eval", "--library", str(lib), "--policy", str(pol), "--horizon", "100",
        "--rollouts", "1", "--out", str(workdir / "eval.json"),
    ) == 0
    assert run(
        "plan", "--library", str(lib), "--policy", str(pol), "--knots", "3",
        "--episodes", "2", "--trials", "1", "--out", str(workdir / "plan.json"),
    ) == 0
    kinds = set()
    for path in (lib, enc, pol, ckpt, workdir / "eval.json", workdir / "plan.json"):
        text = path.read_text()
        doc = json.loads(text)
        kinds.add(doc["format"])
        assert text == json.dumps(doc, sort_keys=True, indent=1) + "\n", path.name
    assert len(kinds) == 6


def test_plan_writes_k_knots_and_echoes_config(workdir, capsys):
    lib, _ = _gen_and_encode(workdir)
    pol = workdir / "policy.json"
    assert _train_policy(workdir, lib, pol) == 0
    out = workdir / "plan.json"
    assert run(
        "plan", "--library", str(lib), "--policy", str(pol),
        "--terrain", "gap", "--knots", "11", "--dt", "0.3", "--goal-x", "2.0",
        "--episodes", "2", "--trials", "1", "--out", str(out),
    ) == 0
    stdout = capsys.readouterr().out
    assert "11 knots x 0.3s" in stdout and "(2.0, 0.5)" in stdout
    payload = read_artifact(out, "plan")
    assert payload["k"] == 11
    assert len(payload["mode_names"]) == 11
    assert all(name in ("idle", "walk_f") for name in payload["mode_names"])
    assert np.array(payload["q_table"]).shape == (11, 2)
    assert Path(str(out) + ".trace.csv").exists()


@pytest.mark.parametrize(
    "payload, problem",
    [
        ({"breakpoints": [[0.8]]}, "breakpoint 0 must be an [x, height] pair, got [0.8]"),
        ({"breakpoints": [[0.8, float("nan")]]},
         "the height of breakpoint 0 must be a finite number, got nan"),
        ({"breakpoints": [[0.0, 0.0], [float("nan"), -1.0]]},
         "the x of breakpoint 1 must be a finite number, got nan"),
        ({"breakpoints": [], "base_height": float("inf")},
         "'base_height' must be a finite number, got inf"),
        ([[0.8, -1.0]], "the payload must be an object, got [[0.8, -1.0]]"),
    ],
    ids=["one-element-breakpoint", "nan-height", "nan-x", "infinite-base-height",
         "payload-not-an-object"],
)
def test_plan_rejects_a_bad_terrain_file(workdir, capsys, payload, problem):
    lib = _library_with_latents(workdir, [[0.1, -0.2, 0.3, 0.4], [0.5, 0.2, -0.1, 0.0]])
    pol = workdir / "policy.json"
    assert run("train-policy", "--library", str(lib), "--out", str(pol), "--updates", "0") == 0
    capsys.readouterr()
    terrain = workdir / "terrain.json"
    write_artifact(terrain, "terrain", payload)
    assert run(
        "plan", "--library", str(lib), "--policy", str(pol), "--terrain", str(terrain),
        "--episodes", "1", "--trials", "1",
    ) == cli.EXIT_VALIDATION
    assert f"terrain file: {problem}" in capsys.readouterr().err
    assert not (workdir / "plan.json").exists()


@pytest.mark.parametrize("flag", ["false", 0, None])
def test_gen_refs_contact_flags_must_be_booleans(workdir, capsys, flag):
    spec = copy.deepcopy(TWO_MODE_SPEC)
    spec["modes"][1]["contact_phases"] = [
        {"start": 0.0, "end": 0.5, "left": True, "right": flag},
        {"start": 0.5, "end": 1.0, "left": False, "right": True},
    ]
    spec_path = workdir / "flags.json"
    spec_path.write_text(json.dumps(spec))
    assert run("gen-refs", "--modeset", str(spec_path)) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"'right' of a contact phase of mode 1 must be true or false, got {flag!r}" in err
    assert not (workdir / "library.json").exists()


def test_plan_solve_seconds_time_every_trial(workdir, monkeypatch):
    lib = _library_with_latents(workdir, [[0.1, -0.2, 0.3, 0.4], [0.5, 0.2, -0.1, 0.0]])
    pol = workdir / "policy.json"
    assert run("train-policy", "--library", str(lib), "--out", str(pol), "--updates", "0") == 0
    clock = [0.0]
    real_q_learning = plan_mod._q_learning

    def q_learning(n_modes, cfg, rngs, rollout_fn):
        results = real_q_learning(n_modes, cfg, rngs, rollout_fn)
        clock[0] += len(rngs)  # one second per trial, counted when the trials end
        return results

    monkeypatch.setattr(plan_mod, "_q_learning", q_learning)
    monkeypatch.setattr(cli.time, "monotonic", lambda: clock[0])
    out = workdir / "plan.json"
    assert run(
        "plan", "--library", str(lib), "--policy", str(pol), "--knots", "3",
        "--episodes", "2", "--trials", "3", "--out", str(out),
    ) == 0
    assert read_artifact(out, "plan")["solve_seconds"] == 3.0


def test_block_task_shape(workdir):
    lib, _ = _gen_and_encode(workdir)
    pol = workdir / "policy.json"
    assert _train_policy(workdir, lib, pol) == 0
    out = workdir / "block_plan.json"
    assert run(
        "plan", "--library", str(lib), "--policy", str(pol),
        "--terrain", "gap_block", "--knots", "30", "--dt", "0.15",
        "--goal-x", "2.0", "--goal-z", "0.9",
        "--episodes", "1", "--trials", "1", "--out", str(out),
    ) == 0
    payload = read_artifact(out, "plan")
    assert payload["k"] == 30 and payload["goal"] == [2.0, 0.9]


def test_artifact_headers_carry_hash_and_version(workdir):
    lib, enc = _gen_and_encode(workdir)
    for path in (lib, enc):
        doc = json.loads(Path(path).read_text())
        assert doc["version"] == "0.1.0"
        assert len(doc["config_hash"]) == 12


def _two_mode_policy(workdir):
    lib = _library_with_latents(workdir, [[0.1, -0.2, 0.3, 0.4], [0.5, 0.2, -0.1, 0.0]])
    pol = workdir / "policy.json"
    assert run("train-policy", "--library", str(lib), "--out", str(pol), "--updates", "0") == 0
    return lib, pol


def test_missing_file_is_validation_error(workdir, capsys):
    """An input path that names no file, or names a directory, exits 1 with an
    error that names it, for each flag that reads an input file."""
    lib, pol = (str(path) for path in _two_mode_policy(workdir))
    a_dir = workdir / "a_dir"
    a_dir.mkdir()
    out = workdir / "out.json"
    eval_inputs = ["eval", "--library", lib, "--policy", pol, "--rollouts", "1"]
    train_inputs = ["train-policy", "--library", lib, "--updates", "1"]
    # A repeated flag takes its last value.
    for argv, path in [
        (["train-encoder", "--library"], workdir / "nope.json"),
        (["train-encoder", "--library"], a_dir),
        ([*eval_inputs, "--library"], a_dir),
        ([*eval_inputs, "--policy"], a_dir),
        ([*train_inputs, "--terrain"], a_dir),
        ([*train_inputs, "--resume"], a_dir),
        (["gen-refs", "--modeset"], a_dir),
    ]:
        capsys.readouterr()
        assert run(*argv, str(path), "--out", str(out)) == cli.EXIT_VALIDATION, argv
        assert str(path) in capsys.readouterr().err, argv
        assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, problem",
    [
        ("eval", ["--reward-weights", "nan,0.5,0.5"], "weights must be finite"),
        ("train-policy", ["--reward-weights", "inf,0,0"], "weights must be finite"),
        ("eval", ["--reward-weights", "1,1,x"],
         "--reward-weights takes three comma-separated weights, got '1,1,x'"),
        ("plan", ["--goal-x", "nan"], "--goal-x must be finite, got nan"),
        ("plan", ["--dt", "nan"], "--dt must be positive and finite, got nan"),
        ("train-policy", ["--epsilon", "nan"],
         "--epsilon must be finite and non-negative, got nan"),
        ("train-policy", ["--epsilon", "inf"],
         "--epsilon must be finite and non-negative, got inf"),
        ("train-policy", ["--gamma-f", "nan"], "--gamma-f must lie in [0, 1], got nan"),
        ("eval", ["--clock-rate", "nan"], "clock rate must be positive and finite, got nan"),
        ("eval", ["--clock-rate", "inf"], "clock rate must be positive and finite, got inf"),
        ("eval", ["--clock-rate", "0"], "clock rate must be positive and finite, got 0.0"),
        ("eval", ["--clock-rate", "-1"], "clock rate must be positive and finite, got -1.0"),
        ("train-policy", ["--checkpoint-every", "-1"], "--checkpoint-every must be >= 0, got -1"),
        ("plan", ["--episodes", "-1"], "--episodes must be >= 0, got -1"),
        ("plan", ["--trials", "0"], "--trials must be at least 1, got 0"),
        ("plan", ["--knots", "0"], "--knots must be at least 1, got 0"),
        ("eval", ["--rollouts", "0"], "--rollouts must be at least 1, got 0"),
        ("train-policy", ["--seed", "-1"], "--seed must be >= 0, got -1"),
        ("plan", ["--seed", "-1"], "--seed must be >= 0, got -1"),
        ("plan", ["--dt", "1e308"], "knot duration 1e+308 s gives too many control steps"),
        ("train-policy", ["--gamma-i", "2"], "--gamma-i must lie in [0, 1], got 2.0"),
        ("train-policy", ["--episodes-per-update", "0"],
         "--episodes-per-update must be at least 1, got 0"),
        ("train-policy", ["--updates", "-1"], "--updates must be >= 0, got -1"),
        ("plan", ["--alpha", "2"], "--alpha must lie in [0, 1], got 2.0"),
        ("plan", ["--explore", "2"], "--explore must lie in [0, 1], got 2.0"),
        ("plan", ["--goal-z", "inf"], "--goal-z must be finite, got inf"),
    ],
    ids=["eval-nan-weight", "train-inf-weight", "eval-malformed-weight", "plan-nan-goal",
         "plan-nan-dt", "train-nan-epsilon", "train-inf-epsilon", "train-nan-gamma-f",
         "eval-nan-clock",
         "eval-inf-clock", "eval-zero-clock", "eval-negative-clock",
         "train-negative-checkpoint-every", "plan-negative-episodes", "plan-zero-trials",
         "plan-zero-knots", "eval-zero-rollouts",
         "train-negative-seed", "plan-negative-seed", "plan-overflowing-dt",
         "train-gamma-i-above-one", "train-zero-episodes-per-update", "train-negative-updates",
         "plan-alpha-above-one", "plan-explore-above-one", "plan-inf-goal-z"],
)
def test_non_finite_settings_are_validation_errors(workdir, capsys, command, flags, problem):
    lib, pol = _two_mode_policy(workdir)
    capsys.readouterr()
    out = workdir / "out.json"
    inputs = ["--library", str(lib), "--out", str(out)]
    inputs += ["--updates", "1"] if command == "train-policy" else ["--policy", str(pol)]
    assert run(command, *inputs, *flags) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert problem in captured.err
    assert captured.out == ""  # no banner before the error
    assert not out.exists()


def _resume(workdir, lib, ckpt, out, *flags):
    return run(
        "train-policy", "--library", str(lib), "--resume", str(ckpt), "--out", str(out),
        "--updates", "2", "--episodes-per-update", "2", "--seed", "4", *flags,
    )


def test_resumed_run_samples_with_its_own_settings(workdir, monkeypatch):
    lib, pol = _two_mode_policy(workdir)
    half = workdir / "half.json"
    assert run(
        "train-policy", "--library", str(lib), "--out", str(half), "--updates", "2",
        "--episodes-per-update", "2", "--seed", "4", "--gamma-i", "0.4",
    ) == 0
    ckpt = Path(str(half) + ".checkpoint.json")
    records = read_artifact(ckpt, "checkpoint")["sampler"]
    floors = []
    probs = sampler.returns_to_probs
    monkeypatch.setattr(
        sampler, "returns_to_probs", lambda r, floor: floors.append(floor) or probs(r, floor)
    )
    out = workdir / "resumed.json"
    flags = ("--gamma-i", "0.9", "--gamma-f", "0.6", "--epsilon", "0.7")
    assert _resume(workdir, lib, ckpt, out, *flags) == 0
    assert len(floors) == 8 and set(floors) == {0.7}  # two draws per episode
    # The records fold each resumed episode with the resumed run's decays.
    modes = np.array(records["mode_returns"])
    trans = np.array(records["transition_returns"])
    with open(str(out) + ".train.csv") as f:
        for row in csv.DictReader(f):
            i, j, ret = int(row["mode_from"]), int(row["mode_to"]), float(row["episode_return"])
            modes[i] = 0.9 * modes[i] + ret
            trans[i, j] = 0.6 * trans[i, j] + ret
    after = read_artifact(str(out) + ".checkpoint.json", "checkpoint")["sampler"]
    assert after == {"mode_returns": modes.tolist(), "transition_returns": trans.tolist()}


def test_resume_rejects_an_out_of_range_decay(workdir, capsys):
    lib, pol = _two_mode_policy(workdir)
    capsys.readouterr()
    out = workdir / "resumed.json"
    ckpt = str(pol) + ".checkpoint.json"
    assert _resume(workdir, lib, ckpt, out, "--gamma-i", "1.5") == cli.EXIT_VALIDATION
    assert "--gamma-i must lie in [0, 1], got 1.5" in capsys.readouterr().err
    assert not out.exists()


def test_resume_reads_a_checkpoint_that_holds_sampler_settings(workdir):
    """Checkpoints once saved the decays and floor beside the records; those
    keys are ignored, and such a checkpoint resumes as a records-only one."""
    lib, pol = _two_mode_policy(workdir)
    half = workdir / "half.json"
    assert run(
        "train-policy", "--library", str(lib), "--out", str(half), "--updates", "1",
        "--episodes-per-update", "2", "--seed", "4",
    ) == 0
    ckpt = Path(str(half) + ".checkpoint.json")
    doc = json.loads(ckpt.read_text())
    doc["payload"]["sampler"].update(mode_decay=0.9, transition_decay=0.9, floor=5.0)
    old = workdir / "old.checkpoint.json"
    old.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    assert _resume(workdir, lib, ckpt, workdir / "new.json") == 0
    assert _resume(workdir, lib, old, workdir / "old.json") == 0
    for suffix in ("", ".checkpoint.json", ".train.csv"):
        new_bytes = Path(str(workdir / "new.json") + suffix).read_bytes()
        assert Path(str(workdir / "old.json") + suffix).read_bytes() == new_bytes


def _edited(doc, keys, value):
    """doc with the entry at the key path set to value, or deleted when value
    is None; an empty path replaces the whole document."""
    if not keys:
        return value
    entry = doc
    for key in keys[:-1]:
        entry = entry[key]
    if value is None:
        del entry[keys[-1]]
    else:
        entry[keys[-1]] = value
    return doc


# The two-mode policy's network: 19 inputs, two 64-wide layers, 4 outputs.
POLICY_SIZE = 20 * 64 + 65 * 64 + 65 * 4 + 4


@pytest.mark.parametrize(
    "target, keys, value, problem",
    [
        ("policy", ("payload", "value"), None, "policy: the policy has no 'value' entry"),
        ("policy", ("payload",), None, "the document has no 'payload' entry"),
        ("policy", (), [1, 2], "expected format modeloco/policy, got 'list'"),
        ("policy", ("payload", "policy", "log_std"), {"shape": [3], "data": [-0.7] * 3},
         "needs a log_std of shape (4,)"),
        ("policy", ("payload", "policy", "weights", 1),
         {"shape": [64, 63], "data": [0.0] * (64 * 63)},
         "the layers of 'policy' do not chain: layer 1 has a (64, 63) weight"),
        ("checkpoint", ("payload", "opt_policy"), None,
         "checkpoint: the checkpoint has no 'opt_policy' entry"),
        ("checkpoint", ("payload", "opt_policy", "m"),
         {"shape": [POLICY_SIZE - 1], "data": [0.0] * (POLICY_SIZE - 1)},
         f"'opt_policy' needs {POLICY_SIZE} moments, has {POLICY_SIZE - 1}/{POLICY_SIZE}"),
        ("policy", ("payload", "obs_dim"), 7,
         "policy: 'obs_dim' is 7, but the network's width there is 19"),
        ("policy", ("payload", "act_dim"), True,
         "policy: 'act_dim' is True, but the network's width there is 4"),
        ("policy", ("payload", "obs_dim"), None, "policy: the policy has no 'obs_dim' entry"),
        ("checkpoint", ("payload", "sampler"), {},
         "checkpoint: 'sampler' of the checkpoint has no 'mode_returns' entry"),
        ("checkpoint", ("payload", "sampler", "transition_returns"), [[0.0, "x"], [0.0, 0.0]],
         "checkpoint: 'transition_returns' of 'sampler' is not an array"),
        ("checkpoint", ("payload", "sampler", "mode_returns"), [float("nan"), 0.0],
         "checkpoint: 'mode_returns' of 'sampler' must be finite"),
        ("checkpoint", ("payload", "update_count"), "three",
         "'update_count' of the checkpoint must be a non-negative integer, got 'three'"),
        ("checkpoint", ("payload", "update_count"), True,
         "checkpoint: 'update_count' of the checkpoint must be a non-negative integer, got True"),
        ("checkpoint", ("payload", "episode_count"), -2,
         "checkpoint: 'episode_count' of the checkpoint must be a non-negative integer, got -2"),
        ("checkpoint", ("payload", "opt_value", "t"), "six",
         "checkpoint: 't' of 'opt_value' must be a non-negative integer, got 'six'"),
        ("checkpoint", ("payload", "episode_count"), 4.0,
         "checkpoint: 'episode_count' of the checkpoint must be a non-negative integer, got 4.0"),
        ("policy", ("version",), "0.0.9",
         "written by version '0.0.9', this tool reads '0.1.0'"),
        ("checkpoint", ("version",), None,
         "written by version None, this tool reads '0.1.0'"),
        ("checkpoint", ("payload", "opt_value", "t"), 3,
         "checkpoint: 'opt_policy' has taken 0 Adam steps and 'opt_value' 3"),
        ("policy", ("payload", "policy", "weights", 0, "data", 5), float("nan"),
         "policy: weight 0 of 'policy' must be finite"),
        ("checkpoint", ("payload", "policy", "value", "biases", 1, "data", 0), -float("inf"),
         "policy: bias 1 of 'value' must be finite"),
        ("checkpoint", ("payload", "opt_policy", "m", "data", 3), float("nan"),
         "checkpoint: 'm' of 'opt_policy' must be finite"),
        ("checkpoint", ("payload", "opt_value", "v", "data", 0), float("inf"),
         "checkpoint: 'v' of 'opt_value' must be finite"),
        ("policy", (), b"[" * 200_000, "policy.json nests its JSON too deeply to read"),
        ("checkpoint", (), b'{"format": "modeloco/checkpoint", "x": "\xff"}',
         "policy.json.checkpoint.json is not UTF-8 text"),
    ],
    ids=["policy-without-value", "document-without-payload", "document-is-a-list",
         "short-log-std", "unchained-layers", "checkpoint-without-adam-state",
         "short-adam-moment", "wrong-obs-dim", "bool-act-dim", "policy-without-obs-dim",
         "empty-sampler", "non-numeric-sampler-record", "nan-sampler-record",
         "string-update-count",
         "bool-update-count", "negative-episode-count", "string-adam-step",
         "float-episode-count", "other-version", "checkpoint-without-version",
         "unequal-adam-step-counts", "nan-policy-weight", "infinite-value-bias",
         "nan-adam-moment", "infinite-adam-moment",
         "deeply-nested-document", "non-utf8-document"],
)
def test_malformed_policy_and_checkpoint_are_validation_errors(
    workdir, capsys, target, keys, value, problem
):
    lib, pol = _two_mode_policy(workdir)
    path = pol if target == "policy" else Path(str(pol) + ".checkpoint.json")
    if isinstance(value, bytes):
        path.write_bytes(value)
    else:
        path.write_text(json.dumps(_edited(json.loads(path.read_text()), keys, value)))
    out = workdir / "out.json"
    if target == "policy":
        argv = ["eval", "--policy", str(pol), "--rollouts", "1"]
    else:
        argv = ["train-policy", "--resume", str(path), "--updates", "1"]
    capsys.readouterr()
    assert run(*argv, "--library", str(lib), "--out", str(out)) == cli.EXIT_VALIDATION
    assert problem in capsys.readouterr().err
    assert not out.exists()


def _run_pipeline(out: Path) -> None:
    out.mkdir()
    lib, pol = str(out / "library.json"), str(out / "policy.json")
    assert run("gen-refs", "--modeset", "pi3", "--out", lib) == 0
    assert run("train-encoder", "--library", lib, "--out", str(out / "encoder.json"),
               "--epochs", "5") == 0
    assert run("train-policy", "--library", lib, "--out", pol, "--updates", "2",
               "--episodes-per-update", "2", "--horizon", "100", "--checkpoint-every", "1") == 0
    assert run("eval", "--library", lib, "--policy", pol, "--horizon", "100",
               "--rollouts", "1", "--out", str(out / "eval.json")) == 0
    assert run("plan", "--library", lib, "--policy", pol, "--knots", "3", "--episodes", "2",
               "--trials", "2", "--out", str(out / "plan.json")) == 0


def test_pipeline_rerun_writes_the_same_bytes(tmp_path):
    """Every file of two runs of the five stages matches byte for byte, apart
    from the plan's wall time."""
    first, second = tmp_path / "first", tmp_path / "second"
    _run_pipeline(first)
    _run_pipeline(second)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert len(names) == 13  # 6 artifacts, the checkpoint included, and 7 tables

    def content(path: Path) -> bytes:
        lines = path.read_bytes().splitlines(keepends=True)
        return b"".join(line for line in lines if b'"solve_seconds":' not in line)

    for name in names:
        assert content(first / name) == content(second / name), name
    assert content(first / "plan.json") != (first / "plan.json").read_bytes()


def test_every_table_cell_is_a_plain_number(tmp_path):
    """Each CSV the five stages write holds, below its header, cells that
    parse as an int or a float: no numpy scalar repr such as `np.float64(0.5)`."""
    _run_pipeline(tmp_path / "out")
    tables = sorted((tmp_path / "out").glob("*.csv"))
    assert len(tables) == 7
    for path in tables:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert rows, path.name
        for row in rows:
            for cell in row:
                assert "np." not in cell and "(" not in cell, (path.name, cell)
                try:
                    int(cell)
                except ValueError:
                    float(cell)


@pytest.mark.parametrize(
    "command, flags, taken",
    [
        ("gen-refs", ["--modeset", "pi2", "--out", "{missing}/library.json"], None),
        ("train-encoder", ["--library", "{library}", "--out", "{missing}/encoder.json"], None),
        ("train-policy", ["--library", "{library}", "--out", "{missing}/policy.json"], None),
        ("train-policy", ["--library", "{library}", "--log", "{missing}/train.csv"], None),
        ("train-policy", ["--library", "{library}", "--checkpoint", "{missing}/ck.json"], None),
        ("eval", ["--library", "{library}", "--policy", "{policy}",
                  "--out", "{missing}/eval.json"], None),
        ("plan", ["--library", "{library}", "--policy", "{policy}",
                  "--out", "{missing}/plan.json"], None),
        ("plan", ["--library", "{library}", "--policy", "{policy}"], None),  # MODELOCO_OUT
        # An output path that is an existing directory, `taken`.
        ("gen-refs", ["--modeset", "pi2", "--out", "{taken}"], "out"),
        ("train-encoder", ["--library", "{library}", "--out", "{taken}"], "out"),
        ("train-encoder", ["--library", "{library}", "--out", "{workdir}/enc.json"],
         "enc.json.loss.csv"),
        ("train-policy", ["--library", "{library}", "--out", "{taken}"], "out"),
        ("train-policy", ["--library", "{library}", "--log", "{taken}"], "log"),
        ("train-policy", ["--library", "{library}", "--checkpoint", "{taken}"], "ck"),
        ("eval", ["--library", "{library}", "--policy", "{policy}", "--out", "{taken}"], "out"),
        ("eval", ["--library", "{library}", "--policy", "{policy}",
                  "--out", "{workdir}/ev.json"], "ev.json.walk_f.csv"),
        ("plan", ["--library", "{library}", "--policy", "{policy}", "--out", "{taken}"], "out"),
        ("plan", ["--library", "{library}", "--policy", "{policy}"], "plan.json.trace.csv"),
    ],
    ids=["gen-refs", "train-encoder", "train-policy-out", "train-policy-log",
         "train-policy-checkpoint", "eval", "plan-out", "plan-modeloco-out",
         "gen-refs-dir", "train-encoder-dir", "train-encoder-loss-log-dir",
         "train-policy-out-dir", "train-policy-log-dir", "train-policy-checkpoint-dir",
         "eval-dir", "eval-trace-dir", "plan-out-dir", "plan-modeloco-out-trace-dir"],
)
def test_a_missing_output_directory_stops_the_command_before_any_work(
    workdir, capsys, monkeypatch, command, flags, taken
):
    """So does an output path that is a directory."""
    library = _library_with_latents(workdir, [[0.1, -0.2, 0.3, 0.4], [0.5, 0.2, -0.1, 0.0]])
    policy = workdir / "policy.json"
    assert run("train-policy", "--library", str(library), "--out", str(policy),
               "--updates", "0") == 0
    missing = workdir / "no" / "such"
    if taken:
        (workdir / taken).mkdir()
    elif "--out" not in flags:
        monkeypatch.setenv("MODELOCO_OUT", str(missing))
    before = sorted(p.name for p in workdir.iterdir())
    capsys.readouterr()

    def refused(fn):
        @functools.wraps(fn)  # the parser reads the defaults of the signature
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before checking its output paths")

        return no_work

    for module, name in ((cli, "builtin_library"), (cli.enc_mod, "train_autoencoder"),
                         (cli.train_mod, "run_training"), (cli.pol_mod, "evaluate_modes"),
                         (cli.plan_mod, "parallel_trials")):
        monkeypatch.setattr(module, name, refused(getattr(module, name)))
    argv = [f.format(missing=missing, library=library, policy=policy, workdir=workdir,
                     taken=workdir / str(taken)) for f in flags]
    assert run(command, *argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    if taken:
        assert f"error: output path {workdir / taken} is a directory" in err
    else:
        assert f"output directory {missing} of " in err and "does not exist" in err
    assert sorted(p.name for p in workdir.iterdir()) == before
