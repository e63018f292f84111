import csv
import json
from pathlib import Path

import numpy as np
import pytest

from modeloco import cli
from modeloco.encoder import EncoderTrainConfig
from modeloco.fileio import read_artifact
from modeloco.planner import PlannerConfig
from modeloco.policy import PpoConfig
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


def test_parser_defaults_are_the_config_defaults():
    parser = cli.build_parser()
    tp = parser.parse_args(["train-policy", "--library", "lib.json"])
    assert cli._train_configs(tp) == (PpoConfig(), TrainConfig())
    pl = parser.parse_args(["plan", "--library", "lib.json", "--policy", "pol.json"])
    assert cli._planner_config(pl) == PlannerConfig()
    te = parser.parse_args(["train-encoder", "--library", "lib.json"])
    enc = EncoderTrainConfig()
    assert (te.epochs, te.lr, te.seed) == (enc.epochs, enc.learning_rate, enc.seed)


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


@pytest.mark.parametrize("flag", [("--lr", "nan"), ("--epochs", "-1")])
def test_train_encoder_rejects_bad_config(workdir, capsys, flag):
    lib = workdir / "library.json"
    assert run("gen-refs", "--modeset", "pi2", "--out", str(lib)) == 0
    before = lib.read_bytes()
    enc = workdir / "encoder.json"
    assert run(
        "train-encoder", "--library", str(lib), "--out", str(enc), *flag
    ) == cli.EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err
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
        assert Path(report["traces"][name]["file"]).exists()


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


def test_missing_file_is_validation_error(workdir):
    assert run(
        "train-encoder", "--library", str(workdir / "nope.json")
    ) == cli.EXIT_VALIDATION
