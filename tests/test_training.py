import numpy as np
import pytest

from modeloco import policy as pol
from modeloco import refmotion as rm
from modeloco import sim
from modeloco import training as tm


def two_mode_library(seed=0):
    lib = rm.builtin_library("pi2")
    keep = [lib.index_of("idle"), lib.index_of("walk_f")]
    motions = [lib.motions[i] for i in keep]
    rng = np.random.default_rng(seed)
    return rm.ModeLibrary(tuple(motions), rng.normal(size=(len(motions), 4)))


ROBOT = sim.RobotConfig()
REWARD = sim.RewardConfig()


def small_run(sampler="adaptive", seed=3, updates=3, start=None, **kw):
    lib = two_mode_library()
    cfg = tm.TrainConfig(
        sampler=sampler,
        updates=updates,
        episodes_per_update=4,
        horizon=100,
        seed=seed,
        **kw,
    )
    return tm.run_training(
        lib, sim.Terrain.flat(), ROBOT, REWARD, pol.PpoConfig(), cfg, start=start
    )


def test_training_is_deterministic():
    r1 = small_run()
    r2 = small_run()
    assert np.array_equal(pol.pack_policy(r1.state.policy), pol.pack_policy(r2.state.policy))
    assert np.array_equal(pol.pack_value(r1.state.value), pol.pack_value(r2.state.value))
    assert [row.episode_return for row in r1.rows] == [row.episode_return for row in r2.rows]


def test_records_update_in_submission_order():
    out = small_run(updates=2)
    state = out.state.sampler_state
    assert state.mode_returns.shape == (2,)
    # every episode row carries the snapshot after its own record fold
    last = out.rows[-1]
    assert last.mode_returns is not None
    assert np.array_equal(last.mode_returns, state.mode_returns)


def test_uniform_sampler_runs_and_ignores_records():
    out = small_run(sampler="uniform", updates=2)
    assert out.state.update_count == 2
    assert len(out.rows) == 8


def test_checkpoint_resume_replays_identically(tmp_path):
    full = small_run(updates=4)
    half = small_run(updates=2)
    ckpt = tmp_path / "ckpt.json"
    tm.save_checkpoint(ckpt, half.state)
    restored = tm.load_checkpoint(ckpt)
    assert restored.update_count == 2
    resumed = small_run(updates=2, start=restored)
    assert np.array_equal(
        pol.pack_policy(full.state.policy), pol.pack_policy(resumed.state.policy)
    )
    assert np.array_equal(
        pol.pack_value(full.state.value), pol.pack_value(resumed.state.value)
    )
    np.testing.assert_array_equal(
        full.state.sampler_state.mode_returns,
        resumed.state.sampler_state.mode_returns,
    )
    assert full.state.episode_count == resumed.state.episode_count


@pytest.mark.parametrize(
    "updates, every, saves",
    [(5, 5, [5]), (7, 5, [5, 7]), (0, 5, [0]), (3, 0, [3]), (4, 2, [2, 4])],
)
def test_checkpoint_saved_once_per_save_point(monkeypatch, updates, every, saves):
    saved = []
    monkeypatch.setattr(tm, "save_checkpoint", lambda path, state: saved.append(
        (path, state.update_count)
    ))
    lib = two_mode_library()
    cfg = tm.TrainConfig(updates=updates, episodes_per_update=1, horizon=100, seed=3,
                         checkpoint_every=every)
    tm.run_training(
        lib, sim.Terrain.flat(), ROBOT, REWARD, pol.PpoConfig(), cfg,
        checkpoint_path="ckpt.json",
    )
    assert saved == [("ckpt.json", n) for n in saves]


def test_latents_required():
    lib = rm.builtin_library("pi2")  # no latents
    with pytest.raises(ValueError, match="latent"):
        tm.run_training(
            lib, sim.Terrain.flat(), ROBOT, REWARD, pol.PpoConfig(),
            tm.TrainConfig(updates=1, horizon=100),
        )


def test_short_horizon_rejected():
    lib = two_mode_library()
    with pytest.raises(ValueError, match="switch grid"):
        tm.run_training(
            lib, sim.Terrain.flat(), ROBOT, REWARD, pol.PpoConfig(),
            tm.TrainConfig(updates=1, horizon=60),
        )
