import numpy as np
import pytest

from modeloco import encoder as enc
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
    assert np.array_equal(r1.state.policy.flat, r2.state.policy.flat)
    assert np.array_equal(r1.state.value.flat, r2.state.value.flat)
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
    assert np.array_equal(full.state.policy.flat, resumed.state.policy.flat)
    assert np.array_equal(full.state.value.flat, resumed.state.value.flat)
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


def _assert_views(flat, views, moments=()):
    """Each view shares flat's memory, together they are all of flat, and each
    Adam moment is flat's size."""
    assert all(np.shares_memory(v, flat) for v in views)
    assert sum(v.size for v in views) == flat.size
    assert all(m.shape == flat.shape for m in moments)


def _assert_ppo_views(policy, value, opt=None):
    _assert_views(
        policy.flat, policy.net.weights + policy.net.biases + [policy.log_std],
        (opt.policy.m, opt.policy.v) if opt else (),
    )
    _assert_views(
        value.flat, value.weights + value.biases, (opt.value.m, opt.value.v) if opt else ()
    )


def test_every_parameter_is_a_view_into_its_network_vector(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    policy = pol.init_policy(rng, 19)
    value = pol.init_value(rng, 19)
    _assert_ppo_views(policy, value, pol.PpoOptState.fresh(policy, value))
    _assert_ppo_views(*pol.policy_from_payload(pol.policy_to_payload(policy, value)))

    updates = []

    def recorded_update(*args):
        updates.append(ppo_update(*args))
        return updates[-1]

    ppo_update = pol.ppo_update
    monkeypatch.setattr(pol, "ppo_update", recorded_update)
    path = tmp_path / "ckpt.json"
    cfg = tm.TrainConfig(updates=2, episodes_per_update=2, horizon=100)
    result = tm.run_training(
        two_mode_library(), sim.Terrain.flat(), ROBOT, REWARD, pol.PpoConfig(), cfg,
        checkpoint_path=str(path),
    )
    assert len(updates) == 2
    for new_policy, new_value, opt, _ in updates:
        _assert_ppo_views(new_policy, new_value, opt)
    state = tm.load_checkpoint(str(path))
    _assert_ppo_views(state.policy, state.value, state.opt)
    assert np.array_equal(state.policy.flat, result.state.policy.flat)

    def assert_autoencoder_views(e, d, moments=()):
        assert d.flat is e.flat
        _assert_views(e.flat, [e.w_x, e.w_h, e.b, e.w_z, d.w_x, d.w_h, d.b, d.w_y], moments)

    assert_autoencoder_views(*enc.init_params(rng))
    steps = []

    def recorded_step(flat, grad, state, lr):
        steps.append((flat, state))
        return adam_step(flat, grad, state, lr)

    adam_step = enc.adam_step
    monkeypatch.setattr(enc, "adam_step", recorded_step)
    res = enc.train_autoencoder(rm.builtin_library("pi2"), enc.EncoderTrainConfig(epochs=3))
    assert len(steps) == 3
    assert all(flat.shape == s.m.shape == s.v.shape for flat, s in steps)
    assert_autoencoder_views(res.encoder, res.decoder, (steps[-1][1].m, steps[-1][1].v))
