import ctypes
import math

import numpy as np
import pytest

from modeloco import policy as pol
from modeloco import refmotion as rm
from modeloco import sim
from modeloco.optim import AdamState, adam_step
from modeloco.sampler import EpisodeScript
from test_sim import (
    _ModeTracker,
    _reference_observe,
    _reference_reward,
    drive,
    kernel_harness,
    observe,
    roots,
    step_row,
)


def library_with_latents(selector="pi2", seed=0):
    lib = rm.builtin_library(selector)
    rng = np.random.default_rng(seed)
    return lib.with_latents(rng.normal(size=(lib.n, 4)))


OBS_DIM = sim.observation_dim(4)


def _mean(params, obs):
    """The action mean of one observation, as a plain one-row product."""
    return pol.mlp_forward(params.net, obs[None, :])[0][0]


def _value(params, obs):
    """The value of one observation, as a plain one-row product."""
    return float(pol.mlp_forward(params.value, obs[None, :])[0][0, 0])


def _act(params, obs, stochastic, rng=None):
    """One step of the per-step sampling `rollout` did before it batched its passes:
    sample (or take the mean of) the action distribution at one observation."""
    mean = _mean(params, obs)
    if stochastic:
        if rng is None:
            raise ValueError("stochastic sampling needs an rng")
        action = mean + np.exp(params.log_std) * rng.standard_normal(params.action_dim)
    else:
        action = mean.copy()
    log_prob = float(pol.gaussian_log_prob(action, mean, params.log_std)[0])
    return action, log_prob


# --- acting -------------------------------------------------------------------


def test_zero_network_deterministic_action_is_zero():
    params = pol.init_policy(np.random.default_rng(0), OBS_DIM, hidden=(8,))
    params.flat[:] = 0.0
    a, _ = _act(params, np.ones(OBS_DIM), stochastic=False)
    np.testing.assert_array_equal(a, np.zeros(4))


def test_act_deterministic_given_seed():
    rng = np.random.default_rng(0)
    params = pol.init_policy(rng, OBS_DIM)
    obs = np.random.default_rng(1).normal(size=OBS_DIM)
    a1, lp1 = _act(params, obs, stochastic=True, rng=np.random.default_rng(7))
    a2, lp2 = _act(params, obs, stochastic=True, rng=np.random.default_rng(7))
    assert np.array_equal(a1, a2) and lp1 == lp2


def test_log_prob_matches_closed_form_density():
    rng = np.random.default_rng(2)
    params = pol.init_policy(rng, OBS_DIM)
    obs = rng.normal(size=OBS_DIM)
    a, lp = _act(params, obs, stochastic=True, rng=rng)
    mean = pol.policy_mean(params, obs[None])[0]
    std = np.exp(params.log_std)
    # independent evaluation of the diagonal Gaussian density
    dens = np.prod(
        np.exp(-0.5 * ((a - mean) / std) ** 2) / (std * np.sqrt(2 * np.pi))
    )
    assert lp == pytest.approx(math.log(dens), rel=1e-10)


def test_one_dimensional_density_integrates_to_one():
    log_std = np.array([-0.3])
    mean = np.array([[0.4]])
    xs = np.linspace(-6, 6, 4001)[:, None]
    lp = pol.gaussian_log_prob(xs, np.repeat(mean, xs.shape[0], axis=0), log_std)
    integral = np.trapezoid(np.exp(lp), xs[:, 0])
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_action_covariance_is_diagonal_positive():
    params = pol.init_policy(np.random.default_rng(3), OBS_DIM)
    assert np.all(np.exp(params.log_std) > 0.0)


# --- GAE ------------------------------------------------------------------------


def test_gae_lambda_one_equals_discounted_monte_carlo():
    rng = np.random.default_rng(4)
    for _ in range(20):
        T = int(rng.integers(2, 30))
        rewards = rng.normal(size=T)
        values = rng.normal(size=T + 1)
        gamma = float(rng.uniform(0.5, 1.0))
        adv = pol.compute_gae(rewards, values, gamma, 1.0)
        for t in range(T):
            mc = (
                sum(gamma ** (k - t) * rewards[k] for k in range(t, T))
                + gamma ** (T - t) * values[T]
                - values[t]
            )
            assert adv[t] == pytest.approx(mc, abs=1e-10)


# --- PPO losses -------------------------------------------------------------------


def test_clipped_surrogate_equals_unclipped_inside_trust_region():
    rng = np.random.default_rng(5)
    cfg = pol.PpoConfig(clip_ratio=0.2)
    policy = pol.init_policy(rng, 3, act_dim=2, hidden=(4,))
    obs = rng.normal(size=(6, 3))
    actions = rng.normal(size=(6, 2))
    mean, _ = pol.mlp_forward(policy.net, obs)
    lp = pol.gaussian_log_prob(actions, mean, policy.log_std)
    adv = rng.normal(size=6)
    # old log probs chosen so every ratio lies strictly inside [1-eps, 1+eps]
    ratios = rng.uniform(0.85, 1.15, size=6)
    old_lp = lp - np.log(ratios)
    clipped = np.clip(ratios, 0.8, 1.2)
    assert np.array_equal(clipped, ratios)
    surr_clipped = np.minimum(ratios * adv, clipped * adv)
    np.testing.assert_allclose(surr_clipped, ratios * adv, atol=1e-15)
    # and through the actual loss: equality with an unclipped config
    batch = {
        "obs": obs,
        "actions": actions,
        "old_log_probs": old_lp,
        "advantages": adv,
        "returns": rng.normal(size=6),
    }
    loose = pol.PpoConfig(clip_ratio=1e9)
    assert pol.ppo_loss_and_grad(policy, batch, cfg)[0] == pytest.approx(
        pol.ppo_loss_and_grad(policy, batch, loose)[0], abs=1e-12
    )


def test_surrogate_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        obs_dim = int(rng.integers(2, 5))
        act_dim = int(rng.integers(1, 4))
        cfg = pol.PpoConfig(clip_ratio=0.2, entropy_coef=0.01, value_coef=0.5)
        policy = pol.init_policy(rng, obs_dim, act_dim=act_dim, hidden=(3,))
        B = 8
        batch = {
            "obs": rng.normal(size=(B, obs_dim)),
            "actions": rng.normal(size=(B, act_dim)),
            "old_log_probs": rng.normal(scale=0.2, size=B) - 1.5,
            "advantages": rng.normal(size=B),
            "returns": rng.normal(size=B),
        }
        _, grad, _, _ = pol.ppo_loss_and_grad(policy, batch, cfg)
        h = 1e-6
        # The mean net, log-std and value net view flat, so moving an entry of
        # flat moves the parameter; the gradient covers all of flat.
        flat = policy.flat
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            base = flat[i]
            flat[i] = base + h
            lp_ = pol.ppo_loss_and_grad(policy, batch, cfg)[0]
            flat[i] = base - h
            lm_ = pol.ppo_loss_and_grad(policy, batch, cfg)[0]
            flat[i] = base
            fd[i] = (lp_ - lm_) / (2 * h)
        assert grad.shape == flat.shape
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, rel.max())
    assert worst < 1e-4


def test_a_gradient_buffer_is_overwritten_in_full():
    # A buffer of NaN, then one holding the previous minibatch's gradient:
    # an entry left unwritten would show in the bytes.
    rng = np.random.default_rng(24)
    policy = pol.init_policy(rng, OBS_DIM)
    cfg = pol.PpoConfig(entropy_coef=0.01)
    buffer = pol.PolicyParams(np.full_like(policy.flat, np.nan), policy.dims, policy.value_dims)
    for B in (16, 9):
        mean, _ = pol.mlp_forward(policy.net, obs := rng.normal(size=(B, OBS_DIM)))
        actions = mean + rng.normal(scale=0.5, size=mean.shape)
        lp = pol.gaussian_log_prob(actions, mean, policy.log_std)
        batch = {
            "obs": obs,
            "actions": actions,
            # Ratios inside and outside the clip range.
            "old_log_probs": lp - np.log(rng.uniform(0.5, 1.5, size=B)),
            "advantages": rng.normal(size=B),
            "returns": rng.normal(size=B),
        }
        fresh = pol.ppo_loss_and_grad(policy, batch, cfg)
        buffered = pol.ppo_loss_and_grad(policy, batch, cfg, buffer)
        assert buffered[1] is buffer.flat
        assert buffered[1].tobytes() == fresh[1].tobytes()
        assert [buffered[k] for k in (0, 2, 3)] == [fresh[k] for k in (0, 2, 3)]


def _single_step_traj(episodes):
    """A record of one-step episodes, each given as (obs, action, reward,
    log-prob, value): both its states are obs, and its bootstrap is 0."""
    obs, actions, rewards, log_probs, values = map(np.array, zip(*episodes))
    n = len(episodes)
    return pol.Rollout(
        scripts=[EpisodeScript(0, 0, 1, 2)] * n,  # ppo_update does not read the scripts
        lengths=np.ones(n, dtype=np.int64),
        obs=np.repeat(obs, 2, axis=0),
        values=np.column_stack([values, np.zeros(n)]).ravel(),
        actions=actions,
        log_probs=log_probs,
        rewards=rewards,
        fell=np.zeros(n, dtype=bool),
        blew_up=np.zeros(n, dtype=bool),
    )


def test_zero_advantages_leave_policy_mean_untouched():
    rng = np.random.default_rng(7)
    cfg = pol.PpoConfig(entropy_coef=0.0, epochs=2, minibatches=1, learning_rate=1e-2)
    policy = pol.init_policy(rng, 3, act_dim=2, hidden=(4,))
    opt = AdamState.zeros(policy.flat.size)
    # four episodes whose GAE advantages are exactly zero:
    # reward == value(s_t) - gamma*value(s_{t+1}) makes every delta vanish
    episodes = []
    for _ in range(4):
        obs = rng.normal(size=3)
        v = float(pol.value_of(policy, obs[None])[0])
        a = rng.normal(size=2)
        lp = float(pol.gaussian_log_prob(a, pol.policy_mean(policy, obs[None]), policy.log_std)[0])
        episodes.append((obs, a, v - cfg.discount * 0.0, lp, v))
    new_policy, _, _ = pol.ppo_update(policy, opt, _single_step_traj(episodes), cfg, rng)
    for w1, w2 in zip(policy.net.weights, new_policy.net.weights):
        np.testing.assert_allclose(w1, w2, atol=1e-12)
    np.testing.assert_allclose(policy.log_std, new_policy.log_std, atol=1e-12)


def test_bandit_policy_mean_converges():
    # one-step environment, reward -(a-1)^2: optimal deterministic action is 1
    rng = np.random.default_rng(8)
    cfg = pol.PpoConfig(
        epochs=4, minibatches=2, learning_rate=5e-3, entropy_coef=0.0
    )
    obs = np.zeros(1)
    policy = pol.init_policy(rng, 1, act_dim=1, hidden=(8,), log_std_init=-0.7)
    opt = AdamState.zeros(policy.flat.size)
    for update in range(200):
        episodes = []
        for _ in range(32):
            a, lp = _act(policy, obs, stochastic=True, rng=rng)
            r = -float((a[0] - 1.0) ** 2)
            v = float(pol.value_of(policy, obs[None])[0])
            episodes.append((obs, a, r, lp, v))
        policy, opt, _ = pol.ppo_update(policy, opt, _single_step_traj(episodes), cfg, rng)
    mean = float(pol.policy_mean(policy, obs[None])[0, 0])
    assert abs(mean - 1.0) < 0.05


def test_non_finite_update_rejected():
    rng = np.random.default_rng(9)
    cfg = pol.PpoConfig()
    policy = pol.init_policy(rng, 3, act_dim=2, hidden=(4,))
    opt = AdamState.zeros(policy.flat.size)
    tr = _single_step_traj([(np.zeros(3), np.zeros(2), float("nan"), 0.0, 0.0)])
    new_policy, _, stats = pol.ppo_update(policy, opt, tr, cfg, rng)
    assert stats.rejected
    assert np.array_equal(policy.flat, new_policy.flat)
    assert np.array_equal(policy.value.flat, new_policy.value.flat)


def test_one_adam_step_over_concatenated_parts_equals_one_step_per_part():
    # One Adam state steps the mean net, the log-std and the value net
    # together; every Adam operation is elementwise, so that is exact.
    rng = np.random.default_rng(20)
    for t in (0, 1, 2, 7, 100, 5000):
        parts = [
            (rng.normal(size=n), rng.normal(size=n),
             AdamState(rng.normal(size=n), rng.uniform(0.0, 2.0, size=n), t))
            for n in (57, 4, 41)
        ]
        joined = [np.concatenate(arrays) for arrays in zip(
            *[(flat, grad, state.m, state.v) for flat, grad, state in parts]
        )]
        flat, state = adam_step(joined[0], joined[1], AdamState(*joined[2:], t), 3e-4)
        steps = [adam_step(flat, grad, state, 3e-4) for flat, grad, state in parts]
        assert flat.tobytes() == np.concatenate([f for f, _ in steps]).tobytes(), t
        assert state.m.tobytes() == np.concatenate([s.m for _, s in steps]).tobytes(), t
        assert state.v.tobytes() == np.concatenate([s.v for _, s in steps]).tobytes(), t
        assert state.t == t + 1 and all(s.t == t + 1 for _, s in steps)


def test_ppo_update_never_writes_its_inputs(monkeypatch):
    rng = np.random.default_rng(10)
    cfg = pol.PpoConfig(epochs=2, minibatches=2, learning_rate=1e-2)
    policy = pol.init_policy(rng, 3, act_dim=2, hidden=(4,))
    batch = _single_step_traj([
        (rng.normal(size=3), rng.normal(size=2), float(rng.normal()), -1.0, 0.0)
        for _ in range(4)
    ])
    # Moments and a step count, as after an earlier update.
    _, opt, _ = pol.ppo_update(
        policy, AdamState.zeros(policy.flat.size), batch, cfg, np.random.default_rng(0)
    )
    inputs = (policy.flat, opt.m, opt.v)
    before = [a.tobytes() for a in inputs]

    new_policy, new_opt, stats = pol.ppo_update(policy, opt, batch, cfg, np.random.default_rng(1))
    assert not stats.rejected
    assert new_opt.t == opt.t + cfg.epochs * cfg.minibatches  # one step per minibatch
    assert new_policy.flat.tobytes() != before[0]
    assert [a.tobytes() for a in inputs] == before

    # Rejected at the second minibatch, after the first one has stepped.
    calls = []
    loss_and_grad = pol.ppo_loss_and_grad

    def nan_on_the_second_call(*args):
        calls.append(args)
        loss, *rest = loss_and_grad(*args)
        return (float("nan") if len(calls) == 2 else loss, *rest)

    monkeypatch.setattr(pol, "ppo_loss_and_grad", nan_on_the_second_call)
    new_policy, new_opt, stats = pol.ppo_update(policy, opt, batch, cfg, np.random.default_rng(1))
    assert stats.rejected and len(calls) == 2
    assert new_policy is policy and new_opt is opt
    assert [a.tobytes() for a in inputs] == before


# --- rollouts ------------------------------------------------------------------


ROBOT = sim.RobotConfig()
REWARD = sim.RewardConfig()


def _one_rollout(policy, library, script, terrain, robot_cfg, reward_cfg, rng):
    """`rollout` of a batch of one script."""
    return pol.rollout(policy, library, [script], terrain, robot_cfg, reward_cfg, [rng])


def _episodes(batch):
    """Each episode of a `Rollout` as its own slices of the record's arrays
    and its (fell, blew up, script) entries."""
    return [
        {"obs": batch.obs[states], "actions": batch.actions[steps],
         "rewards": batch.rewards[steps], "log_probs": batch.log_probs[steps],
         "values": batch.values[states],
         "ending": (bool(batch.fell[b]), bool(batch.blew_up[b]), batch.scripts[b])}
        for b, (steps, states) in enumerate(batch.slices())
    ]


def _assert_same_episode(got, want):
    """Two `_episodes` entries are equal, every array byte for byte."""
    for name in ("obs", "actions", "rewards", "log_probs", "values"):
        w, g = want[name], got[name]
        assert (g.shape, g.dtype, g.tobytes()) == (w.shape, w.dtype, w.tobytes()), name
    assert got["ending"] == want["ending"]


def _near_deterministic(policy):
    """A tiny action noise, so that episodes run as the policy mean would."""
    policy.log_std[:] = -20.0
    return policy


def test_rollout_latent_switch_exact_step():
    lib = library_with_latents()
    rng = np.random.default_rng(0)
    policy = _near_deterministic(pol.init_policy(rng, OBS_DIM))
    # clip_s=1, phi_s=0.25, 50-step cycle: switch at round(1.25 * 50) = 62
    script = EpisodeScript(mode_from=0, mode_to=2, switch_step=62, horizon=80)
    tr = _one_rollout(policy, lib, script, sim.Terrain.flat(), ROBOT, REWARD, rng)
    z_from = lib.latents[0]
    z_to = lib.latents[2]
    assert tr.lengths.tolist() == [80]
    np.testing.assert_array_equal(tr.obs[61, 2:6], z_from)
    np.testing.assert_array_equal(tr.obs[62, 2:6], z_to)
    np.testing.assert_array_equal(tr.obs[79, 2:6], z_to)


def test_rollout_same_mode_keeps_latent_constant():
    lib = library_with_latents()
    rng = np.random.default_rng(1)
    policy = _near_deterministic(pol.init_policy(rng, OBS_DIM))
    script = EpisodeScript(mode_from=1, mode_to=1, switch_step=25, horizon=60)
    tr = _one_rollout(policy, lib, script, sim.Terrain.flat(), ROBOT, REWARD, rng)
    assert tr.lengths.tolist() == [60]
    for t in range(60):
        np.testing.assert_array_equal(tr.obs[t, 2:6], lib.latents[1])


def test_rollout_fall_truncates_with_zero_bootstrap():
    lib = library_with_latents()
    rng = np.random.default_rng(2)
    policy = pol.init_policy(rng, OBS_DIM)
    # huge log-std makes the robot thrash and fall quickly
    policy.log_std[:] = 2.0
    script = EpisodeScript(mode_from=0, mode_to=0, switch_step=25, horizon=200)
    tr = _one_rollout(policy, lib, script, sim.Terrain.flat(), ROBOT, REWARD, rng)
    assert tr.fell.tolist() == [True]
    assert tr.lengths[0] < 200 and tr.values.shape == (tr.lengths[0] + 1,)
    assert tr.values[-1] == 0.0


def _reference_rollout(
    policy, library, script, terrain, robot_cfg, reward_cfg,
    rng=None, stochastic=True, clock_rate=1.0, trace=None,
):
    """The rollout loop before its passes were batched: `_act` and `_value` at
    every step, the bootstrap value on its own.

    It also runs what `rollout` does not: the deterministic policy, a clock
    rate and a per-step (state row, reward, mode) trace. The evaluation tests
    use these for the per-case episodes that `evaluate_modes` must reproduce."""
    latents = library.latents[[script.mode_from, script.mode_to]]
    row = sim.initial_state(robot_cfg, terrain, clock_rate=clock_rate)
    tracker = _ModeTracker(
        library.motions[script.mode_from], anchor_x=float(row[sim.X]),
        anchor_phase=float(row[sim.PHASE]),
    )
    clips_done = 0
    current = 0
    obs_list, act_list, rew_list, lp_list, val_list = [], [], [], [], []
    fell = blew_up = False
    for t in range(script.horizon):
        if t == script.switch_step and current == 0:
            current = 1
            tracker = _ModeTracker(
                library.motions[script.mode_to], anchor_x=float(row[sim.X]),
                anchor_phase=float(row[sim.PHASE]),
            )
            clips_done = 0
        o = observe(row, latents[current])
        a, lp = _act(policy, o, stochastic, rng)
        obs_list.append(o)
        act_list.append(a)
        lp_list.append(lp)
        val_list.append(_value(policy, o))
        new_row, status = step_row(row, a, terrain, robot_cfg)
        if new_row[sim.PHASE] < row[sim.PHASE]:
            clips_done += 1
        r = _reference_reward(
            new_row, tracker.at(float(new_row[sim.PHASE]), clips_done), reward_cfg
        )
        rew_list.append(r)
        if trace is not None:
            trace.append((new_row, r, script.mode_from if current == 0 else script.mode_to))
        row = new_row
        if status != sim.RUNNING:
            fell = status == sim.FALLEN
            blew_up = status == sim.BLOWUP
            break
    # The last state observes under the latent of the last step: the end
    # mode's once a step from the switch step on has run, else the start
    # mode's, even when that step ended the episode at the switch step.
    last = latents[int(len(obs_list) > script.switch_step)]
    final_obs = observe(row, last)
    bootstrap = 0.0 if fell or blew_up else _value(policy, final_obs)
    return pol.Rollout(
        scripts=[script],
        lengths=np.array([len(rew_list)]),
        obs=np.vstack(obs_list + [final_obs]),
        values=np.array(val_list + [bootstrap]),
        actions=np.vstack(act_list),
        log_probs=np.array(lp_list),
        rewards=np.array(rew_list),
        fell=np.array([fell]),
        blew_up=np.array([blew_up]),
    )


@pytest.mark.parametrize(
    "terrain, seed, horizon, ending",
    [
        (sim.Terrain.flat(), 0, 200, "falls"),
        # The gap starts within a foot's reach of the start pose.
        (sim.Terrain.gap(0.05), 0, 200, "falls"),
        (sim.Terrain.flat(), 1, 26, "horizon"),
        (sim.Terrain.flat(), 0, 200, "falls-at-switch"),
    ],
    ids=["flat-stochastic-falls", "gap-stochastic-falls", "flat-stochastic-horizon",
         "flat-stochastic-falls-at-switch"],
)
def test_rollout_matches_per_step_reference(terrain, seed, horizon, ending):
    lib = library_with_latents()
    rng = np.random.default_rng(seed)
    policy = pol.init_policy(rng, OBS_DIM)
    script = EpisodeScript(
        mode_from=seed % 4, mode_to=(seed + 1) % 4,
        switch_step=12 if horizon < 50 else 25, horizon=horizon,
    )
    if ending == "falls-at-switch":
        # Before its switch an episode steps as it would with a later switch,
        # so a switch at the step a switch-free episode falls at meets the fall:
        # the trunk's last step ends the episode at its switch step.
        late = EpisodeScript(script.mode_from, script.mode_to, horizon - 1, horizon)
        fall = _reference_rollout(policy, lib, late, terrain, ROBOT, REWARD,
                                  rng=np.random.default_rng(100 + seed))
        fall_step = int(fall.lengths[0])
        assert fall.fell[0] and fall_step < late.switch_step
        script = EpisodeScript(script.mode_from, script.mode_to, fall_step, horizon)
    args = (policy, lib, script, terrain, ROBOT, REWARD)
    want = _reference_rollout(*args, rng=np.random.default_rng(100 + seed))
    got = _one_rollout(*args, np.random.default_rng(100 + seed))
    (want,), (got,) = _episodes(want), _episodes(got)
    fell, length = want["ending"][0], want["rewards"].shape[0]
    if ending == "falls-at-switch":
        # The fallen state observes under the start mode's latent, the trunk's.
        assert fell and length == script.switch_step
        assert got["obs"][-1, 2:6].tobytes() == lib.latents[script.mode_from].tobytes()
    elif ending == "falls":
        assert fell and length < horizon
    else:
        assert not fell and length == horizon
    # A fall's bootstrap is zero; otherwise it is the last state's value.
    assert (got["values"][-1] == 0.0) == fell
    _assert_same_episode(got, want)


@pytest.mark.parametrize(
    "fall_after_switch", [-1, 0], ids=["falls-at-switch-minus-1", "falls-at-switch"]
)
def test_rollout_matches_reference_when_the_fall_meets_the_switch(fall_after_switch):
    # `rollout` runs each episode as a trunk row to the switch step and a
    # continuation row from there. A fall on the last step before the switch
    # ends the episode at the switch step, so the continuation never runs,
    # and that state observes under the trunk's latent, the start mode's; a
    # fall on the switch step ends it one step later, under the end mode's.
    lib = library_with_latents()
    policy = _falling_policy()

    def episode(switch_step, reference):
        script = EpisodeScript(mode_from=1, mode_to=3, switch_step=switch_step, horizon=200)
        run = _reference_rollout if reference else _one_rollout
        return run(
            policy, lib, script, sim.Terrain.flat(), ROBOT, REWARD, np.random.default_rng(21),
        )

    # The constant policy ignores its observation, so its fall does not
    # depend on the switch step; the switch is placed around it.
    fall_step = int(episode(150, reference=True).lengths[0]) - 1
    switch_step = fall_step - fall_after_switch
    (want,) = _episodes(episode(switch_step, reference=True))
    (got,) = _episodes(episode(switch_step, reference=False))
    assert want["ending"][0] and want["rewards"].shape == (fall_step + 1,)
    # The fallen state observes under the latent of the row that took the
    # last step, and its bootstrap is zero.
    last_mode = 3 if fall_after_switch == 0 else 1
    assert got["obs"][-1, 2:6].tobytes() == lib.latents[last_mode].tobytes()
    assert got["values"][-1] == 0.0
    _assert_same_episode(got, want)


def test_batched_values_equal_single_rows():
    rng = np.random.default_rng(11)
    policy = pol.init_policy(rng, OBS_DIM)
    obs = rng.normal(size=(256, OBS_DIM))
    single = np.array([_value(policy, o) for o in obs])
    for B in range(1, 257):
        assert pol.value_of(policy, obs[:B]).tobytes() == single[:B].tobytes(), B


def test_batched_means_equal_single_rows():
    rng = np.random.default_rng(12)
    policy = pol.init_policy(rng, OBS_DIM)
    obs = rng.normal(size=(256, OBS_DIM))
    single = np.array([_mean(policy, o) for o in obs])
    for B in range(1, 257):
        assert pol.policy_mean(policy, obs[:B]).tobytes() == single[:B].tobytes(), B


def _kernel_means(policy, obs):
    """The kernel's policy_mean of the rows of obs, through the harness, on a
    work block of two halves of B times the widest hidden width."""
    widths = np.array(policy.dims, dtype=np.int64)
    widest = max(policy.dims[1:-1], default=0)
    means, work = np.empty((len(obs), sim.NUM_JOINTS)), np.empty(2 * len(obs) * widest)
    net = sim._Policy(len(widths) - 1, widths.ctypes.data, policy.net.flat.ctypes.data,
                      *sim._numpy_loops())
    kernel_harness().harness_mean(ctypes.addressof(net), work.ctypes.data, widest, len(obs),
                                  obs.ctypes.data, means.ctypes.data)
    return means


@pytest.mark.parametrize("hidden, gain", [((64, 64), 1.0), ((5, 3), 6.0), ((3, 5, 8), 2.0),
                                          ((), 1.0)])
def test_the_kernel_policy_mean_is_policy_mean_bit_for_bit(hidden, gain):
    # The kernel's forward pass calls numpy's own matmul and tanh loops, so
    # its means are policy_mean's whatever the widths and the batch size. A
    # gain on the hidden weights drives tanh into its tails. A run sizes its
    # own work block: its first step acts on those means too.
    rng = np.random.default_rng(len(hidden))
    policy = pol.init_policy(rng, OBS_DIM, hidden=hidden)
    for w in policy.net.weights[:-1]:
        w *= gain
    policy.net.biases[-1][:] = rng.normal(size=4)
    for B in (1, 2, 3, 7, 24):
        rows = np.concatenate([rng.normal(0.0, 2.0, size=(B, sim.ROW - 1)),
                               np.zeros((B, 1))], axis=1)  # the support
        rows[:, sim.Z] += 1.0
        latents = rng.uniform(-3.0, 3.0, size=(B, 4))
        obs = np.array([observe(row, latent) for row, latent in zip(rows, latents)])
        means = _kernel_means(policy, obs)
        assert means.tobytes() == pol.policy_mean(policy, obs).tobytes(), (hidden, B)
        args = (rows, latents, [1] * B, None, sim.Terrain.flat(), ROBOT, *roots(B))
        run = sim.Lockstep(*args)
        run.run(policy.net)
        want = _reference_run(sim.Lockstep(*args), policy)
        assert run.history.tobytes() == want.history.tobytes(), (hidden, B)
    if gain > 1.0:
        layer = np.tanh(obs @ policy.net.weights[0].T + policy.net.biases[0])
        assert (np.abs(layer) > 0.999).mean() > 0.2  # the tails were reached

    # A batch with noise records the observation of each state of each
    # started row, under the row's latent, and the mean of each step.
    start = sim.initial_state(ROBOT, sim.Terrain.flat())
    pitched, overflowing = start.copy(), start.copy()
    pitched[sim.PITCH] = 1.2  # past 1 rad
    overflowing[sim.Q + 3 : sim.Q + 5] = 1e308  # the left leg's angle overflows
    # (parent, start step, budget, start row) of each row.
    cases = [
        (-1, 0, 4, start),        # 0: runs to its budget
        (0, 2, 2, start),         # 1: continues 0, and runs to its budget
        (-1, 0, 4, pitched),      # 2: falls
        (-1, 0, 4, overflowing),  # 3: blows up
        (2, 3, 1, start),         # 4: never starts: 2 fell before its start
        (-1, 0, 0, start),        # 5: starts with no steps
    ]
    parents, starts, budgets, start_rows = (list(c) for c in zip(*cases))
    latents = rng.uniform(-3.0, 3.0, size=(len(cases), 4))
    args = (np.array(start_rows), latents, budgets, rng.normal(0.0, 0.3, size=(len(cases), 4, 4)),
            sim.Terrain.flat(), ROBOT, parents, starts)
    run = sim.Lockstep(*args)
    run.run(policy.net)
    assert [sim.STATUSES[c] for c in run.status] == [
        "running", "running", "fallen", "blowup", "running", "running"]
    assert run.lengths.tolist() == [4, 2, 1, 1, 0, 0]
    steps = []
    for b, latent in enumerate(latents):
        states = run.rows(b)
        if b != 4:
            recorded = run.observed[starts[b] : starts[b] + run.lengths[b] + 1, b]
            assert recorded.tobytes() == np.array(
                [_reference_observe(s, latent) for s in states]).tobytes(), (hidden, b)
        steps += [(starts[b] + k, b) for k in range(run.lengths[b])]
    t, b = np.array(steps).T
    with np.errstate(over="ignore", invalid="ignore"):  # the overflowing row's observation
        want = pol.policy_mean(policy, run.observed[t, b])
    assert run.means[t, b].tobytes() == want.tobytes(), hidden
    assert sim.Lockstep(*args[:3], None, *args[4:]).observed is None


def _reference_run(batch, policy):
    """Step a lockstep batch to its end one control step at a time: a
    `policy_mean` call on the live rows' observations, then the kernel's
    step."""
    with np.errstate(over="ignore", invalid="ignore"):  # a blowup's inf - inf
        return drive(batch, lambda obs: pol.policy_mean(policy, obs))


def test_a_run_equals_the_per_step_policy_mean_loop():
    policy = _blowing_up_policy()
    rng = np.random.default_rng(13)
    calm, blowing = rng.uniform(-0.5, 0.5, size=4), np.array([10.0, 10.0, 0.0, 0.0])
    # (parent, start step, budget, latent) of each row; the falling policy
    # falls at about step 15 under a calm latent and blows up under `blowing`.
    rows = [
        (-1, 0, 30, calm),     # 0: falls
        (-1, 0, 30, blowing),  # 1: blows up on its first step
        (0, 5, 20, calm),      # 2: continues 0, and falls
        (0, 28, 2, calm),      # 3: never runs: 0 fell before its start
        (2, 8, 10, blowing),   # 4: continues 2, then blows up
        (-1, 0, 3, calm),      # 5: runs to its budget
    ]
    parents, starts, budgets, latents = (list(c) for c in zip(*rows))
    args = (np.tile(sim.initial_state(ROBOT, sim.Terrain.flat()), (len(rows), 1)),
            np.array(latents), budgets, rng.normal(0.0, 0.3, size=(len(rows), 30, 4)),
            sim.Terrain.flat(), ROBOT, parents, starts)
    want = _reference_run(sim.Lockstep(*args), policy)
    got = sim.Lockstep(*args)
    for _ in range(2):  # a second run starts the batch afresh
        got.run(policy.net)
        statuses = [sim.STATUSES[c] for c in got.status]
        assert statuses == ["fallen", "blowup", "fallen", "running", "blowup", "running"]
        assert got.lengths[[1, 3, 5]].tolist() == [1, 0, 3]
        assert got.lengths.tobytes() == want.lengths.tobytes()
        assert got.status.tobytes() == want.status.tobytes()
        assert got.rows(3).shape == (0, sim.ROW)
        for b in range(len(rows)):
            assert got.rows(b).tobytes() == want.rows(b).tobytes(), b


def test_a_run_whose_scratch_cannot_be_allocated_is_a_memory_error(monkeypatch):
    policy = pol.init_policy(np.random.default_rng(0), OBS_DIM)
    batch = sim.Lockstep(np.tile(sim.initial_state(ROBOT, sim.Terrain.flat()), (2, 1)),
                         np.zeros((2, 4)), [3, 3], None, sim.Terrain.flat(), ROBOT, *roots(2))
    harness = kernel_harness()
    fail = ctypes.c_int64.in_dll(harness, "harness_fail_alloc")
    monkeypatch.setattr(sim, "_kernel", harness)
    fail.value = 1
    try:
        with pytest.raises(MemoryError, match="2 rows"):
            batch.run(policy.net)
    finally:
        fail.value = 0
    assert batch.lengths.tolist() == [0, 0]  # nothing ran
    batch.run(policy.net)
    assert batch.lengths.tolist() == [3, 3]


def _blowing_up_policy():
    """The falling policy, whose mean turns NaN, and so blows the episode up,
    under a latent whose first two entries are both 10: the first hidden
    unit sums 1e308 * 10 and -1e308 * 10, inf - inf."""
    policy = _falling_policy()
    policy.net.weights[0][0, 2:4] = [1e308, -1e308]
    return policy


def test_a_lockstep_batch_equals_one_script_batches():
    full = library_with_latents()
    latents = np.random.default_rng(3).uniform(-0.5, 0.5, size=(full.n, 4))
    latents[3, :2] = 10.0
    lib = rm.ModeLibrary(full.motions, latents)
    policy = _blowing_up_policy()
    world = sim.Terrain.flat()

    def run(scripts, seeds):
        rngs = [np.random.default_rng(seed) for seed in seeds]
        with np.errstate(over="ignore", invalid="ignore"):  # the blowups' inf - inf
            return pol.rollout(policy, lib, scripts, world, ROBOT, REWARD, rngs)

    # The policy ignores finite observations, so a fall's step depends on the
    # noise alone; place switches around the fall of seed 31.
    fall = int(run([EpisodeScript(0, 1, 40, 60)], [31]).lengths[0])
    scripts = [
        EpisodeScript(0, 1, 5, 60),  # falls after its switch
        EpisodeScript(1, 2, 40, 60),  # falls before its switch
        EpisodeScript(0, 2, fall, 60),  # falls on the last step before its switch
        EpisodeScript(0, 2, fall - 1, 60),  # falls on its switch step
        EpisodeScript(2, 3, 4, 60),  # blows up after its switch
        EpisodeScript(3, 0, 20, 60),  # blows up on its first step
        EpisodeScript(1, 0, 3, 8),  # runs to its horizon
    ]
    seeds = [30, 32, 31, 31, 33, 34, 35]
    batch = run(scripts, seeds)
    assert batch.fell.tolist() == [True] * 4 + [False] * 3
    assert batch.blew_up.tolist() == [False] * 4 + [True] * 2 + [False]
    lengths = batch.lengths.tolist()
    assert (lengths[2], lengths[3], lengths[4], lengths[5], lengths[6]) == (fall, fall, 5, 1, 8)
    n = sum(lengths)
    assert (batch.obs.shape[0], batch.values.shape, batch.rewards.shape) == (n + 7, (n + 7,), (n,))
    for b, (script, seed, got) in enumerate(zip(scripts, seeds, _episodes(batch))):
        (want,) = _episodes(run([script], [seed]))
        _assert_same_episode(got, want)
        # The last state observes under the end mode's latent once a step from
        # the switch step on has run; a fall or blowup bootstraps from zero.
        last_mode = script.mode_to if lengths[b] > script.switch_step else script.mode_from
        assert got["obs"][-1, 2:6].tobytes() == lib.latents[last_mode].tobytes()
        assert (got["values"][-1] == 0.0) == (b < 6)


def test_advance_checks_its_inputs_before_the_kernel():
    policy = pol.init_policy(np.random.default_rng(0), OBS_DIM)
    start = sim.initial_state(ROBOT, sim.Terrain.flat())
    starts, latents = np.tile(start, (2, 1)), np.zeros((2, 4))
    args = (sim.Terrain.flat(), ROBOT)
    roots = ([-1, -1], [0, 0])
    pol._advance(policy, latents, starts, [3, 0], *args, parents=roots[0], starts=roots[1])
    pol._advance(policy, latents, starts, [3, 1], *args, parents=[-1, 0], starts=[0, 2])
    with pytest.raises(TypeError, match="parents"):  # every row names its parent
        pol._advance(policy, latents, starts, [3, 0], *args)
    three = pol.init_policy(np.random.default_rng(0), OBS_DIM, act_dim=3)
    with pytest.raises(ValueError, match="gives 3"):  # the kernel writes 4 means a row
        pol._advance(three, latents, starts, [3, 0], *args, parents=roots[0], starts=roots[1])
    for bad_starts, bad_latents, steps, noise, chain, match in [
        (starts[:, :-1].copy(), latents, [3, 3], None, None, "start rows"),
        (starts, latents.astype(np.float32), [3, 3], None, None, "latents"),
        (starts, latents, [3, -1], None, None, "step budgets"),
        (starts, latents, [3.0, 3.0], None, None, "step budgets"),
        (starts, latents[:, :3].copy(), [3, 3], None, None, "policy takes"),
        (starts, latents, [3, 3], np.zeros((2, 2, 4)), None, "noise covers"),
        (starts, latents, [3, 3], np.zeros((2, 3, 3)), None, "noise"),
        # The batch's last step is a continuation row's start plus its budget.
        (starts, latents, [3, 3], np.zeros((2, 3, 4)), ([-1, 0], [0, 1]), "noise covers"),
        (starts, latents, [3, 3], None, ([-1, -2], [0, 1]), "parents"),
        (starts, latents, [3, 3], None, ([-1, 0.0], [0, 1]), "parents"),
        (starts, latents, [3, 3], None, ([-1], [0, 1]), "parents"),
        (starts, latents, [3, 3], None, ([-1, 1], [0, 1]), "precede"),
        (starts, latents, [3, 3], None, ([1, -1], [1, 0]), "precede"),
        (starts, latents, [3, 3], None, ([-1, 0], [0, -1]), "start steps"),
        (starts, latents, [3, 0], None, ([-1, 0], [0, 2]), "budget of at least 1"),
        (starts, latents, [3, 3], None, ([-1, 0], [0, 1.0]), "start steps"),
        (starts, latents, [3, 3], None, ([-1, -1], [0, 1]), "starts at 0"),
        (starts, latents, [3, 3], None, ([-1, 0], None), "start steps"),
        (starts, latents, [3, 3], None, (None, [0, 1]), "parents"),
    ]:
        parents, start_steps = chain or roots
        with pytest.raises(ValueError, match=match):
            pol._advance(policy, bad_latents, bad_starts, steps, *args, noise,
                         parents=parents, starts=start_steps)


def test_fortran_ordered_latents_step_as_c_ordered_ones():
    from modeloco import planner as pl

    lib = library_with_latents()
    flipped = lib.with_latents(np.asfortranarray(lib.latents))
    policy = pol.init_policy(np.random.default_rng(4), OBS_DIM)
    world = sim.Terrain.flat()
    want = pol.evaluate_modes(policy, lib, world, ROBOT, REWARD, horizon=30)
    got = pol.evaluate_modes(policy, flipped, world, ROBOT, REWARD, horizon=30)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    plan, cfg = pl.ModePlan((2, 0)), pl.PlannerConfig(knots=2)
    assert (pl._rollout_plans([plan], policy, flipped, world, ROBOT, cfg, {})[0].tobytes()
            == pl._rollout_plans([plan], policy, lib, world, ROBOT, cfg, {})[0].tobytes())


def test_evaluate_modes_shapes_and_range():
    lib = library_with_latents()
    policy = pol.init_policy(np.random.default_rng(4), OBS_DIM)
    modes, transitions = pol.evaluate_modes(
        policy, lib, sim.Terrain.flat(), ROBOT, REWARD, horizon=30,
    )
    assert modes.shape == (4,)
    assert transitions.shape == (4, 4)
    assert np.all(modes >= 0.0) and np.all(modes <= 1.0)
    assert np.all(transitions >= 0.0) and np.all(transitions <= 1.0)


def _reference_evaluate_modes(
    policy, library, terrain, robot_cfg, reward_cfg, horizon, rollouts_per_case, clock_rate
):
    """The per-case loop evaluate_modes ran before rollouts shared their prefixes.

    Returns the mode scores, the transition table and, in order, every case
    as (i, j, switch step, one-episode `Rollout`).
    """
    from modeloco.sampler import SWITCH_CLIPS, SWITCH_PHASES

    n = library.n
    cycle_steps = round(robot_cfg.cycle_duration / robot_cfg.control_dt)
    combos = [(c, p) for c in SWITCH_CLIPS for p in SWITCH_PHASES]
    transition_scores = np.zeros((n, n))
    cases = []
    for i in range(n):
        for j in range(n):
            vals = []
            for k in range(rollouts_per_case):
                clip_s, phase_s = combos[k % len(combos)]
                script = EpisodeScript(
                    mode_from=i,
                    mode_to=j,
                    switch_step=round((clip_s + phase_s) * cycle_steps),
                    horizon=horizon,
                )
                tr = _reference_rollout(
                    policy, library, script, terrain, robot_cfg, reward_cfg,
                    stochastic=False, clock_rate=clock_rate,
                )
                cases.append((i, j, script.switch_step, tr))
                vals.append(pol.normalized_return(tr, reward_cfg)[0])
            transition_scores[i, j] = np.mean(vals)
    return np.diag(transition_scores).copy(), transition_scores, cases


def _falling_policy():
    """A constant hard pitch-forward target: every episode falls at step 15."""
    policy = pol.init_policy(np.random.default_rng(2), OBS_DIM)
    for w in policy.net.weights:
        w[:] = 0.0
    policy.net.biases[-1][:] = np.array([3.0, -2.5, -3.0, 2.5])
    return policy


def _count_steps(monkeypatch) -> list:
    """Count the simulator steps the policy module takes and record the rows
    of each `_advance` batch; returns a [steps, rows per batch] counter.

    Every episode steps through `_advance`, so the count sums the steps of
    each batch it returns."""
    count = [0, []]
    real_advance = pol._advance

    def counting_advance(*args, **kwargs):
        run = real_advance(*args, **kwargs)
        count[0] += int(run.lengths.sum())
        count[1].append(len(run.lengths))
        return run

    monkeypatch.setattr(pol, "_advance", counting_advance)
    return count


def _assert_trace(trace, want, mode):
    """An `evaluate_modes` trace equals the per-step (row, reward, mode) list
    of a reference rollout under `mode` alone, byte for byte."""
    rows, rewards = trace
    assert len(rows) == len(want) and rewards.dtype == np.float64
    assert rows.tobytes() == np.array([w_row for w_row, _, _ in want]).tobytes()
    assert rewards.tobytes() == np.array([w_r for _, w_r, _ in want]).tobytes()
    assert {w_mode for *_, w_mode in want} <= {mode}


@pytest.mark.parametrize(
    "terrain, policy_seed, rollouts, horizon, clock_rate, cycle_duration, ending",
    [
        ("flat", 4, 1, 200, 1.0, 1.0, "falls"),
        ("gap", 5, 6, 200, 1.0, 1.0, "falls"),
        ("flat", 4, 8, 100, 1.3, 1.0, "horizon"),
        ("flat", None, 6, 200, 1.0, 1.0, "before_switch"),
        ("flat", None, 6, 200, 1.0, 1.2, "at_switch"),
    ],
    ids=[
        "flat-r1-falls", "gap-r6-falls", "flat-r8-horizon", "flat-r6-before-switch",
        "flat-r6-at-switch",
    ],
)
def test_evaluate_modes_matches_per_case_rollouts(
    monkeypatch, terrain, policy_seed, rollouts, horizon, clock_rate, cycle_duration, ending
):
    # Three modes keep the per-case reference cheap; the grid still wraps at 8.
    full = library_with_latents()
    lib = rm.ModeLibrary(full.motions[:3], full.latents[:3])
    policy = (
        _falling_policy() if policy_seed is None
        else pol.init_policy(np.random.default_rng(policy_seed), OBS_DIM)
    )
    # A 1.2 s cycle puts the first switch at step 15, where the falling policy falls.
    robot = sim.RobotConfig(cycle_duration=cycle_duration)
    world = sim.TERRAIN_PRESETS[terrain]()
    args = (policy, lib, world, robot, REWARD)
    want_modes, want_table, cases = _reference_evaluate_modes(
        *args, horizon, rollouts, clock_rate
    )
    if ending == "falls":
        assert all(tr.fell[0] for *_, tr in cases)
    elif ending == "horizon":
        assert all(tr.lengths[0] == horizon for *_, tr in cases)
    elif ending == "before_switch":
        assert any(s > tr.lengths[0] for _, _, s, tr in cases)
    else:
        assert any(s == tr.lengths[0] and tr.fell[0] for _, _, s, tr in cases)
    cycle_steps = round(cycle_duration / robot.control_dt)
    want_traces = {}
    for i in range(lib.n):
        script = EpisodeScript(i, i, round(1.5 * cycle_steps), horizon)
        want_traces[i] = []
        _reference_rollout(
            policy, lib, script, world, robot, REWARD,
            stochastic=False, clock_rate=clock_rate, trace=want_traces[i],
        )

    steps = _count_steps(monkeypatch)
    traces: dict = {}
    modes, table = pol.evaluate_modes(
        *args, horizon=horizon, rollouts_per_case=rollouts, clock_rate=clock_rate,
        traces=traces,
    )
    assert table.tobytes() == want_table.tobytes()
    assert modes.tobytes() == want_modes.tobytes()

    # One trunk per source mode, plus one branch per distinct switch to
    # another mode that the trunk reaches; same-mode cases take no steps.
    trunk = {i: tr.lengths[0] for i, j, _, tr in cases if i == j}
    branches = {(i, j, s): tr.lengths[0] - s for i, j, s, tr in cases if j != i and s < trunk[i]}
    assert steps[0] == sum(trunk.values()) + sum(branches.values())
    assert steps[0] < sum(tr.lengths[0] for *_, tr in cases)
    # One batch per source mode: its trunk and a branch row per other mode
    # and distinct switch, so a batch's rows grow with n, not n^2.
    rows = 1 + (lib.n - 1) * len({s for _, _, s, _ in cases})
    assert steps[1] == [rows] * lib.n

    assert sorted(traces) == list(range(lib.n))
    for i, want in want_traces.items():
        _assert_trace(traces[i], want, i)


def test_evaluate_modes_rejects_a_switch_outside_the_episode():
    lib = library_with_latents()
    policy = pol.init_policy(np.random.default_rng(4), OBS_DIM)
    args = (policy, lib, sim.Terrain.flat(), ROBOT, REWARD)
    # A horizon shorter than the first switch step: as the per-case loop did.
    with pytest.raises(ValueError, match="got 12 of 10"):
        _reference_evaluate_modes(*args, 10, 1, 1.0)
    with pytest.raises(ValueError, match="got 12 of 10"):
        pol.evaluate_modes(*args, horizon=10)
    # The trace case switches at step 75, past a 60-step episode: its trace is
    # the trunk, as a rollout that would switch only after step 60 gives.
    traces: dict = {}
    pol.evaluate_modes(*args, horizon=60, traces=traces)
    for i in range(lib.n):
        want = []
        _reference_rollout(
            policy, lib, EpisodeScript(i, i, 60, 61), *args[2:],
            stochastic=False, trace=want,
        )
        _assert_trace(traces[i], want[:60], i)
    with pytest.raises(ValueError, match="at least one rollout"):
        pol.evaluate_modes(*args, rollouts_per_case=0)
