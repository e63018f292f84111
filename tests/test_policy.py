import math

import numpy as np
import pytest

from modeloco import policy as pol
from modeloco import refmotion as rm
from modeloco import sim
from modeloco.sampler import EpisodeScript


def library_with_latents(selector="pi2", seed=0):
    lib = rm.builtin_library(selector)
    rng = np.random.default_rng(seed)
    return lib.with_latents(rng.normal(size=(lib.n, 4)))


OBS_DIM = sim.observation_dim(4)


def _act(params, obs, stochastic, rng=None):
    """One step of the per-step sampling `rollout` did before it batched its passes:
    sample (or take the mean of) the action distribution at one observation."""
    mean = pol.policy_mean(params, obs)
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
    mean = pol.policy_mean(params, obs)
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
    value = pol.init_value(rng, 3, hidden=(4,))
    loose = pol.PpoConfig(clip_ratio=1e9)
    assert pol.ppo_loss_and_grad(policy, value, batch, cfg)[0] == pytest.approx(
        pol.ppo_loss_and_grad(policy, value, batch, loose)[0], abs=1e-12
    )


def test_surrogate_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        obs_dim = int(rng.integers(2, 5))
        act_dim = int(rng.integers(1, 4))
        cfg = pol.PpoConfig(clip_ratio=0.2, entropy_coef=0.01, value_coef=0.5)
        policy = pol.init_policy(rng, obs_dim, act_dim=act_dim, hidden=(3,))
        value = pol.init_value(rng, obs_dim, hidden=(3,))
        B = 8
        batch = {
            "obs": rng.normal(size=(B, obs_dim)),
            "actions": rng.normal(size=(B, act_dim)),
            "old_log_probs": rng.normal(scale=0.2, size=B) - 1.5,
            "advantages": rng.normal(size=B),
            "returns": rng.normal(size=B),
        }
        _, g_p, g_v, _, _ = pol.ppo_loss_and_grad(policy, value, batch, cfg)
        h = 1e-6
        for params, grad in ((policy, g_p), (value, g_v)):
            # The weights view flat, so moving an entry of flat moves the network.
            flat = params.flat
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                base = flat[i]
                flat[i] = base + h
                lp_ = pol.ppo_loss_and_grad(policy, value, batch, cfg)[0]
                flat[i] = base - h
                lm_ = pol.ppo_loss_and_grad(policy, value, batch, cfg)[0]
                flat[i] = base
                fd[i] = (lp_ - lm_) / (2 * h)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
            worst = max(worst, rel.max())
    assert worst < 1e-4


def _single_step_traj(obs, action, rew, lp, value_hat):
    return pol.Trajectory(
        obs=np.vstack([obs, obs]),
        actions=np.atleast_2d(action),
        rewards=np.array([rew]),
        log_probs=np.array([lp]),
        values=np.array([value_hat, 0.0]),
        script=EpisodeScript(0, 0, 1, 2),  # ppo_update does not read the script
    )


def test_zero_advantages_leave_policy_mean_untouched():
    rng = np.random.default_rng(7)
    cfg = pol.PpoConfig(entropy_coef=0.0, epochs=2, minibatches=1, learning_rate=1e-2)
    policy = pol.init_policy(rng, 3, act_dim=2, hidden=(4,))
    value = pol.init_value(rng, 3, hidden=(4,))
    opt = pol.PpoOptState.fresh(policy, value)
    # two trajectories whose GAE advantages are exactly zero:
    # reward == value(s_t) - gamma*value(s_{t+1}) makes every delta vanish
    trajs = []
    for _ in range(4):
        obs = rng.normal(size=3)
        v = float(pol.value_of(value, obs))
        a = rng.normal(size=2)
        lp = float(pol.gaussian_log_prob(a, pol.policy_mean(policy, obs), policy.log_std)[0])
        trajs.append(_single_step_traj(obs, a, v - cfg.discount * 0.0, lp, v))
    new_policy, _, _, _ = pol.ppo_update(policy, value, opt, trajs, cfg, rng)
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
    value = pol.init_value(rng, 1, hidden=(8,))
    opt = pol.PpoOptState.fresh(policy, value)
    for update in range(200):
        trajs = []
        for _ in range(32):
            a, lp = _act(policy, obs, stochastic=True, rng=rng)
            r = -float((a[0] - 1.0) ** 2)
            v = float(pol.value_of(value, obs))
            trajs.append(_single_step_traj(obs, a, r, lp, v))
        policy, value, opt, _ = pol.ppo_update(policy, value, opt, trajs, cfg, rng)
    mean = float(pol.policy_mean(policy, obs)[0])
    assert abs(mean - 1.0) < 0.05


def test_non_finite_update_rejected():
    rng = np.random.default_rng(9)
    cfg = pol.PpoConfig()
    policy = pol.init_policy(rng, 3, act_dim=2, hidden=(4,))
    value = pol.init_value(rng, 3, hidden=(4,))
    opt = pol.PpoOptState.fresh(policy, value)
    tr = _single_step_traj(np.zeros(3), np.zeros(2), float("nan"), 0.0, 0.0)
    new_policy, new_value, _, stats = pol.ppo_update(policy, value, opt, [tr], cfg, rng)
    assert stats.rejected
    assert np.array_equal(policy.flat, new_policy.flat)
    assert np.array_equal(value.flat, new_value.flat)


# --- rollouts ------------------------------------------------------------------


ROBOT = sim.RobotConfig()
REWARD = sim.RewardConfig()


def _near_deterministic(policy):
    """A tiny action noise, so that episodes run as the policy mean would."""
    policy.log_std[:] = -20.0
    return policy


def test_rollout_latent_switch_exact_step():
    lib = library_with_latents()
    rng = np.random.default_rng(0)
    policy = _near_deterministic(pol.init_policy(rng, OBS_DIM))
    value = pol.init_value(rng, OBS_DIM)
    # clip_s=1, phi_s=0.25, 50-step cycle: switch at round(1.25 * 50) = 62
    script = EpisodeScript(mode_from=0, mode_to=2, switch_step=62, horizon=80)
    tr = pol.rollout(policy, value, lib, script, sim.Terrain.flat(), ROBOT, REWARD, rng)
    z_from = lib.latents[0]
    z_to = lib.latents[2]
    assert tr.length == 80
    np.testing.assert_array_equal(tr.obs[61, 2:6], z_from)
    np.testing.assert_array_equal(tr.obs[62, 2:6], z_to)
    np.testing.assert_array_equal(tr.obs[79, 2:6], z_to)


def test_rollout_same_mode_keeps_latent_constant():
    lib = library_with_latents()
    rng = np.random.default_rng(1)
    policy = _near_deterministic(pol.init_policy(rng, OBS_DIM))
    value = pol.init_value(rng, OBS_DIM)
    script = EpisodeScript(mode_from=1, mode_to=1, switch_step=25, horizon=60)
    tr = pol.rollout(policy, value, lib, script, sim.Terrain.flat(), ROBOT, REWARD, rng)
    assert tr.length == 60
    for t in range(tr.length):
        np.testing.assert_array_equal(tr.obs[t, 2:6], lib.latents[1])


def test_rollout_fall_truncates_with_zero_bootstrap():
    lib = library_with_latents()
    rng = np.random.default_rng(2)
    policy = pol.init_policy(rng, OBS_DIM)
    # huge log-std makes the robot thrash and fall quickly
    policy.log_std[:] = 2.0
    value = pol.init_value(rng, OBS_DIM)
    script = EpisodeScript(mode_from=0, mode_to=0, switch_step=25, horizon=200)
    tr = pol.rollout(policy, value, lib, script, sim.Terrain.flat(), ROBOT, REWARD, rng)
    assert tr.fell
    assert tr.length < 200
    assert tr.values[-1] == 0.0


def _reference_rollout(
    policy, value, library, script, terrain, robot_cfg, reward_cfg,
    rng=None, stochastic=True, clock_rate=1.0, trace=None,
):
    """The rollout loop before its passes were batched: `_act` and `value_of` at
    every step, the bootstrap value on its own.

    It also runs what `rollout` does not: the deterministic policy, a clock
    rate, no value network, and a per-step (state, reward, mode) trace. The
    evaluation tests use these for the per-case episodes that `evaluate_modes`
    must reproduce."""
    latents = library.latents[[script.mode_from, script.mode_to]]
    state = sim.initial_state(robot_cfg, terrain, clock_rate=clock_rate)
    tracker = sim.ModeTracker(
        library.motions[script.mode_from], anchor_x=state.x, anchor_phase=state.phase
    )
    clips_done = 0
    current = 0
    obs_list, act_list, rew_list, lp_list, val_list = [], [], [], [], []
    fell = blew_up = False
    for t in range(script.horizon):
        if t == script.switch_step and current == 0:
            current = 1
            tracker = sim.ModeTracker(
                library.motions[script.mode_to], anchor_x=state.x, anchor_phase=state.phase
            )
            clips_done = 0
        o = sim.observe(state, latents[current])
        a, lp = _act(policy, o, stochastic, rng)
        obs_list.append(o)
        act_list.append(a)
        lp_list.append(lp)
        val_list.append(pol.value_of(value, o) if value is not None else 0.0)
        new_state = sim.step(state, a, terrain, robot_cfg)
        if new_state.phase < state.phase:
            clips_done += 1
        r = sim.reward(new_state, tracker.at(new_state.phase, clips_done), reward_cfg)
        rew_list.append(r)
        if trace is not None:
            trace.append((new_state, r, script.mode_from if current == 0 else script.mode_to))
        state = new_state
        status = sim.termination(state, robot_cfg)
        if status != sim.RUNNING:
            fell = status == sim.FALLEN
            blew_up = status == sim.BLOWUP
            break
    final_obs = sim.observe(state, latents[current])
    if fell or blew_up or value is None:
        bootstrap = 0.0
    else:
        bootstrap = pol.value_of(value, final_obs)
    return pol.Trajectory(
        obs=np.vstack(obs_list + [final_obs]),
        actions=np.vstack(act_list),
        rewards=np.array(rew_list),
        log_probs=np.array(lp_list),
        values=np.array(val_list + [bootstrap]),
        script=script,
        fell=fell,
        blew_up=blew_up,
    )


@pytest.mark.parametrize(
    "terrain, seed, horizon, ending",
    [
        (sim.Terrain.flat(), 0, 200, "falls"),
        # The gap starts within a foot's reach of the start pose.
        (sim.Terrain.gap(0.05), 0, 200, "falls"),
        (sim.Terrain.flat(), 1, 26, "horizon"),
    ],
    ids=["flat-stochastic-falls", "gap-stochastic-falls", "flat-stochastic-horizon"],
)
def test_rollout_matches_per_step_reference(terrain, seed, horizon, ending):
    lib = library_with_latents()
    rng = np.random.default_rng(seed)
    policy = pol.init_policy(rng, OBS_DIM)
    value = pol.init_value(rng, OBS_DIM)
    script = EpisodeScript(
        mode_from=seed % 4, mode_to=(seed + 1) % 4,
        switch_step=12 if horizon < 50 else 25, horizon=horizon,
    )
    args = (policy, value, lib, script, terrain, ROBOT, REWARD)
    want = _reference_rollout(*args, rng=np.random.default_rng(100 + seed))
    got = pol.rollout(*args, np.random.default_rng(100 + seed))
    if ending == "falls":
        assert want.fell and want.length < horizon
    else:
        assert not want.fell and want.length == horizon
    for name in ("obs", "actions", "rewards", "log_probs", "values"):
        w, g = getattr(want, name), getattr(got, name)
        assert (g.shape, g.dtype, g.tobytes()) == (w.shape, w.dtype, w.tobytes()), name
    assert (got.fell, got.blew_up, got.script) == (want.fell, want.blew_up, want.script)


@pytest.mark.parametrize(
    "fall_after_switch", [-1, 0], ids=["falls-at-switch-minus-1", "falls-at-switch"]
)
def test_rollout_matches_reference_when_the_fall_meets_the_switch(fall_after_switch):
    # `rollout` runs up to the switch step, then the rest of the horizon. A
    # fall on the last step before the switch ends the episode in the first
    # run; a fall on the switch step ends the second run after one step.
    lib = library_with_latents()
    policy = _falling_policy()
    value = pol.init_value(np.random.default_rng(8), OBS_DIM)

    def episode(switch_step, reference):
        script = EpisodeScript(mode_from=1, mode_to=3, switch_step=switch_step, horizon=200)
        run = _reference_rollout if reference else pol.rollout
        return run(
            policy, value, lib, script, sim.Terrain.flat(), ROBOT, REWARD,
            np.random.default_rng(21),
        )

    # The constant policy ignores its observation, so its fall does not
    # depend on the switch step; the switch is placed around it.
    fall_step = episode(150, reference=True).length - 1
    switch_step = fall_step - fall_after_switch
    want = episode(switch_step, reference=True)
    got = episode(switch_step, reference=False)
    assert want.fell and want.length == fall_step + 1
    for name in ("obs", "actions", "rewards", "log_probs", "values"):
        w, g = getattr(want, name), getattr(got, name)
        assert (g.shape, g.dtype, g.tobytes()) == (w.shape, w.dtype, w.tobytes()), name
    assert (got.fell, got.blew_up, got.script) == (want.fell, want.blew_up, want.script)


def test_batched_values_equal_single_rows():
    rng = np.random.default_rng(11)
    value = pol.init_value(rng, OBS_DIM)
    obs = rng.normal(size=(256, OBS_DIM))
    single = np.array([pol.value_of(value, o) for o in obs])
    for B in range(1, 257):
        assert pol.value_of(value, obs[:B]).tobytes() == single[:B].tobytes(), B


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
    as (i, j, switch step, trajectory).
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
                    policy, None, library, script, terrain, robot_cfg, reward_cfg,
                    stochastic=False, clock_rate=clock_rate,
                )
                cases.append((i, j, script.switch_step, tr))
                vals.append(pol.normalized_return(tr, reward_cfg))
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
    """Count the simulator steps the policy module takes; returns a one-item counter."""
    count = [0]
    real_step = pol.step

    def counting_step(*args, **kwargs):
        count[0] += 1
        return real_step(*args, **kwargs)

    monkeypatch.setattr(pol, "step", counting_step)
    return count


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
        assert all(tr.fell for *_, tr in cases)
    elif ending == "horizon":
        assert all(tr.length == horizon for *_, tr in cases)
    elif ending == "before_switch":
        assert any(s > tr.length for _, _, s, tr in cases)
    else:
        assert any(s == tr.length and tr.fell for _, _, s, tr in cases)
    cycle_steps = round(cycle_duration / robot.control_dt)
    want_traces = {}
    for i in range(lib.n):
        script = EpisodeScript(i, i, round(1.5 * cycle_steps), horizon)
        want_traces[i] = []
        _reference_rollout(
            policy, None, lib, script, world, robot, REWARD,
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
    trunk = {i: tr.length for i, j, _, tr in cases if i == j}
    branches = {(i, j, s): tr.length - s for i, j, s, tr in cases if j != i and s < trunk[i]}
    assert steps[0] == sum(trunk.values()) + sum(branches.values())
    assert steps[0] < sum(tr.length for *_, tr in cases)

    assert sorted(traces) == list(range(lib.n))
    for i, want in want_traces.items():
        assert len(traces[i]) == len(want)
        for (state, r, mode), (w_state, w_r, w_mode) in zip(traces[i], want):
            assert state.q.tobytes() == w_state.q.tobytes()
            assert state.qdot.tobytes() == w_state.qdot.tobytes()
            assert (state.t, state.phase, state.contact_left, state.contact_right) == (
                w_state.t, w_state.phase, w_state.contact_left, w_state.contact_right
            )
            assert (repr(r), mode) == (repr(w_r), w_mode)


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
            policy, None, lib, EpisodeScript(i, i, 60, 61), *args[2:],
            stochastic=False, trace=want,
        )
        want = want[:60]
        assert len(traces[i]) == len(want)
        for (state, r, mode), (w_state, w_r, w_mode) in zip(traces[i], want):
            assert state.q.tobytes() == w_state.q.tobytes()
            assert (repr(r), mode) == (repr(w_r), w_mode)
    with pytest.raises(ValueError, match="at least one rollout"):
        pol.evaluate_modes(*args, rollouts_per_case=0)
