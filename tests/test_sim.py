import math

import numpy as np
import pytest

from modeloco import refmotion as rm
from modeloco import sim


CFG = sim.RobotConfig()
FLAT = sim.Terrain.flat()


def airborne_state(qdot=None):
    q = np.array([0.0, 2.0, 0.05, 0.0, 0.0, 0.0, 0.0])
    qd = np.zeros(7) if qdot is None else np.asarray(qdot, dtype=float)
    return sim.SimState(
        q=q, qdot=qd, t=0.0, phase=0.0, clock_rate=1.0,
        contact_left=False, contact_right=False, support=0.0,
    )


# --- PD torque ---------------------------------------------------------------


def test_pd_torque_hand_case():
    tau = sim.pd_torque(np.full(4, 0.5), np.full(4, 0.2), np.full(4, 1.0), CFG)
    np.testing.assert_allclose(tau, 8.5, atol=1e-12)


def test_pd_torque_equilibrium():
    q = np.array([0.1, -0.2, 0.3, 0.0])
    tau = sim.pd_torque(q, q, np.zeros(4), CFG)
    np.testing.assert_allclose(tau, 0.0, atol=1e-15)


def test_pd_torque_clips_at_limit():
    tau = sim.pd_torque(np.full(4, 2.0), np.zeros(4), np.zeros(4), CFG)
    np.testing.assert_allclose(tau, 30.0, atol=1e-12)
    tau = sim.pd_torque(np.full(4, -2.0), np.zeros(4), np.zeros(4), CFG)
    np.testing.assert_allclose(tau, -30.0, atol=1e-12)


def test_pd_torque_no_angle_limits():
    # targets far outside any plausible joint range are accepted as-is
    tau = sim.pd_torque(np.full(4, 9.0), np.full(4, 8.9), np.zeros(4), CFG)
    np.testing.assert_allclose(tau, 3.0, atol=1e-12)


# --- stepping ----------------------------------------------------------------


def test_ballistic_arc():
    state = airborne_state([1.0, 0.5, 0.3, 0, 0, 0, 0])
    for _ in range(10):
        new = sim.step(state, np.zeros(4), FLAT, CFG)
        assert abs((state.qdot[1] - new.qdot[1]) - sim.GRAVITY * CFG.control_dt) < 1e-9
        assert abs(new.qdot[0] - state.qdot[0]) < 1e-12
        assert abs(new.qdot[2] - state.qdot[2]) < 1e-12
        state = new


def test_ballistic_energy_conservation():
    state = airborne_state([1.2, 0.8, 0.5, 0, 0, 0, 0])
    e0 = sim.base_energy(state, CFG)
    steps = 25
    for _ in range(steps):
        state = sim.step(state, np.zeros(4), FLAT, CFG)
    drift_per_substep = abs(sim.base_energy(state, CFG) - e0) / (steps * CFG.substeps)
    assert drift_per_substep < 1e-6


def test_static_stand_settles_to_spring_compression():
    state = sim.initial_state(CFG, FLAT, settled=False)
    for _ in range(100):
        state = sim.step(state, np.zeros(4), FLAT, CFG)
    expected = CFG.nominal_height - CFG.settle_depth
    assert abs(state.z - expected) < 1e-3


def test_static_stand_drift_from_equilibrium():
    state = sim.initial_state(CFG, FLAT, settled=True)
    z0 = state.z
    for _ in range(100):
        state = sim.step(state, np.zeros(4), FLAT, CFG)
        assert abs(state.z - z0) < 1e-3


def test_double_clock_rate_completes_two_cycles():
    state = sim.initial_state(CFG, FLAT, clock_rate=2.0)
    wraps = 0
    prev = state.phase
    steps_per_cycle = round(CFG.cycle_duration / CFG.control_dt)
    for _ in range(steps_per_cycle):
        state = sim.step(state, np.zeros(4), FLAT, CFG)
        if state.phase < prev:
            wraps += 1
        prev = state.phase
    assert wraps == 2


def test_step_determinism_bit_identical():
    state = airborne_state([0.3, -0.2, 0.1, 0.5, -0.5, 0.2, -0.2])
    action = np.array([0.1, -0.3, 0.2, 0.4])
    a = sim.step(state, action, FLAT, CFG)
    b = sim.step(state, action, FLAT, CFG)
    assert np.array_equal(a.q, b.q) and np.array_equal(a.qdot, b.qdot)
    assert a.phase == b.phase


# --- reference step ------------------------------------------------------------
#
# The plain-loop form of the physics: forces through sim._foot_states and
# sim.contact_force, lists for the state. sim.step inlines the same arithmetic
# in the same order and must match it byte for byte.


def _reference_accelerations(q, qdot, action, terrain, cfg, hits):
    m = cfg.base_mass
    fx_sum = 0.0
    fz_sum = 0.0
    torque_sum = 0.0
    acc = [0.0] * 7
    feet = sim._foot_states(q, qdot, cfg)
    for leg, (fx, fz, fvx, fvz, jxh, jzh, jxk, jzk, _, _) in enumerate(feet):
        pen = terrain.height(fx) - fz
        fn, ft = sim.contact_force(pen, fvx, fvz, cfg)
        hits["airborne_foot"] += pen <= 0.0
        hits["friction_capped"] += fn > 0.0 and abs(ft) == cfg.friction * fn
        fx_sum += ft
        fz_sum += fn
        torque_sum += (fx - q[0]) * fn - (fz - q[1]) * ft
        ih, ik = 3 + 2 * leg, 4 + 2 * leg
        for j, (jx, jz) in ((ih, (jxh, jzh)), (ik, (jxk, jzk))):
            tau = cfg.kp * (action[j - 3] - q[j]) - cfg.kd * qdot[j]
            hits["torque_saturated"] += abs(tau) > cfg.torque_limit
            if tau > cfg.torque_limit:
                tau = cfg.torque_limit
            elif tau < -cfg.torque_limit:
                tau = -cfg.torque_limit
            contact_load = jx * ft + jz * fn
            acc[j] = (tau - cfg.joint_damping * qdot[j] + contact_load) / cfg.joint_inertia
    acc[0] = fx_sum / m
    acc[1] = fz_sum / m - sim.GRAVITY
    acc[2] = torque_sum / cfg.base_inertia
    return acc


def _reference_step(state, action, terrain, cfg, hits):
    action = [float(a) for a in np.asarray(action, dtype=float)]
    q = [float(v) for v in state.q]
    qdot = [float(v) for v in state.qdot]
    h = cfg.control_dt / cfg.substeps
    for _ in range(cfg.substeps):
        a1 = _reference_accelerations(q, qdot, action, terrain, cfg, hits)
        v_half = [qdot[i] + 0.5 * h * a1[i] for i in range(7)]
        q = [q[i] + h * v_half[i] for i in range(7)]
        a2 = _reference_accelerations(q, v_half, action, terrain, cfg, hits)
        qdot = [v_half[i] + 0.5 * h * a2[i] for i in range(7)]

    q_arr = np.array(q)
    qdot_arr = np.array(qdot)
    phase = (state.phase + state.clock_rate * cfg.control_dt / cfg.cycle_duration) % 1.0
    if np.isfinite(q_arr).all() and np.isfinite(qdot_arr).all():
        left, right = sim._foot_states(q_arr, qdot_arr, cfg)
        contact_l = left[1] < terrain.height(left[0])
        contact_r = right[1] < terrain.height(right[0])
        support = terrain.height(q[0])
    else:
        hits["blowup"] += 1
        contact_l = contact_r = False
        support = state.support
    return sim.SimState(
        q=q_arr, qdot=qdot_arr, t=state.t + cfg.control_dt, phase=phase,
        clock_rate=state.clock_rate, contact_left=contact_l, contact_right=contact_r,
        support=support,
    )


def _outcome(step_fn, *args):
    try:
        s = step_fn(*args)
    except ValueError as exc:  # math.sin of an infinite angle
        return ("raised", str(exc))
    return (s.q.tobytes(), s.qdot.tobytes(), s.contact_left, s.contact_right,
            s.support, s.t, s.phase)


def _random_case(rng, terrain, kind):
    """A (state, action) pair; kind picks the regime the forces land in."""
    x = rng.uniform(-0.3, 2.6)
    ground = terrain.height(x)
    z = ground + CFG.nominal_height + rng.uniform(-0.03, 0.01)
    q = np.concatenate([[x, z, rng.uniform(-0.3, 0.3)], rng.uniform(-0.6, 0.6, 4)])
    qd = rng.normal(0.0, 0.5, 7)
    action = q[3:] + rng.uniform(-0.5, 0.5, 4)
    if kind == "airborne":
        q[1] += rng.uniform(0.1, 0.4)
    elif kind == "sliding":  # fast feet in contact: friction hits its cap
        qd[0] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 4.0)
    elif kind == "saturated":
        action = q[3:] + rng.choice([-1.0, 1.0], 4) * rng.uniform(1.2, 3.0, 4)
    elif kind == "wild":
        qd = rng.normal(0.0, 3.0, 7)
        action = rng.uniform(-2.0, 2.0, 4)
    elif kind == "resting":  # exact zeros, either sign: fixes the sign-of-zero paths
        q[1] = ground + CFG.nominal_height - CFG.settle_depth
        q[2:] = 0.0
        qd = rng.choice([0.0, -0.0], 7)
        action = np.zeros(4)
    elif kind == "folded":  # airborne, feet above the base
        q[1] += 1.0
        q[3] = q[5] = math.pi
        qd = rng.choice([0.0, -0.0], 7)
        action = q[3:].copy()
    elif kind == "non_finite":
        bad = (np.nan, np.inf, -np.inf)[rng.integers(3)]
        (q if rng.integers(2) else qd)[rng.integers(7)] = bad
    state = sim.SimState(
        q=q, qdot=qd, t=rng.uniform(0.0, 3.0), phase=rng.uniform(), clock_rate=1.0,
        contact_left=False, contact_right=False, support=ground,
    )
    return state, action


def test_step_matches_reference_bit_for_bit():
    from collections import Counter

    rng = np.random.default_rng(11)
    kinds = ("standing", "airborne", "sliding", "saturated", "wild", "resting", "folded",
             "non_finite")
    # Masses and inertias that are not powers of two, so that a division
    # replaced by a reciprocal multiplication changes the result.
    odd = sim.RobotConfig(base_mass=7.3, base_inertia=0.13, joint_inertia=0.047)
    hits = Counter()
    cases = 0
    for make_terrain in sim.TERRAIN_PRESETS.values():
        terrain = make_terrain()
        for i in range(240):
            state, action = _random_case(rng, terrain, kinds[i % len(kinds)])
            cfg = odd if (i // len(kinds)) % 2 else CFG
            want = _outcome(_reference_step, state, action, terrain, cfg, hits)
            if want[0] == "raised":
                # The reference raises on an infinite angle; step returns a blowup.
                hits["raised"] += 1
                got = sim.step(state, action, terrain, cfg)
                assert sim.termination(got, cfg) == sim.BLOWUP, (state, action, cfg)
                assert not (got.contact_left or got.contact_right)
                assert got.support == state.support
            else:
                got = _outcome(sim.step, state, action, terrain, cfg)
                assert got == want, (state, action, cfg)
            cases += 1
    assert cases >= 1000
    for regime in ("airborne_foot", "friction_capped", "torque_saturated", "blowup", "raised"):
        assert hits[regime] > 0, regime


def test_unilateral_contact_forces():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        pen = rng.uniform(-0.05, 0.05)
        vx, vz = rng.normal(size=2)
        fn, ft = sim.contact_force(pen, vx, vz, CFG)
        assert fn >= 0.0
        if pen <= 0.0:
            assert fn == 0.0 and ft == 0.0
        assert abs(ft) <= CFG.friction * fn + 1e-12


def test_contact_force_zero_above_terrain_in_flight():
    state = airborne_state()
    new = sim.step(state, np.zeros(4), FLAT, CFG)
    # no contact forces: x and pitch rates unchanged
    assert new.qdot[0] == 0.0 and new.qdot[2] == state.qdot[2]
    assert not new.contact_left and not new.contact_right


# --- observation ---------------------------------------------------------------


def test_observation_clock_values():
    state = sim.initial_state(CFG, FLAT)
    z = np.zeros(4)
    obs = sim.observe(state, z)
    assert obs[0] == pytest.approx(0.0, abs=1e-15)  # sin 0
    assert obs[1] == pytest.approx(1.0, abs=1e-15)  # cos 0
    state = sim.SimState(
        q=state.q, qdot=state.qdot, t=0.0, phase=0.25, clock_rate=1.0,
        contact_left=True, contact_right=True, support=0.0,
    )
    obs = sim.observe(state, z)
    assert obs[0] == pytest.approx(1.0, abs=1e-12)
    assert obs[1] == pytest.approx(0.0, abs=1e-12)


def test_observation_layout_and_translation_invariance():
    latent = np.array([0.1, -0.2, 0.3, 0.4])
    q = np.array([5.0, 0.9, 0.1, 0.2, -0.1, 0.05, -0.3])
    qd = np.arange(7, dtype=float) / 10.0
    terrain = sim.Terrain.block(start=4.0, length=2.0, height=0.4)
    state = sim.SimState(
        q=q, qdot=qd, t=1.0, phase=0.5, clock_rate=1.0,
        contact_left=True, contact_right=False, support=terrain.height(5.0),
    )
    obs = sim.observe(state, latent)
    assert obs.shape == (sim.observation_dim(4),) == (19,)
    np.testing.assert_array_equal(obs[2:6], latent)
    # support-relative height: standing on the 0.4 block at absolute 0.9
    assert obs[6] == pytest.approx(0.5, abs=1e-12)
    # shifting x (and the support lookup staying equal) changes nothing
    q2 = q.copy()
    q2[0] = -3.0
    state2 = sim.SimState(
        q=q2, qdot=qd, t=1.0, phase=0.5, clock_rate=1.0,
        contact_left=True, contact_right=False, support=0.4,
    )
    np.testing.assert_array_equal(obs, sim.observe(state2, latent))
    # joint angles and rates appear verbatim
    np.testing.assert_array_equal(obs[8:12], q[3:])
    np.testing.assert_array_equal(obs[15:19], qd[3:])


def test_observation_heading_velocity_in_base_frame():
    q = np.array([0.0, 0.5, 0.3, 0, 0, 0, 0])
    qd = np.array([1.0, 0.5, 0.0, 0, 0, 0, 0])
    state = sim.SimState(
        q=q, qdot=qd, t=0.0, phase=0.0, clock_rate=1.0,
        contact_left=False, contact_right=False, support=0.0,
    )
    obs = sim.observe(state, np.zeros(4))
    expected = math.cos(0.3) * 1.0 + math.sin(0.3) * 0.5
    assert obs[12] == pytest.approx(expected, abs=1e-12)
    assert obs[13] == pytest.approx(0.5, abs=1e-15)  # vertical rate stays world-frame


# --- reward ---------------------------------------------------------------------


def _state_at(x=0.0, z=0.5, pitch=0.0, cl=True, cr=True, support=0.0):
    q = np.array([x, z, pitch, 0, 0, 0, 0])
    return sim.SimState(
        q=q, qdot=np.zeros(7), t=0.0, phase=0.0, clock_rate=1.0,
        contact_left=cl, contact_right=cr, support=support,
    )


def test_reward_perfect_tracking():
    ref = sim.ReferencePoint(x=0.0, z=0.5, pitch=0.0, contact_left=1.0, contact_right=1.0)
    r, err = sim.reward(_state_at(), ref, sim.RewardConfig(weights=(0.5, 0.5, 0.0)))
    assert r == pytest.approx(1.0, abs=1e-12)
    assert err.position == (0.0, 0.0) and err.orientation == 0.0


def test_reward_position_error_hand_case():
    # |er_p| = 0.2 with k_p = 5: 0.5 e^-1 + 0.5
    ref = sim.ReferencePoint(x=0.2, z=0.5, pitch=0.0, contact_left=1.0, contact_right=1.0)
    r, _ = sim.reward(_state_at(), ref, sim.RewardConfig(weights=(0.5, 0.5, 0.0)))
    assert r == pytest.approx(0.5 * math.exp(-1.0) + 0.5, abs=1e-12)
    assert r == pytest.approx(0.6839397205857212, abs=1e-12)


def test_reward_contact_mismatch_hand_case():
    # both feet wrong with pi3 gains: 0.35 + 0.35 + 0.3 e^{-2 sqrt(2)}
    ref = sim.ReferencePoint(x=0.0, z=0.5, pitch=0.0, contact_left=0.0, contact_right=0.0)
    r, err = sim.reward(
        _state_at(cl=True, cr=True), ref, sim.RewardConfig(weights=(0.35, 0.35, 0.3))
    )
    assert err.contact == (1.0, 1.0)
    assert r == pytest.approx(0.7 + 0.3 * math.exp(-2.0 * math.sqrt(2.0)), abs=1e-12)
    assert r == pytest.approx(0.7177317239685869, abs=1e-12)


def test_reward_bounds_and_translation_equivariance():
    rng = np.random.default_rng(1)
    cfg = sim.RewardConfig(weights=(0.4, 0.4, 0.2))
    for _ in range(500):
        x, z, p = rng.normal(size=3)
        ref = sim.ReferencePoint(
            x=rng.normal(), z=0.5 + rng.normal() * 0.1, pitch=rng.normal() * 0.3,
            contact_left=float(rng.integers(2)), contact_right=float(rng.integers(2)),
        )
        state = _state_at(x=x, z=0.5 + z * 0.1, pitch=p * 0.3)
        r, _ = sim.reward(state, ref, cfg)
        assert 0.0 <= r <= cfg.max_step_reward + 1e-12
        shift = rng.normal() * 10.0
        shifted_state = _state_at(x=x + shift, z=0.5 + z * 0.1, pitch=p * 0.3)
        shifted_ref = sim.ReferencePoint(
            x=ref.x + shift, z=ref.z, pitch=ref.pitch,
            contact_left=ref.contact_left, contact_right=ref.contact_right,
        )
        r2, _ = sim.reward(shifted_state, shifted_ref, cfg)
        assert r2 == pytest.approx(r, abs=1e-9)


# --- reference tracking -----------------------------------------------------------


def test_reference_idle_constant():
    lib = rm.builtin_library("pi2")
    idle = lib.motions[lib.index_of("idle")]
    for phase in (0.0, 0.3, 0.77):
        ref = sim.reference_at(idle, phase, entry_x=2.0)
        assert ref.x == pytest.approx(2.0, abs=1e-15)
        assert ref.z == pytest.approx(0.5, abs=1e-15)


def test_reference_walk_midpoint():
    lib = rm.builtin_library("pi2")
    walk = lib.motions[lib.index_of("walk_f")]
    assert walk.displacement == pytest.approx(0.5, abs=1e-12)
    ref = sim.reference_at(walk, 0.5, entry_x=1.0)
    assert ref.x == pytest.approx(1.25, abs=1e-12)


def test_reference_accumulates_over_clips():
    lib = rm.builtin_library("pi2")
    walk = lib.motions[lib.index_of("walk_f")]
    ref = sim.reference_at(walk, 0.5, entry_x=1.0, clips_completed=2)
    assert ref.x == pytest.approx(1.0 + 2 * 0.5 + 0.25, abs=1e-12)


def test_transient_holds_final_sample_after_clip():
    lib = rm.builtin_library("pi2")
    launch = lib.motions[lib.index_of("launch")]
    end = sim.reference_at(launch, 0.0, entry_x=0.0, clips_completed=1)
    again = sim.reference_at(launch, 0.6, entry_x=0.0, clips_completed=3)
    assert end == again
    assert end.x == pytest.approx(launch.displacement, abs=1e-12)
    assert end.z == pytest.approx(launch.samples[-1, 1], abs=1e-12)


def test_tracker_anchoring_matches_rebase():
    lib = rm.builtin_library("pi2")
    walk = lib.motions[lib.index_of("walk_f")]
    tracker = sim.ModeTracker(walk, anchor_x=3.0, anchor_phase=0.5)
    assert tracker.at(0.5).x == pytest.approx(3.0, abs=1e-12)
    assert tracker.at(0.7).x == pytest.approx(3.0 + 0.1, abs=1e-12)
    # continuity across the wrap
    just_before = tracker.at(0.999999)
    just_after = tracker.at(0.0, clips_completed=1)
    assert just_after.x == pytest.approx(just_before.x, abs=1e-4)


# --- termination ------------------------------------------------------------------


def test_termination_running_fallen_blowup():
    assert sim.termination(sim.initial_state(CFG, FLAT), CFG) == sim.RUNNING
    low = _state_at(z=0.1)
    assert sim.termination(low, CFG) == sim.FALLEN
    tipped = _state_at(pitch=1.5)
    assert sim.termination(tipped, CFG) == sim.FALLEN
    bad = sim.SimState(
        q=np.zeros(7), qdot=np.full(7, np.nan), t=0.0, phase=0.0, clock_rate=1.0,
        contact_left=False, contact_right=False, support=0.0,
    )
    assert sim.termination(bad, CFG) == sim.BLOWUP


# --- terrain ----------------------------------------------------------------------


def test_terrain_shapes():
    gap = sim.Terrain.gap(0.8, 0.45)
    assert gap.height(0.0) == 0.0
    assert gap.height(0.9) == -1.0
    assert gap.height(1.3) == 0.0
    plateau = sim.Terrain.plateau(0.8, 0.5, 0.2)
    assert plateau.height(1.0) == 0.2
    block = sim.Terrain.block(1.0, 0.6, 0.4)
    assert block.height(1.2) == 0.4
    combo = sim.Terrain.gap_and_block()
    assert combo.height(0.7) == -1.0
    assert combo.height(1.5) == 0.4
    assert combo.height(2.5) == 0.0


def test_terrain_roundtrip(tmp_path):
    from modeloco.fileio import read_artifact, write_artifact

    t = sim.Terrain.gap_and_block()
    path = tmp_path / "terrain.json"
    write_artifact(path, "terrain", t.to_payload())
    back = sim.Terrain.from_payload(read_artifact(path, "terrain"))
    for x in np.linspace(-1, 3, 101):
        assert back.height(float(x)) == t.height(float(x))


def test_gap_is_fallen_when_descended_into():
    gap = sim.Terrain.gap(0.8, 0.45)
    state = _state_at(x=1.0, z=0.2, support=gap.height(1.0))
    # height above the -1 m floor is 1.2 > threshold, still "running"
    assert sim.termination(state, CFG) == sim.RUNNING
    deep = _state_at(x=1.0, z=-0.9, support=gap.height(1.0))
    assert sim.termination(deep, CFG) == sim.FALLEN
