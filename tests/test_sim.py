import ctypes
import functools
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from modeloco import refmotion as rm
from modeloco import sim
from modeloco.sim import (
    BLOWUP,
    CLOCK_DIM,
    CLOCK_RATE,
    CONTACT_LEFT,
    CONTACT_RIGHT,
    FALLEN,
    PHASE,
    PITCH,
    PROPRIO_DIM,
    Q,
    QDOT,
    RUNNING,
    SUPPORT,
    TIME,
    Z,
    RobotConfig,
)


CFG = sim.RobotConfig()
FLAT = sim.Terrain.flat()


def state_row(q, qdot=None, t=0.0, phase=0.0, clock_rate=1.0, contact_left=False,
              contact_right=False, support=0.0):
    """A state row from its fields; qdot defaults to rest."""
    qdot = np.zeros(7) if qdot is None else qdot
    return np.concatenate([q, qdot, [t, phase, clock_rate, contact_left, contact_right, support]])


def roots(n):
    """The parents and start steps of n root rows: -1 and 0."""
    return np.full(n, -1), np.zeros(n, dtype=np.int64)


@functools.cache
def kernel_harness():
    """The kernel, built once per session as sim builds it, with entries that
    reach its static functions: harness_start, harness_lockstep,
    harness_mean and harness_observe call sim_start, sim_lockstep,
    policy_mean and observe_row, and hypot_of runs python_hypot over two
    arrays. While its harness_fail_alloc is nonzero, its allocations fail."""
    with tempfile.TemporaryDirectory() as tmp:
        harness = Path(tmp) / "harness.c"
        harness.write_text(
            "#include <stdint.h>\n#include <stdlib.h>\n"
            "int64_t harness_fail_alloc;\n"
            "static void *harness_malloc(size_t n)\n"
            "{\n    return harness_fail_alloc ? NULL : malloc(n);\n}\n"
            "#define malloc harness_malloc\n"
            f'#include "{sim._KERNEL_SOURCE}"\n'
            "int64_t harness_start(const struct batch *b, int64_t *live, double *obs)\n"
            "{\n    return sim_start(b, live, obs);\n}\n"
            "int64_t harness_lockstep(const struct batch *b, int64_t *live, double *obs,\n"
            "                         const double *means, int64_t m, int64_t t)\n"
            "{\n    return sim_lockstep(b, live, obs, means, m, t);\n}\n"
            "void harness_mean(const struct policy *p, double *work, int64_t widest, int64_t m,\n"
            "                  const double *obs, double *out)\n"
            "{\n    policy_mean(p, work, widest, m, obs, out);\n}\n"
            "void harness_observe(const double *s, const double *latent, int64_t latent_dim,\n"
            "                     double *obs)\n"
            "{\n    observe_row(s, latent, latent_dim, obs);\n}\n"
            "void hypot_of(int64_t n, const double *x, const double *y, double *out)\n"
            "{\n    for (int64_t k = 0; k < n; k++)\n"
            "        out[k] = python_hypot(x[k], y[k]);\n}\n"
        )
        kernel = sim._build_kernel(harness)
    pointer, count = ctypes.c_void_p, ctypes.c_int64
    for name, argtypes, restype in (
        ("harness_start", [pointer, pointer, pointer], count),
        ("harness_lockstep", [pointer, pointer, pointer, pointer, count, count], count),
        ("harness_mean", [pointer, pointer, count, count, pointer, pointer], None),
        ("harness_observe", [pointer, pointer, count, pointer], None),
        ("hypot_of", [count, pointer, pointer, pointer], None),
    ):
        getattr(kernel, name).argtypes, getattr(kernel, name).restype = argtypes, restype
    return kernel


def observe(row, latent):
    """The kernel's observation of state row `row` under `latent`, through
    its observe_row."""
    row, latent = (np.ascontiguousarray(a, dtype=float) for a in (row, latent))
    obs = np.empty(sim.observation_dim(latent.size))
    kernel_harness().harness_observe(row.ctypes.data, latent.ctypes.data, latent.size,
                                     obs.ctypes.data)
    return obs


def drive(batch, means_of):
    """Step a lockstep batch to its end one control step at a time, through
    the kernel's own sim_start and sim_lockstep: at each step the live rows
    act on means_of(their observations), a (live, NUM_JOINTS) array. Returns
    the batch."""
    kernel, rows = kernel_harness(), batch.history.shape[1]
    live = np.empty(rows, dtype=np.int64)
    obs = np.empty((rows, sim.observation_dim(batch._batch.latent_dim)))
    means = np.empty((rows, sim.NUM_JOINTS))
    args = (ctypes.addressof(batch._batch), live.ctypes.data, obs.ctypes.data)
    t, m = 0, kernel.harness_start(*args)
    while m:
        means[:m] = means_of(obs[:m])
        m = kernel.harness_lockstep(*args, means.ctypes.data, m, t)
        t += 1
    return batch


def step_row(row, action, terrain, cfg):
    """One control step of state row `row` under the PD targets `action`, as a
    one-row `sim.Lockstep` batch. Returns the new row and its status."""
    batch = sim.Lockstep(np.array(row, dtype=float, ndmin=2), np.zeros((1, 0)), [1], None,
                         terrain, cfg, *roots(1))
    drive(batch, lambda obs: action)
    return batch.history[1, 0], sim.STATUSES[batch.status[0]]


def airborne_state(qdot=None):
    return state_row([0.0, 2.0, 0.05, 0.0, 0.0, 0.0, 0.0], qdot)


def test_robot_stands_at_the_reference_height():
    # Reference clips sketch the base at NOMINAL_HEIGHT; the robot's straight-leg
    # height must be the same number, since rewards compare the two directly.
    assert CFG.nominal_height == rm.NOMINAL_HEIGHT


# --- reference forces and energy -----------------------------------------------
#
# The kernel writes these terms out inline; the tests keep them as plain functions.


def _pd_torque(action, joint_q, joint_qdot, cfg):
    """Joint torques from position targets; clipped at the actuator limit.

    No angle limits are applied to the targets; they are set points, not
    strict position commands.
    """
    tau = cfg.kp * (np.asarray(action, dtype=float) - np.asarray(joint_q, dtype=float))
    tau = tau - cfg.kd * np.asarray(joint_qdot, dtype=float)
    return np.clip(tau, -cfg.torque_limit, cfg.torque_limit)


def _contact_force(penetration, foot_vx, foot_vz, cfg):
    """Unilateral spring-damper normal force and Coulomb-capped tangential drag."""
    if penetration <= 0.0:
        return 0.0, 0.0
    fn = cfg.contact_stiffness * penetration - cfg.contact_damping * foot_vz
    if fn <= 0.0:
        return 0.0, 0.0
    cap = cfg.friction * fn
    ft = -cfg.contact_damping * foot_vx
    if ft > cap:
        ft = cap
    elif ft < -cap:
        ft = -cap
    return fn, ft


def _base_energy(row, cfg):
    """Kinetic plus gravitational energy of the base body alone."""
    vx, vz, vp = row[QDOT], row[QDOT + 1], row[QDOT + 2]
    return float(
        0.5 * cfg.base_mass * (vx * vx + vz * vz)
        + 0.5 * cfg.base_inertia * vp * vp
        + cfg.base_mass * sim.GRAVITY * row[Z]
    )


# --- PD torque ---------------------------------------------------------------


def test_pd_torque_hand_case():
    tau = _pd_torque(np.full(4, 0.5), np.full(4, 0.2), np.full(4, 1.0), CFG)
    np.testing.assert_allclose(tau, 8.5, atol=1e-12)


def test_pd_torque_equilibrium():
    q = np.array([0.1, -0.2, 0.3, 0.0])
    tau = _pd_torque(q, q, np.zeros(4), CFG)
    np.testing.assert_allclose(tau, 0.0, atol=1e-15)


def test_pd_torque_clips_at_limit():
    tau = _pd_torque(np.full(4, 2.0), np.zeros(4), np.zeros(4), CFG)
    np.testing.assert_allclose(tau, 30.0, atol=1e-12)
    tau = _pd_torque(np.full(4, -2.0), np.zeros(4), np.zeros(4), CFG)
    np.testing.assert_allclose(tau, -30.0, atol=1e-12)


def test_pd_torque_no_angle_limits():
    # targets far outside any plausible joint range are accepted as-is
    tau = _pd_torque(np.full(4, 9.0), np.full(4, 8.9), np.zeros(4), CFG)
    np.testing.assert_allclose(tau, 3.0, atol=1e-12)


# --- stepping ----------------------------------------------------------------


def test_ballistic_arc():
    row = airborne_state([1.0, 0.5, 0.3, 0, 0, 0, 0])
    for _ in range(10):
        new, _ = step_row(row, np.zeros(4), FLAT, CFG)
        assert abs((row[QDOT + 1] - new[QDOT + 1]) - sim.GRAVITY * CFG.control_dt) < 1e-9
        assert abs(new[QDOT] - row[QDOT]) < 1e-12
        assert abs(new[QDOT + 2] - row[QDOT + 2]) < 1e-12
        row = new


def test_ballistic_energy_conservation():
    row = airborne_state([1.2, 0.8, 0.5, 0, 0, 0, 0])
    e0 = _base_energy(row, CFG)
    steps = 25
    for _ in range(steps):
        row, _ = step_row(row, np.zeros(4), FLAT, CFG)
    drift_per_substep = abs(_base_energy(row, CFG) - e0) / (steps * CFG.substeps)
    assert drift_per_substep < 1e-6


def test_static_stand_settles_to_spring_compression():
    row = sim.initial_state(CFG, FLAT)
    row[Z] += CFG.settle_depth  # straight legs with uncompressed contact springs
    for _ in range(100):
        row, _ = step_row(row, np.zeros(4), FLAT, CFG)
    expected = CFG.nominal_height - CFG.settle_depth
    assert abs(row[Z] - expected) < 1e-3


def test_static_stand_drift_from_equilibrium():
    row = sim.initial_state(CFG, FLAT)
    z0 = row[Z]
    for _ in range(100):
        row, _ = step_row(row, np.zeros(4), FLAT, CFG)
        assert abs(row[Z] - z0) < 1e-3


def test_double_clock_rate_completes_two_cycles():
    row = sim.initial_state(CFG, FLAT, clock_rate=2.0)
    wraps = 0
    prev = row[PHASE]
    steps_per_cycle = round(CFG.cycle_duration / CFG.control_dt)
    for _ in range(steps_per_cycle):
        row, _ = step_row(row, np.zeros(4), FLAT, CFG)
        if row[PHASE] < prev:
            wraps += 1
        prev = row[PHASE]
    assert wraps == 2


def test_step_determinism_bit_identical():
    row = airborne_state([0.3, -0.2, 0.1, 0.5, -0.5, 0.2, -0.2])
    action = np.array([0.1, -0.3, 0.2, 0.4])
    a, _ = step_row(row, action, FLAT, CFG)
    b, _ = step_row(row, action, FLAT, CFG)
    assert a.tobytes() == b.tobytes()


# --- reference step ------------------------------------------------------------
#
# The plain-loop form of the physics: forces through _foot_states and
# _contact_force, lists for the state. The kernel runs the same arithmetic in
# the same order, once per leg through its leg routine (leg_terms after each
# drift, leg_forces at each evaluation), and must match it byte for byte.


def _foot_states(q: np.ndarray, qdot: np.ndarray, cfg: RobotConfig):
    """Positions, velocities, and Jacobian rows of both feet.

    Returns per-leg tuples (fx, fz, vx, vz, jxh, jzh, jxk, jzk, jxp, jzp)
    where j?h, j?k, j?p are partials wrt hip, knee, and pitch.
    """
    x, z, pitch = q[0], q[1], q[2]
    vx, vz, vp = qdot[0], qdot[1], qdot[2]
    d, l1, l2 = cfg.hip_offset, cfg.thigh_length, cfg.shank_length
    out = []
    for hip, knee, dhip, dknee in (
        (q[3], q[4], qdot[3], qdot[4]),
        (q[5], q[6], qdot[5], qdot[6]),
    ):
        a1 = pitch + hip
        a2 = a1 + knee
        s0, c0 = math.sin(pitch), math.cos(pitch)
        s1, c1 = math.sin(a1), math.cos(a1)
        s2, c2 = math.sin(a2), math.cos(a2)
        fx = x + d * s0 + l1 * s1 + l2 * s2
        fz = z - d * c0 - l1 * c1 - l2 * c2
        jxp = d * c0 + l1 * c1 + l2 * c2
        jzp = d * s0 + l1 * s1 + l2 * s2
        jxh = l1 * c1 + l2 * c2
        jzh = l1 * s1 + l2 * s2
        jxk = l2 * c2
        jzk = l2 * s2
        fvx = vx + jxp * vp + jxh * dhip + jxk * dknee
        fvz = vz + jzp * vp + jzh * dhip + jzk * dknee
        out.append((fx, fz, fvx, fvz, jxh, jzh, jxk, jzk, jxp, jzp))
    return out


def _reference_accelerations(q, qdot, action, terrain, cfg, hits):
    m = cfg.base_mass
    fx_sum = 0.0
    fz_sum = 0.0
    torque_sum = 0.0
    acc = [0.0] * 7
    feet = _foot_states(q, qdot, cfg)
    for leg, (fx, fz, fvx, fvz, jxh, jzh, jxk, jzk, _, _) in enumerate(feet):
        pen = terrain.height(fx) - fz
        fn, ft = _contact_force(pen, fvx, fvz, cfg)
        hits["airborne_foot"] += pen <= 0.0
        hits["nan_penetration"] += math.isnan(pen)
        hits["released_contact"] += pen > 0.0 and fn == 0.0
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


def _reference_step(row, action, terrain, cfg, hits):
    state = row.tolist()
    action = [float(a) for a in np.asarray(action, dtype=float)]
    q = state[Q:QDOT]
    qdot = state[QDOT:TIME]
    h = cfg.control_dt / cfg.substeps
    for _ in range(cfg.substeps):
        a1 = _reference_accelerations(q, qdot, action, terrain, cfg, hits)
        v_half = [qdot[i] + 0.5 * h * a1[i] for i in range(7)]
        q = [q[i] + h * v_half[i] for i in range(7)]
        a2 = _reference_accelerations(q, v_half, action, terrain, cfg, hits)
        qdot = [v_half[i] + 0.5 * h * a2[i] for i in range(7)]

    q_arr = np.array(q)
    qdot_arr = np.array(qdot)
    phase = (state[PHASE] + state[CLOCK_RATE] * cfg.control_dt / cfg.cycle_duration) % 1.0
    if np.isfinite(q_arr).all() and np.isfinite(qdot_arr).all():
        left, right = _foot_states(q_arr, qdot_arr, cfg)
        contact_l = left[1] < terrain.height(left[0])
        contact_r = right[1] < terrain.height(right[0])
        support = terrain.height(q[0])
    else:
        hits["blowup"] += 1
        contact_l = contact_r = False
        support = state[SUPPORT]
    return state_row(
        q_arr, qdot_arr, t=state[TIME] + cfg.control_dt, phase=phase,
        clock_rate=state[CLOCK_RATE], contact_left=contact_l, contact_right=contact_r,
        support=support,
    )


def _reference_initial_state(cfg, terrain, clock_rate):
    """The standing row with both feet placed by _foot_states, each in contact
    where it lies below the ground under it."""
    ground = terrain.height(0.0)
    q = np.zeros(7)
    q[1] = ground + cfg.nominal_height - cfg.settle_depth
    left, right = _foot_states(q, np.zeros(7), cfg)
    return state_row(q, clock_rate=clock_rate,
                     contact_left=left[1] < terrain.height(left[0]),
                     contact_right=right[1] < terrain.height(right[0]), support=ground)


@pytest.mark.parametrize("cfg", [
    CFG,
    # Odd leg lengths, and a stiff spring whose settle depth of about 1e-6 m
    # leaves the feet within a few roundings of the ground.
    RobotConfig(hip_offset=0.0537, thigh_length=0.2113, shank_length=0.1931,
                contact_stiffness=3.3e7),
    # A settle depth of about 4e-17 m, below the rounding of the base height:
    # each foot's contact turns on how its height rounds (here, it misses the
    # gap floor alone), so a regrouped subtraction or a <= shows.
    RobotConfig(hip_offset=0.1682, thigh_length=0.2866, shank_length=0.0689,
                contact_stiffness=1e18),
], ids=["default", "odd-stiff", "settle-below-rounding"])
@pytest.mark.parametrize("terrain", [
    FLAT,
    sim.Terrain([(-0.4, 0.137), (0.3, 0.0)]),
    sim.Terrain([(0.0, -0.21)]),
    sim.Terrain.gap(0.0),
], ids=["flat", "raised", "step-down-at-0", "gap-at-0"])
def test_initial_state_equals_the_reference_standing_row(terrain, cfg):
    want = _reference_initial_state(cfg, terrain, 0.7)
    assert sim.initial_state(cfg, terrain, clock_rate=0.7).tobytes() == want.tobytes()


def _reference_bytes(row, action, terrain, cfg, hits):
    """The bytes of the reference step's new row; None where math.sin rejects
    an infinite angle."""
    try:
        return _reference_step(row, action, terrain, cfg, hits).tobytes()
    except ValueError:
        return None


def _random_case(rng, terrain, kind):
    """A (state row, action) pair; kind picks the regime the forces land in."""
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
    row = state_row(q, qd, t=rng.uniform(0.0, 3.0), phase=rng.uniform(), support=ground)
    return row, action


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
            row, action = _random_case(rng, terrain, kinds[i % len(kinds)])
            cfg = odd if (i // len(kinds)) % 2 else CFG
            want = _reference_bytes(row, action, terrain, cfg, hits)
            got, status = step_row(row, action, terrain, cfg)
            if want is None:
                # The reference raises on an infinite angle; the kernel steps to a blowup.
                hits["raised"] += 1
                assert status == sim.BLOWUP, (row, action, cfg)
                assert not (got[CONTACT_LEFT] or got[CONTACT_RIGHT])
                assert got[SUPPORT] == row[SUPPORT]
            else:
                assert got.tobytes() == want, (row, action, cfg)
                assert status == _reference_termination(got, cfg), (row, action, cfg)
            cases += 1
    assert cases >= 1000
    for regime in ("airborne_foot", "nan_penetration", "released_contact", "friction_capped",
                   "torque_saturated", "blowup", "raised"):
        assert hits[regime] > 0, regime


# --- reference observation and termination ---------------------------------------
#
# The Python forms of the observation and the termination status. The
# kernel's observations and statuses, which every lockstep episode uses, must
# match them byte for byte. The kernel sets a status as it steps to a state,
# so statuses are checked on stepped rows.


def _all_finite(values: list[float]) -> bool:
    """math.isfinite of every entry: no sum that could overflow."""
    return all(map(math.isfinite, values))


def _reference_termination(row: np.ndarray, cfg: RobotConfig) -> str:
    state = row.tolist()
    if not _all_finite(state[Q:TIME]):
        return BLOWUP
    if state[Z] - state[SUPPORT] < 0.3 * cfg.nominal_height:
        return FALLEN
    if abs(state[PITCH]) > 1.0:
        return FALLEN
    return RUNNING


def _reference_observe(row: np.ndarray, latent: np.ndarray) -> np.ndarray:
    """Policy observation [clock, latent command, proprioception].

    The base x never appears: height is support-relative and the linear
    velocity is expressed in the base frame, so the observation is invariant
    to horizontal translation.
    """
    latent = np.asarray(latent, dtype=float)
    state = row.tolist()
    angle = 2.0 * math.pi * state[PHASE]
    pitch = state[PITCH]
    c, s = math.cos(pitch), math.sin(pitch)
    vx, vz = state[QDOT], state[QDOT + 1]
    heading_vel = c * vx + s * vz
    obs = np.empty(CLOCK_DIM + latent.shape[0] + PROPRIO_DIM)
    obs[0] = math.sin(angle)
    obs[1] = math.cos(angle)
    obs[2 : 2 + latent.shape[0]] = latent
    at = 2 + latent.shape[0]
    obs[at] = state[Z] - state[SUPPORT]
    obs[at + 1] = pitch
    obs[at + 2 : at + 6] = row[Q + 3 : QDOT]
    obs[at + 6] = heading_vel
    obs[at + 7] = vz
    obs[at + 8] = state[QDOT + 2]
    obs[at + 9 : at + 13] = row[QDOT + 3 : TIME]
    return obs


def _non_finite_variants(row, rng):
    """The row with a NaN or infinite phase, support, time, pitch or rate."""
    bad = (np.nan, np.inf, -np.inf)
    for index in (PHASE, SUPPORT, TIME, PITCH, QDOT, QDOT + 1):
        variant = row.copy()
        variant[index] = bad[rng.integers(3)]
        yield variant


def test_observe_and_termination_match_reference_bit_for_bit():
    from collections import Counter

    rng = np.random.default_rng(12)
    kinds = ("standing", "airborne", "sliding", "saturated", "wild", "resting", "folded",
             "non_finite")
    odd = sim.RobotConfig(base_mass=7.3, base_inertia=0.13, joint_inertia=0.047,
                          cycle_duration=1.3)
    hits, statuses = Counter(), Counter()
    for make_terrain in sim.TERRAIN_PRESETS.values():
        terrain = make_terrain()
        for i in range(120):
            row, action = _random_case(rng, terrain, kinds[i % len(kinds)])
            cfg = odd if (i // len(kinds)) % 2 else CFG
            if i % 3 == 0:  # a negative clock: the phase wraps below 0
                row[CLOCK_RATE], row[PHASE] = -0.7, rng.uniform(0.0, 0.03)
            want = _reference_bytes(row, action, terrain, cfg, hits)
            stepped, _ = step_row(row, action, terrain, cfg)
            if want is not None:
                assert stepped.tobytes() == want
                hits["wrapped"] += row[CLOCK_RATE] < 0 and stepped[PHASE] > row[PHASE]
            for s in (row, stepped, *_non_finite_variants(row, rng)):
                latent = rng.normal(size=4)
                after, status = step_row(s, action, terrain, cfg)
                statuses[status] += 1
                assert status == _reference_termination(after, cfg), after
                got = observe(s, latent)
                try:
                    expected = _reference_observe(s, latent)
                except ValueError:  # math.sin or math.cos of an infinite angle
                    hits["observe_raised"] += 1
                    nan = ([0, 1] if math.isinf(s[PHASE]) else []) + (
                        [12] if math.isinf(s[PITCH]) else [])
                    assert nan and np.isnan(got[nan]).all(), s
                    continue
                assert got.tobytes() == expected.tobytes(), s
    assert hits["wrapped"] > 0 and hits["observe_raised"] > 0
    assert set(statuses) == {sim.RUNNING, sim.FALLEN, sim.BLOWUP}


@pytest.mark.parametrize("p, hl, kr", [(math.inf, 0.0, 0.0), (1e308, 1e308, 0.0),
                                       (0.0, 0.0, -math.inf)])
def test_infinite_angle_ends_the_step_with_a_nan_pitch(p, hl, kr):
    # math.sin cannot take the pitch, a hip angle or a knee angle here; the
    # step stops before the first kick, with every value but the pitch as it stood.
    q = np.array([0.1, 2.0, p, hl, 0.2, -0.1, kr])
    qd = np.array([0.3, -0.2, 0.1, 0.5, -0.5, 0.2, -0.2])
    new, status = step_row(state_row(q, qd), np.zeros(4), FLAT, CFG)
    assert math.isnan(new[PITCH])
    assert np.delete(new[Q:QDOT], 2).tobytes() == np.delete(q, 2).tobytes()
    assert new[QDOT:TIME].tobytes() == qd.tobytes()
    assert status == sim.BLOWUP


def _drive(batch):
    """Step a lockstep batch to its end on means read off its observations,
    element by element: the latent, plus a tenth of the joint rates."""
    return drive(batch, lambda obs: 0.4 * obs[:, CLOCK_DIM:CLOCK_DIM + 4] + 0.1 * obs[:, -4:])


def _chained(starts, latents, then, budgets, switches, noise):
    """A batch with a mode schedule as two chained `Lockstep`s: every row up
    to its switch step under latents, then the rows still running there with
    steps left, from their state at it, under then. Returns each row's
    states, the lengths and the status codes."""
    first = _drive(sim.Lockstep(starts, latents, np.minimum(budgets, switches), noise, FLAT,
                                CFG, *roots(len(budgets))))
    on = [b for b in range(len(budgets)) if sim.STATUSES[first.status[b]] == RUNNING
          and first.lengths[b] == switches[b] < budgets[b]]
    rest = budgets[on] - switches[on]
    later = np.zeros((len(on), rest.max(initial=0), 4))
    for k, b in enumerate(on):
        later[k, : rest[k]] = noise[b, switches[b] : budgets[b]]
    second = _drive(sim.Lockstep(first.history[switches[on], on], then[on], rest, later, FLAT,
                                 CFG, *roots(len(on))))
    rows = [first.rows(b) for b in range(len(budgets))]
    lengths, status = first.lengths.copy(), first.status.copy()
    for k, b in enumerate(on):
        rows[b] = np.concatenate([rows[b][:-1], second.rows(k)])
        lengths[b], status[b] = switches[b] + second.lengths[k], second.status[k]
    return rows, lengths, status


def _spinning_fall():
    """An airborne start row that pitches at a constant rate whatever the legs
    do (they are decoupled from it), and the step on which it falls."""
    spinning = airborne_state(np.array([0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0]))
    fall = sim.Lockstep(spinning[None], np.zeros((1, 4)), [30], None, FLAT, CFG, *roots(1))
    return spinning, int(_drive(fall).lengths[0])


def test_a_switching_lockstep_row_equals_two_chained_batches():
    # An episode that switches its latent is a trunk row plus a continuation
    # row from the trunk's state at the switch step, in one batch.
    rng = np.random.default_rng(5)
    standing = sim.initial_state(CFG, FLAT)
    spinning, fall = _spinning_fall()
    budgets = np.array([12, 12, 12, 12, 30, 30, 30, 0])
    # Switch at 0, mid-episode, at the budget and past it; then rows that fall
    # before, at and after their switch; and a row with no steps.
    switches = np.array([0, 5, 12, 20, fall + 3, fall, fall - 3, 0])
    starts = np.array([standing] * 4 + [spinning] * 3 + [standing])
    latents, then = rng.uniform(-0.5, 0.5, size=(2, len(budgets), 4))
    noise = rng.normal(0.0, 0.05, size=(len(budgets), 30, 4))

    n = len(budgets)
    # Episode b's continuation is row n + k for b = on[k], the episodes with
    # steps left after their switch.
    on = np.flatnonzero(budgets > switches)
    got = _drive(sim.Lockstep(
        np.concatenate([starts, starts[on]]), np.concatenate([latents, then[on]]),
        np.concatenate([np.minimum(budgets, switches), budgets[on] - switches[on]]),
        np.concatenate([noise, noise[on]]), FLAT, CFG,
        parents=np.concatenate([np.full(n, -1), on]),
        starts=np.concatenate([np.zeros(n, dtype=int), switches[on]]),
    ))
    rows, lengths, status = _chained(starts, latents, then, budgets, switches, noise)
    continuation = dict(zip(on.tolist(), range(n, n + len(on))))
    for b in range(n):
        c = continuation.get(b)
        last = c if c is not None and got.lengths[c] else b  # the row the episode ends on
        episode = got.rows(b) if last == b else np.concatenate([got.rows(b)[:-1], got.rows(last)])
        assert episode.tobytes() == rows[b].tobytes(), b
        assert (len(episode) - 1, got.status[last]) == (lengths[b], status[b]), b
    assert [sim.STATUSES[c] for c in status] == [RUNNING] * 4 + [FALLEN] * 3 + [RUNNING]
    assert lengths.tolist() == [12] * 4 + [fall] * 3 + [0]
    # The latent switches: a row that switches at 0 differs from its unswitched run.
    plain = _drive(sim.Lockstep(starts, latents, budgets, noise, FLAT, CFG, *roots(n)))
    assert rows[0].tobytes() != plain.rows(0).tobytes()
    # The trunks step as they do in a batch without continuation rows.
    trunks = _drive(sim.Lockstep(starts, latents, np.minimum(budgets, switches), noise, FLAT,
                                 CFG, *roots(n)))
    for b in range(n):
        assert trunks.rows(b).tobytes() == got.rows(b).tobytes(), b
        assert (trunks.lengths[b], trunks.status[b]) == (got.lengths[b], got.status[b])


def test_a_continuation_row_equals_a_row_started_from_its_parents_state():
    rng = np.random.default_rng(9)
    standing = sim.initial_state(CFG, FLAT)
    spinning, fall = _spinning_fall()
    # (parent, start step, budget) of each row; -1 is a row started at 0 from
    # its start row.
    rows = [
        (-1, 0, 12),          # 0: a standing root
        (-1, 0, 30),          # 1: a spinning root, which falls
        (0, 0, 10),           # 2: continues 0 from step 0
        (0, 8, 5),            # 3: continues 0 mid-run
        (3, 13, 6),           # 4: continues 3, a continuation itself
        (1, fall - 2, 5),     # 5: continues 1 just before its fall
        (1, fall, 5),         # 6: never runs: 1 falls at its start
        (1, fall + 2, 5),     # 7: never runs: 1 fell before its start
        (0, 12, 4),           # 8: continues 0 at its last step, still running
        (0, 13, 4),           # 9: never runs: 0 ran out of steps before its start
        (6, fall + 1, 3),     # 10: never runs: its parent never ran
    ]
    parents, starts, budgets = (np.array(c) for c in zip(*rows))
    start_rows = np.array([standing, spinning] + [standing] * (len(rows) - 2))
    latents = rng.uniform(-0.5, 0.5, size=(len(rows), 4))
    noise = rng.normal(0.0, 0.05, size=(len(rows), 40, 4))

    def run(order):
        """The batch of the rows in `order`, which puts each parent first; the
        run of each, in ascending row order."""
        at = {k: i for i, k in enumerate(order)}
        batch = _drive(sim.Lockstep(
            start_rows[order], latents[order], budgets[order], noise[order], FLAT, CFG,
            parents=[at.get(p, -1) for p in parents[order]], starts=starts[order],
        ))
        return [(batch.rows(at[k]), batch.lengths[at[k]], batch.status[at[k]])
                for k in sorted(order)]

    got = run(list(range(len(rows))))
    ran = [k for k, (_, n, _) in enumerate(got) if n]
    assert ran == [0, 1, 2, 3, 4, 5, 8]
    assert (got[0][1], got[1][1], got[5][1]) == (12, fall, 2)
    for k in (6, 7, 9, 10):  # never started, so no states
        assert got[k][1:] == (0, sim.STATUSES.index(RUNNING)), k
        assert got[k][0].shape == (0, sim.ROW), k
    for k, (states, n, status) in enumerate(got):
        if k in ran:
            parent, start = parents[k], starts[k]
            first = start_rows[k] if parent < 0 else got[parent][0][start - starts[parent]]
            alone = _drive(sim.Lockstep(
                first[None].copy(), latents[k][None], [budgets[k]],
                noise[k][None, start:].copy(), FLAT, CFG, *roots(1),
            ))
            assert states.tobytes() == alone.rows(0).tobytes(), k
            assert (n, status) == (alone.lengths[0], alone.status[0]), k
    # Neither the rows' order nor the other rows in the batch change a row.
    for order in ([1, 0, 5, 6, 7, 10, 9, 8, 3, 4, 2], [1, 5, 6, 10, 7]):
        for k, (states, n, status) in zip(sorted(order), run(order)):
            assert (n, status) == got[k][1:], (order, k)
            assert states.tobytes() == got[k][0].tobytes(), (order, k)
    # A row with a parent takes at least one step: one with none is refused.
    with pytest.raises(ValueError, match="budget of at least 1"):
        sim.Lockstep(start_rows[:3], latents[:3], [12, 10, 0], None, FLAT, CFG,
                     parents=[-1, 0, 1], starts=[0, 0, 10])


def test_importing_the_cli_does_not_build_the_kernel():
    # The kernel's first use builds it, so a command that never steps does
    # not pay for the compile, and none pays for it at start-up.
    src = str(Path(sim.__file__).resolve().parent.parent)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import modeloco.cli, modeloco.sim; "
             "print(modeloco.sim._kernel)")
    out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "None"


def _run_one_step(row):
    """One control step of state row `row` through `Lockstep.run`, on the
    kernel the package has loaded, under a policy whose weights and biases
    are all 0."""
    batch = sim.Lockstep(row[None].copy(), np.zeros((1, 0)), [1], None, FLAT, CFG, *roots(1))
    inputs = sim.observation_dim(0)
    batch.run(SimpleNamespace(dims=(inputs, 4), flat=np.zeros((inputs + 1) * 4)))
    return batch.history[1, 0]


def test_kernel_build_without_cc_is_a_runtime_error(monkeypatch):
    row = airborne_state([0.3, -0.2, 0.1, 0.5, -0.5, 0.2, -0.2])
    before = _run_one_step(row)
    monkeypatch.setenv("PATH", "")
    with pytest.raises(RuntimeError, match=r"\bcc\b"):
        sim._build_kernel()
    # The kernel already loaded keeps stepping.
    assert _run_one_step(row).tobytes() == before.tobytes()


def test_a_kept_kernel_loads_without_a_compiler(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "_physics.0123456789abcdef.so").write_bytes(b"an older build")
    sim._cached_kernel(cache)
    [library] = os.listdir(cache)  # the older build and the partial file are gone
    monkeypatch.setenv("PATH", "")
    row = airborne_state([0.3, -0.2, 0.1, 0.5, -0.5, 0.2, -0.2])
    monkeypatch.setattr(sim, "_kernel", sim._cached_kernel(cache))
    after = _run_one_step(row)
    monkeypatch.undo()
    assert after.tobytes() == _run_one_step(row).tobytes()
    assert os.listdir(cache) == [library]


def test_an_unreadable_kept_kernel_is_built_again(tmp_path):
    kept = tmp_path / "kept"
    kept.mkdir()
    sim._cached_kernel(kept)
    [name] = os.listdir(kept)
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / name).write_bytes(b"not a library")
    assert sim._cached_kernel(cache).sim_run
    assert (cache / name).read_bytes() == (kept / name).read_bytes()


def test_a_kernel_cache_that_cannot_be_made_builds_in_a_temporary_directory(tmp_path):
    (tmp_path / "file").write_text("")
    assert sim._cached_kernel(tmp_path / "file" / "cache").sim_run
    assert os.listdir(tmp_path) == ["file"]


_ROW_NAMES = ("Q", "QDOT", "TIME", "PHASE", "CLOCK_RATE", "CONTACT_LEFT", "CONTACT_RIGHT",
              "SUPPORT", "ROW")
_DIM_NAMES = ("CLOCK_DIM", "PROPRIO_DIM", "NUM_JOINTS")


def test_python_and_the_kernel_agree_on_the_struct_and_constant_layout(tmp_path):
    # The kernel's own struct batch, enums and packed lengths, exported by a
    # harness built as sim builds the kernel, against what sim.py and the
    # packers hand it: a field or constant out of step on one side fails here.
    fields = [name for name, _ in sim._Batch._fields_]
    policy_fields = [name for name, _ in sim._Policy._fields_]
    exports = {
        "batch_offsets": [f"offsetof(struct batch, {name})" for name in fields],
        "batch_size": ["sizeof(struct batch)"],
        "policy_offsets": [f"offsetof(struct policy, {name})" for name in policy_fields],
        "policy_size": ["sizeof(struct policy)"],
        "row_layout": list(_ROW_NAMES),
        "statuses": ["RUNNING", "FALLEN", "BLOWUP"],
        "dims": list(_DIM_NAMES),
        "lengths": ["CYCLE_DURATION + 1", "K_CONTACT + 1", "CLIP_SAMPLES"],
    }
    harness = tmp_path / "abi_harness.c"
    harness.write_text(f'#include <stddef.h>\n#include "{sim._KERNEL_SOURCE}"\n' + "".join(
        f"const int64_t abi_{name}[] = {{{', '.join(values)}}};\n"
        for name, values in exports.items()
    ))
    kernel = sim._build_kernel(harness)
    got = {name: list((ctypes.c_int64 * len(values)).in_dll(kernel, f"abi_{name}"))
           for name, values in exports.items()}
    motion = rm.builtin_library("pi3").motions[0]
    assert got == {
        "batch_offsets": [getattr(sim._Batch, name).offset for name in fields],
        "batch_size": [ctypes.sizeof(sim._Batch)],
        "policy_offsets": [getattr(sim._Policy, name).offset for name in policy_fields],
        "policy_size": [ctypes.sizeof(sim._Policy)],
        "row_layout": [getattr(sim, name) for name in _ROW_NAMES],
        "statuses": [sim.STATUSES.index(s) for s in (RUNNING, FALLEN, BLOWUP)],
        "dims": [getattr(sim, name) for name in _DIM_NAMES],
        "lengths": [len(CFG._kernel_params), len(sim.RewardConfig()._kernel_reward),
                    len(motion._kernel_clip) - 5 * motion.length],
    }


def test_the_numpy_loop_lookup_refuses_what_it_cannot_check(monkeypatch):
    version = re.escape(np.__version__)
    for ufunc, name, signature in [
        (np.add, "matmul", "dd->d"),  # the struct names another ufunc
        (np.tanh, "tanh", "dd->d"),  # no loop of that signature
        (np.tanh, "tanh", "q->q"),
        (np.linalg.norm, "norm", "d->d"),  # not a ufunc
    ]:
        with pytest.raises(RuntimeError, match=version):
            sim._ufunc_loop(ufunc, name, signature)
    # A loop whose bits differ from np.tanh's fails the probe: np.sin's, here.
    real = sim._ufunc_loop
    monkeypatch.setattr(sim, "_ufunc_loop", lambda ufunc, name, signature: real(
        np.sin, "sin", signature) if name == "tanh" else real(ufunc, name, signature))
    sim._numpy_loops.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=f"numpy {version}'s matmul and tanh loops"):
            sim._numpy_loops()
    finally:
        sim._numpy_loops.cache_clear()


def test_unilateral_contact_forces():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        pen = rng.uniform(-0.05, 0.05)
        vx, vz = rng.normal(size=2)
        fn, ft = _contact_force(pen, vx, vz, CFG)
        assert fn >= 0.0
        if pen <= 0.0:
            assert fn == 0.0 and ft == 0.0
        assert abs(ft) <= CFG.friction * fn + 1e-12


def test_contact_force_zero_above_terrain_in_flight():
    row = airborne_state()
    new, _ = step_row(row, np.zeros(4), FLAT, CFG)
    # no contact forces: x and pitch rates unchanged
    assert new[QDOT] == 0.0 and new[QDOT + 2] == row[QDOT + 2]
    assert not new[CONTACT_LEFT] and not new[CONTACT_RIGHT]


# --- observation ---------------------------------------------------------------


def test_observation_clock_values():
    row = sim.initial_state(CFG, FLAT)
    z = np.zeros(4)
    obs = observe(row, z)
    assert obs[0] == pytest.approx(0.0, abs=1e-15)  # sin 0
    assert obs[1] == pytest.approx(1.0, abs=1e-15)  # cos 0
    row = state_row(row[Q:QDOT], row[QDOT:TIME], phase=0.25, contact_left=True,
                    contact_right=True)
    obs = observe(row, z)
    assert obs[0] == pytest.approx(1.0, abs=1e-12)
    assert obs[1] == pytest.approx(0.0, abs=1e-12)


def test_observation_layout_and_translation_invariance():
    latent = np.array([0.1, -0.2, 0.3, 0.4])
    q = np.array([5.0, 0.9, 0.1, 0.2, -0.1, 0.05, -0.3])
    qd = np.arange(7, dtype=float) / 10.0
    terrain = sim.Terrain.block(start=4.0, length=2.0, height=0.4)
    row = state_row(q, qd, t=1.0, phase=0.5, contact_left=True, support=terrain.height(5.0))
    obs = observe(row, latent)
    assert obs.shape == (sim.observation_dim(4),) == (19,)
    np.testing.assert_array_equal(obs[2:6], latent)
    # support-relative height: standing on the 0.4 block at absolute 0.9
    assert obs[6] == pytest.approx(0.5, abs=1e-12)
    # shifting x (and the support lookup staying equal) changes nothing
    q2 = q.copy()
    q2[0] = -3.0
    row2 = state_row(q2, qd, t=1.0, phase=0.5, contact_left=True, support=0.4)
    np.testing.assert_array_equal(obs, observe(row2, latent))
    # joint angles and rates appear verbatim
    np.testing.assert_array_equal(obs[8:12], q[3:])
    np.testing.assert_array_equal(obs[15:19], qd[3:])


def test_observation_heading_velocity_in_base_frame():
    q = np.array([0.0, 0.5, 0.3, 0, 0, 0, 0])
    qd = np.array([1.0, 0.5, 0.0, 0, 0, 0, 0])
    obs = observe(state_row(q, qd), np.zeros(4))
    expected = math.cos(0.3) * 1.0 + math.sin(0.3) * 0.5
    assert obs[12] == pytest.approx(expected, abs=1e-12)
    assert obs[13] == pytest.approx(0.5, abs=1e-15)  # vertical rate stays world-frame


# --- reference tracking and reward -------------------------------------------------
#
# The Python forms of the tracker and the reward from before the kernel scored
# segments. sim.tracking_rewards must match _reference_tracking_rewards byte
# for byte.


@dataclass(frozen=True)
class _ReferencePoint:
    """Target pose and contact pair at one instant; z is support-relative."""

    x: float
    z: float
    pitch: float
    contact_left: float
    contact_right: float


class _ModeTracker:
    """Phase-indexed view of one reference motion, anchored in world x.

    The anchor is chosen so that the reference x equals `anchor_x` at phase
    `anchor_phase`; completed clips keep accumulating the clip displacement.
    Transient motions hold their final sample once the first clip since entry
    has completed.
    """

    def __init__(self, motion, anchor_x: float = 0.0, anchor_phase: float = 0.0):
        self.motion = motion
        self._pos = motion.positions()
        self._z = motion.samples[:, 1]
        self._pitch = motion.samples[:, 2]
        self._contacts = motion.samples[:, 3:5]
        self._top = motion.length - 1
        self._displacement = motion.displacement
        self.anchor_x = float(anchor_x)
        self.anchor_phase = float(anchor_phase)
        self._x0 = self.anchor_x - self._interp(self._pos, anchor_phase)

    def _interp(self, channel: np.ndarray, phase: float) -> float:
        u = phase * self._top
        i = int(u)
        if i >= self._top:
            return float(channel[self._top])
        frac = u - i
        return float(channel[i] * (1.0 - frac) + channel[i + 1] * frac)

    def at(self, phase: float, clips_completed: int = 0) -> _ReferencePoint:
        if not 0.0 <= phase < 1.0:
            phase = phase % 1.0
        if self.motion.kind == rm.TRANSIENT and clips_completed >= 1:
            i = self._top
            return _ReferencePoint(
                x=self._x0 + self._displacement,
                z=float(self._z[i]),
                pitch=float(self._pitch[i]),
                contact_left=float(self._contacts[i, 0]),
                contact_right=float(self._contacts[i, 1]),
            )
        ci = min(int(phase * self._top), self._top)
        return _ReferencePoint(
            x=self._x0 + clips_completed * self._displacement + self._interp(self._pos, phase),
            z=self._interp(self._z, phase),
            pitch=self._interp(self._pitch, phase),
            contact_left=float(self._contacts[ci, 0]),
            contact_right=float(self._contacts[ci, 1]),
        )


def _reference_reward(row, ref: _ReferencePoint, cfg: sim.RewardConfig) -> float:
    """Imitation reward of a state row: weighted exponentials of pose and
    contact errors."""
    dx = row[sim.X] - ref.x
    dz = (row[sim.Z] - row[sim.SUPPORT]) - ref.z
    dpitch = row[sim.PITCH] - ref.pitch
    ec_l = float(row[sim.CONTACT_LEFT] != ref.contact_left)
    ec_r = float(row[sim.CONTACT_RIGHT] != ref.contact_right)
    wp, wo, wc = cfg.weights
    kp, ko, kc = sim.REWARD_SENSITIVITIES
    return (
        wp * math.exp(-kp * math.hypot(dx, dz))
        + wo * math.exp(-ko * abs(dpitch))
        + wc * math.exp(-kc * math.hypot(ec_l, ec_r))
    )


def _reference_tracking_rewards(rows: np.ndarray, motion, reward_cfg) -> list[float]:
    """Per-step imitation rewards along the state rows `rows` for a tracker
    anchored at the first.

    Completed clips count from 0 and grow at each wrap of the phase clock.
    """
    rows = rows.tolist()
    tracker = _ModeTracker(motion, anchor_x=rows[0][sim.X], anchor_phase=rows[0][sim.PHASE])
    clips_done = 0
    rewards = []
    for prev, row in zip(rows, rows[1:]):
        if row[sim.PHASE] < prev[sim.PHASE]:
            clips_done += 1
        rewards.append(_reference_reward(row, tracker.at(row[sim.PHASE], clips_done), reward_cfg))
    return rewards


def _state_at(x=0.0, z=0.5, pitch=0.0, cl=True, cr=True, support=0.0):
    return state_row([x, z, pitch, 0, 0, 0, 0], contact_left=cl, contact_right=cr,
                     support=support)


def test_reward_perfect_tracking():
    ref = _ReferencePoint(x=0.0, z=0.5, pitch=0.0, contact_left=1.0, contact_right=1.0)
    r = _reference_reward(_state_at(), ref, sim.RewardConfig(weights=(0.5, 0.5, 0.0)))
    assert r == pytest.approx(1.0, abs=1e-12)


def test_reward_position_error_hand_case():
    # |er_p| = 0.2 with k_p = 5: 0.5 e^-1 + 0.5
    ref = _ReferencePoint(x=0.2, z=0.5, pitch=0.0, contact_left=1.0, contact_right=1.0)
    r = _reference_reward(_state_at(), ref, sim.RewardConfig(weights=(0.5, 0.5, 0.0)))
    assert r == pytest.approx(0.5 * math.exp(-1.0) + 0.5, abs=1e-12)
    assert r == pytest.approx(0.6839397205857212, abs=1e-12)


def test_reward_contact_mismatch_hand_case():
    # both feet wrong with pi3 gains: 0.35 + 0.35 + 0.3 e^{-2 sqrt(2)}
    ref = _ReferencePoint(x=0.0, z=0.5, pitch=0.0, contact_left=0.0, contact_right=0.0)
    r = _reference_reward(
        _state_at(cl=True, cr=True), ref, sim.RewardConfig(weights=(0.35, 0.35, 0.3))
    )
    assert r == pytest.approx(0.7 + 0.3 * math.exp(-2.0 * math.sqrt(2.0)), abs=1e-12)
    assert r == pytest.approx(0.7177317239685869, abs=1e-12)


def test_reward_bounds_and_translation_equivariance():
    rng = np.random.default_rng(1)
    cfg = sim.RewardConfig(weights=(0.4, 0.4, 0.2))
    for _ in range(500):
        x, z, p = rng.normal(size=3)
        ref = _ReferencePoint(
            x=rng.normal(), z=0.5 + rng.normal() * 0.1, pitch=rng.normal() * 0.3,
            contact_left=float(rng.integers(2)), contact_right=float(rng.integers(2)),
        )
        state = _state_at(x=x, z=0.5 + z * 0.1, pitch=p * 0.3)
        r = _reference_reward(state, ref, cfg)
        assert 0.0 <= r <= cfg.max_step_reward + 1e-12
        shift = rng.normal() * 10.0
        shifted_state = _state_at(x=x + shift, z=0.5 + z * 0.1, pitch=p * 0.3)
        shifted_ref = _ReferencePoint(
            x=ref.x + shift, z=ref.z, pitch=ref.pitch,
            contact_left=ref.contact_left, contact_right=ref.contact_right,
        )
        r2 = _reference_reward(shifted_state, shifted_ref, cfg)
        assert r2 == pytest.approx(r, abs=1e-9)


def test_reference_idle_constant():
    lib = rm.builtin_library("pi2")
    idle = lib.motions[lib.names.index("idle")]
    for phase in (0.0, 0.3, 0.77):
        ref = _ModeTracker(idle, anchor_x=2.0).at(phase)
        assert ref.x == pytest.approx(2.0, abs=1e-15)
        assert ref.z == pytest.approx(0.5, abs=1e-15)


def test_reference_walk_midpoint():
    lib = rm.builtin_library("pi2")
    walk = lib.motions[lib.names.index("walk_f")]
    assert walk.displacement == pytest.approx(0.5, abs=1e-12)
    ref = _ModeTracker(walk, anchor_x=1.0).at(0.5)
    assert ref.x == pytest.approx(1.25, abs=1e-12)


def test_reference_accumulates_over_clips():
    lib = rm.builtin_library("pi2")
    walk = lib.motions[lib.names.index("walk_f")]
    ref = _ModeTracker(walk, anchor_x=1.0).at(0.5, 2)
    assert ref.x == pytest.approx(1.0 + 2 * 0.5 + 0.25, abs=1e-12)


def test_transient_holds_final_sample_after_clip():
    lib = rm.builtin_library("pi2")
    launch = lib.motions[lib.names.index("launch")]
    end = _ModeTracker(launch).at(0.0, 1)
    again = _ModeTracker(launch).at(0.6, 3)
    assert end == again
    assert end.x == pytest.approx(launch.displacement, abs=1e-12)
    assert end.z == pytest.approx(launch.samples[-1, 1], abs=1e-12)


def test_tracker_anchoring_matches_rebase():
    lib = rm.builtin_library("pi2")
    walk = lib.motions[lib.names.index("walk_f")]
    tracker = _ModeTracker(walk, anchor_x=3.0, anchor_phase=0.5)
    assert tracker.at(0.5).x == pytest.approx(3.0, abs=1e-12)
    assert tracker.at(0.7).x == pytest.approx(3.0 + 0.1, abs=1e-12)
    # continuity across the wrap
    just_before = tracker.at(0.999999)
    just_after = tracker.at(0.0, clips_completed=1)
    assert just_after.x == pytest.approx(just_before.x, abs=1e-4)


def _segment(rng, steps, clock_rate, cycle_steps=50):
    """State rows of a segment: a mid-phase anchor, the phase stepped as the
    kernel steps it, random poses and contacts, and some non-finite x, z and
    pitch values, as a blowup leaves them."""
    rows = np.zeros((steps + 1, sim.ROW))
    rows[0, sim.PHASE] = rng.uniform(0.05, 0.95)
    for k in range(steps):
        rows[k + 1, sim.PHASE] = (rows[k, sim.PHASE] + clock_rate / cycle_steps) % 1.0
    rows[:, sim.X] = rng.uniform(-1.0, 3.0) + np.cumsum(rng.normal(0.01, 0.02, steps + 1))
    rows[:, sim.Z] = rng.uniform(0.3, 0.6, steps + 1)
    rows[:, sim.PITCH] = rng.normal(0.0, 0.3, steps + 1)
    rows[:, sim.SUPPORT] = rng.choice([0.0, -1.0, 0.2], steps + 1)
    rows[:, [sim.CONTACT_LEFT, sim.CONTACT_RIGHT]] = rng.integers(0, 2, (steps + 1, 2))
    for k in rng.choice(np.arange(1, steps + 1), size=4, replace=False):
        rows[k, rng.choice([sim.X, sim.Z, sim.PITCH])] = rng.choice([np.nan, np.inf, -np.inf])
    return rows


def test_tracking_rewards_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(21)
    weights = [(0.35, 0.35, 0.3), (0.5, 0.5, 0.0), (0.0, 0.0, 1.0), (0.0, 0.7, 0.0)]
    hits = {"transient_held": 0, "wraps": 0, "non_finite": 0, "nan_reward": 0}
    mismatches = set()
    for modeset in rm.MODESET_NAMES:
        library = rm.builtin_library(modeset)
        for motion in library.motions:
            for clock_rate, steps in ((1.0, 130), (-0.7, 40), (2.3, 60)):
                for w in weights:
                    rows = _segment(rng, steps, clock_rate)
                    cfg = sim.RewardConfig(weights=w)
                    want = np.array(_reference_tracking_rewards(rows, motion, cfg))
                    got = sim.tracking_rewards(rows, motion, cfg)
                    assert got.tobytes() == want.tobytes(), (modeset, motion.name, clock_rate, w)
                    wraps = int((rows[1:, sim.PHASE] < rows[:-1, sim.PHASE]).sum())
                    hits["wraps"] = max(hits["wraps"], wraps)
                    hits["transient_held"] += motion.kind == rm.TRANSIENT and wraps > 0
                    hits["non_finite"] += not np.isfinite(rows).all()
                    hits["nan_reward"] += bool(np.isnan(got).any())
                    tracker = _ModeTracker(motion, rows[0, sim.X], rows[0, sim.PHASE])
                    ref = tracker.at(rows[1, sim.PHASE])
                    mismatches.add((rows[1, sim.CONTACT_LEFT] != ref.contact_left,
                                    rows[1, sim.CONTACT_RIGHT] != ref.contact_right))
    assert "launch" in rm.builtin_library("pi2").names
    assert hits["transient_held"] > 0 and hits["wraps"] >= 2 and hits["nan_reward"] > 0
    assert mismatches == {(False, False), (False, True), (True, False), (True, True)}


def test_tracking_rewards_reject_a_phase_the_reference_cannot_take():
    motion = rm.builtin_library("pi2").motions[1]
    cfg = sim.RewardConfig()
    rows = _segment(np.random.default_rng(3), 10, 1.0)
    for index, bad in ((0, 1.5), (0, -0.2), (0, np.nan), (4, np.inf), (7, np.nan)):
        broken = rows.copy()
        broken[index, sim.PHASE] = bad
        with pytest.raises(ValueError, match="finite phases"):
            sim.tracking_rewards(broken, motion, cfg)
    assert sim.tracking_rewards(rows[:1], motion, cfg).shape == (0,)
    with pytest.raises(ValueError, match="first state row"):
        sim.tracking_rewards(rows[:0], motion, cfg)


def test_goal_rewards_match_math_exp_of_math_hypot():
    rng = np.random.default_rng(4)
    rows = np.zeros((3, 500, sim.ROW))
    rows[..., sim.X] = rng.normal(1.0, 2.0, (3, 500))
    rows[..., sim.Z] = rng.normal(0.4, 0.5, (3, 500))
    rows[0, :6, sim.X] = [np.nan, np.inf, -np.inf, 1e300, 2.0, 5e-324]
    rows[0, :6, sim.Z] = [0.5, np.nan, 0.0, 1e-300, 0.5, np.nan]
    got = sim.goal_rewards(rows, 2.0, 0.5)
    assert got.shape == (3, 500)
    want = [math.exp(-math.hypot(2.0 - x, 0.5 - z))
            for x, z in rows[..., [sim.X, sim.Z]].reshape(-1, 2).tolist()]
    assert got.tobytes() == np.array(want).reshape(3, 500).tobytes()


def test_the_kernel_hypot_is_math_hypot_bit_for_bit():
    kernel = kernel_harness()
    rng = np.random.default_rng(5)
    n = 100_000
    # Magnitudes across the whole double range, pairs a few decades apart,
    # subnormal pairs, and plain normal pairs.
    e = rng.uniform(-1074.0, 1023.0, n)
    x = rng.uniform(0.5, 1.0, n) * np.exp2(e) * rng.choice([-1.0, 1.0], n)
    y = (rng.uniform(0.5, 1.0, n) * np.exp2(np.clip(e + rng.normal(0.0, 30.0, n), -1074, 1023))
         * rng.choice([-1.0, 1.0], n))
    sub = rng.uniform(-1.0, 1.0, (2, 20_000)) * np.exp2(-1022 - rng.uniform(0, 52, (2, 20_000)))
    normal = rng.normal(size=(2, 20_000))
    tiny = sys.float_info.min
    special = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, np.nextafter(tiny, 0.0),
               np.nextafter(tiny, 1.0), tiny / 2, 2 * tiny, 1e-300, -1e-300, 1e300, -1e300,
               sys.float_info.max, 1.0, 3.0, math.inf, -math.inf, math.nan, -math.nan]
    sx, sy = np.array([(a, b) for a in special for b in special]).T
    xs = np.concatenate([x, sub[0], normal[0], sx])
    ys = np.concatenate([y, sub[1], normal[1], sy])
    got = np.empty_like(xs)
    kernel.hypot_of(xs.size, xs.ctypes.data, ys.ctypes.data, got.ctypes.data)
    want = np.array([math.hypot(a, b) for a, b in zip(xs.tolist(), ys.tolist())])
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, [(xs[k], ys[k], got[k], want[k]) for k in differ[:5]]
    inf_and_nan = np.isinf(xs) & np.isnan(ys)
    assert inf_and_nan.any() and np.isinf(got[inf_and_nan]).all()


# --- termination ------------------------------------------------------------------
#
# The kernel sets a row's status as it steps to it, so each case steps once
# and checks the status of the state it reaches.


def _status_after_a_step(row, terrain=FLAT, action=None):
    """The kernel's status of the state one step on from row under action
    (zeros if None), which must equal the reference's status of that state."""
    new, status = step_row(row, np.zeros(4) if action is None else action, terrain, CFG)
    assert status == _reference_termination(new, CFG), new
    return status


# Joint angles that fold both legs up, so that a low base drops with its feet
# off the ground.
FOLDED = np.array([math.pi, 0.0, math.pi, 0.0])


def test_termination_running_fallen_blowup():
    assert _status_after_a_step(sim.initial_state(CFG, FLAT)) == sim.RUNNING
    low = state_row([0.0, 0.1, 0.0, *FOLDED])
    assert _status_after_a_step(low, action=FOLDED) == sim.FALLEN
    tipped = _state_at(pitch=1.5)
    assert _status_after_a_step(tipped) == sim.FALLEN
    bad = state_row(np.zeros(7), np.full(7, np.nan))
    assert _status_after_a_step(bad) == sim.BLOWUP


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["q", "qdot"])
@pytest.mark.parametrize("index", [0, 2, 6])
def test_termination_calls_any_non_finite_entry_a_blowup(name, bad, index):
    row = sim.initial_state(CFG, FLAT)
    row[{"q": Q, "qdot": QDOT}[name] + index] = bad
    assert _status_after_a_step(row) == sim.BLOWUP


def test_termination_is_not_fooled_by_huge_finite_entries():
    # Entries whose sum overflows to inf are finite. The hip and knee of each
    # leg cancel, so every angle the step takes a sine of is finite.
    row = sim.initial_state(CFG, FLAT)
    row[sim.X] = 1e308
    row[Q + 3 : QDOT] = [1e308, -1e308, 1e308, -1e308]
    new, status = step_row(row, np.zeros(4), FLAT, CFG)
    assert np.isfinite(new[Q:TIME]).all() and not math.isfinite(sum(new[Q:TIME].tolist()))
    assert status == _reference_termination(new, CFG) == sim.RUNNING


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
    payload = {"base_height": 0.0,
               "breakpoints": [[0.6, -1.0], [1.05, 0.0], [1.4, 0.4], [2.0, 0.0]]}
    write_artifact(path, "terrain", payload)
    back = sim.Terrain.from_payload(read_artifact(path, "terrain"))
    for x in np.linspace(-1, 3, 101):
        assert back.height(float(x)) == t.height(float(x))


def test_gap_is_fallen_when_descended_into():
    gap = sim.Terrain.gap(0.8, 0.45)
    row = _state_at(x=1.0, z=0.2, support=gap.height(1.0))
    # height above the -1 m floor is 1.2 > threshold, still "running"
    assert _status_after_a_step(row, gap) == sim.RUNNING
    deep = state_row([1.0, -0.9, 0.0, *FOLDED], support=gap.height(1.0))
    assert _status_after_a_step(deep, gap, FOLDED) == sim.FALLEN
