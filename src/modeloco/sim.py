"""Desk-scale planar biped environment.

The base is a 3-DOF rigid body (x, z, pitch) acted on by gravity and by
spring-damper ground forces at two point feet. Each leg is a hip-knee chain
hanging from a hip point slightly below the base center; joints are damped
double integrators driven by PD torques and by the contact force mapped
through the foot Jacobian. Base and legs are deliberately decoupled (no leg
inertia reaction on the torso), which keeps the stance/flight hybrid
structure, PD semantics, and contact timing while staying small enough to
integrate with plain scalar arithmetic.

Physics substeps use velocity-Verlet (kick-drift-kick), which reproduces
ballistic flight exactly; control runs at 50 Hz over 20 substeps of 1 ms.
State in, state out: stepping is a pure function and bit-deterministic.

step() keeps a fixed floating-point operation order, so that trajectories,
checkpoints and resumed runs replay bit for bit across versions of this
module. Do not reorder or regroup its arithmetic: force and torque sums start
from 0.0 (which fixes the sign of a zero total), a joint acceleration is
(tau - damping * qdot + (jx * ft + jz * fn)) / inertia, accelerations divide
by the mass and inertias rather than multiply by reciprocals, and the
half-kick uses 0.5 * h. tests/test_sim.py holds the plain-loop reference
that step() must match byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .refmotion import PERIODIC, TRANSIENT, ReferenceMotion

GRAVITY = 9.81

RUNNING = "running"
FALLEN = "fallen"
BLOWUP = "blowup"

JOINT_NAMES = ("hip_l", "knee_l", "hip_r", "knee_r")
NUM_JOINTS = 4
BASE_DOF = 3  # x, z, pitch


@dataclass(frozen=True)
class RobotConfig:
    base_mass: float = 8.0
    base_inertia: float = 0.15  # pitch axis
    thigh_length: float = 0.22
    shank_length: float = 0.22
    hip_offset: float = 0.06  # hip point below the base center, body frame
    joint_inertia: float = 0.05
    joint_damping: float = 0.1
    kp: float = 30.0
    kd: float = 0.5
    torque_limit: float = 30.0
    contact_stiffness: float = 2.0e4
    contact_damping: float = 200.0
    friction: float = 0.8
    control_dt: float = 0.02
    substeps: int = 20
    cycle_duration: float = 1.0  # wall-clock seconds per phase cycle at rate 1

    def __post_init__(self):
        for name in (
            "base_mass",
            "base_inertia",
            "thigh_length",
            "shank_length",
            "joint_inertia",
            "kp",
            "kd",
            "torque_limit",
            "contact_stiffness",
            "control_dt",
            "substeps",
            "cycle_duration",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def nominal_height(self) -> float:
        """Base height standing with straight legs and feet on the ground."""
        return self.hip_offset + self.thigh_length + self.shank_length

    @property
    def settle_depth(self) -> float:
        """Static foot penetration with weight shared by both feet."""
        return self.base_mass * GRAVITY / (2.0 * self.contact_stiffness)


@dataclass(frozen=True)
class RewardConfig:
    """Tracking reward gains: weights per term, sensitivities fixed by default."""

    weights: tuple[float, float, float] = (0.5, 0.5, 0.0)
    sensitivities: tuple[float, float, float] = (5.0, 5.0, 2.0)

    def __post_init__(self):
        if len(self.weights) != 3 or len(self.sensitivities) != 3:
            raise ValueError("weights and sensitivities must have 3 entries")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")

    @property
    def max_step_reward(self) -> float:
        return float(sum(self.weights))


class Terrain:
    """Piecewise-constant ground height h(x)."""

    def __init__(self, breakpoints: Sequence[tuple[float, float]] = (), base_height: float = 0.0):
        self.base_height = float(base_height)
        self.breakpoints = tuple((float(x), float(h)) for x, h in sorted(breakpoints))

    def height(self, x: float) -> float:
        h = self.base_height
        for start, height in self.breakpoints:
            if x >= start:
                h = height
            else:
                break
        return h

    def _with_range(self, start: float, end: float, height: float) -> "Terrain":
        after = self.height(end)
        points = [(x, h) for x, h in self.breakpoints if x < start or x >= end]
        points.append((start, height))
        points.append((end, after))
        return Terrain(points, self.base_height)

    @staticmethod
    def flat() -> "Terrain":
        return Terrain()

    @staticmethod
    def gap(start: float = 0.8, width: float = 0.45) -> "Terrain":
        # A gap is a deep drop; descending into it trips the fall terminator.
        return Terrain.flat()._with_range(start, start + width, -1.0)

    @staticmethod
    def plateau(start: float = 0.8, length: float = 0.5, height: float = 0.2) -> "Terrain":
        return Terrain.flat()._with_range(start, start + length, height)

    @staticmethod
    def block(start: float = 1.0, length: float = 0.6, height: float = 0.4) -> "Terrain":
        return Terrain.flat()._with_range(start, start + length, height)

    @staticmethod
    def gap_and_block() -> "Terrain":
        return Terrain.gap(0.6, 0.45)._with_range(1.4, 2.0, 0.4)

    def to_payload(self) -> dict:
        return {
            "base_height": self.base_height,
            "breakpoints": [[x, h] for x, h in self.breakpoints],
        }

    @staticmethod
    def from_payload(payload: dict) -> "Terrain":
        return Terrain(
            [(p[0], p[1]) for p in payload.get("breakpoints", [])],
            payload.get("base_height", 0.0),
        )


TERRAIN_PRESETS = {
    "flat": Terrain.flat,
    "gap": Terrain.gap,
    "plateau": Terrain.plateau,
    "block": Terrain.block,
    "gap_block": Terrain.gap_and_block,
}


@dataclass(frozen=True)
class SimState:
    """Generalized coordinates plus the phase clock and contact bookkeeping."""

    q: np.ndarray  # [x, z, pitch, hip_l, knee_l, hip_r, knee_r]
    qdot: np.ndarray
    t: float
    phase: float
    clock_rate: float
    contact_left: bool
    contact_right: bool
    support: float  # terrain height under the base x

    def __post_init__(self):
        for name in ("q", "qdot"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != (BASE_DOF + NUM_JOINTS,):
                raise ValueError(f"{name} must have shape (7,)")
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def x(self) -> float:
        return float(self.q[0])

    @property
    def z(self) -> float:
        return float(self.q[1])

    @property
    def pitch(self) -> float:
        return float(self.q[2])

    @property
    def joints(self) -> np.ndarray:
        return self.q[3:]

    @property
    def joint_rates(self) -> np.ndarray:
        return self.qdot[3:]

    @property
    def height_above_support(self) -> float:
        return self.z - self.support


def initial_state(
    cfg: RobotConfig,
    terrain: Terrain | None = None,
    x: float = 0.0,
    clock_rate: float = 1.0,
    settled: bool = True,
) -> SimState:
    """Nominal standing pose; settled=True pre-compresses the contact springs."""
    terrain = terrain or Terrain.flat()
    ground = terrain.height(x)
    z = ground + cfg.nominal_height - (cfg.settle_depth if settled else 0.0)
    q = np.zeros(BASE_DOF + NUM_JOINTS)
    q[0] = x
    q[1] = z
    left, right = _foot_states(q, np.zeros(7), cfg)
    return SimState(
        q=q,
        qdot=np.zeros(BASE_DOF + NUM_JOINTS),
        t=0.0,
        phase=0.0,
        clock_rate=clock_rate,
        contact_left=left[1] < terrain.height(left[0]),
        contact_right=right[1] < terrain.height(right[0]),
        support=ground,
    )


def pd_torque(
    action: np.ndarray, joint_q: np.ndarray, joint_qdot: np.ndarray, cfg: RobotConfig
) -> np.ndarray:
    """Joint torques from position targets; clipped at the actuator limit.

    No angle limits are applied to the targets; they are set points, not
    strict position commands.
    """
    tau = cfg.kp * (np.asarray(action, dtype=float) - np.asarray(joint_q, dtype=float))
    tau = tau - cfg.kd * np.asarray(joint_qdot, dtype=float)
    return np.clip(tau, -cfg.torque_limit, cfg.torque_limit)


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


def foot_positions(state: SimState, cfg: RobotConfig) -> list[tuple[float, float]]:
    left, right = _foot_states(state.q, state.qdot, cfg)
    return [(left[0], left[1]), (right[0], right[1])]


def contact_force(
    penetration: float, foot_vx: float, foot_vz: float, cfg: RobotConfig
) -> tuple[float, float]:
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


def step(state: SimState, action: np.ndarray, terrain: Terrain, cfg: RobotConfig) -> SimState:
    """Advance one control period of physics substeps and the phase clock.

    Each substep is a kick-drift-kick: the loop evaluates the forces
    2 * substeps times, half-kicks the velocities after every evaluation and
    drifts the positions after every first evaluation of a pair. Both legs
    are written out inline; their force and torque terms are those of
    contact_force and pd_torque, in the operation order the module docstring
    fixes.

    A non-finite outcome is returned as-is; termination() classifies it as a
    blowup so the caller can cut the episode. An infinite angle, which
    math.sin cannot take, ends the substeps early with a NaN pitch.
    """
    action = [float(a) for a in np.asarray(action, dtype=float)]
    if len(action) != NUM_JOINTS:
        raise ValueError(f"action must have {NUM_JOINTS} entries")
    uhl, ukl, uhr, ukr = action
    x, z, p, hl, kl, hr, kr = state.q.tolist()
    vx, vz, vp, dhl, dkl, dhr, dkr = state.qdot.tolist()
    m, ib = cfg.base_mass, cfg.base_inertia
    ji, jd = cfg.joint_inertia, cfg.joint_damping
    kp, kd, lim = cfg.kp, cfg.kd, cfg.torque_limit
    ks, cd, mu = cfg.contact_stiffness, cfg.contact_damping, cfg.friction
    d, l1, l2 = cfg.hip_offset, cfg.thigh_length, cfg.shank_length
    height = terrain.height
    sin, cos = math.sin, math.cos
    h = cfg.control_dt / cfg.substeps
    hh = 0.5 * h
    drift = True
    try:
        for _ in range(2 * cfg.substeps):
            s0, c0 = sin(p), cos(p)
            ds0 = d * s0
            dc0 = d * c0

            # Left leg: foot kinematics, contact force, joint accelerations.
            a1 = p + hl
            a2 = a1 + kl
            s1, c1 = sin(a1), cos(a1)
            s2, c2 = sin(a2), cos(a2)
            lc1 = l1 * c1
            ls1 = l1 * s1
            jxk = l2 * c2
            jzk = l2 * s2
            jxh = lc1 + jxk
            jzh = ls1 + jzk
            fxl = x + ds0 + ls1 + jzk
            fzl = z - dc0 - lc1 - jxk
            gl = height(fxl)
            pen = gl - fzl
            if pen <= 0.0:
                fnl = ftl = 0.0
            else:
                fvz = vz + (ds0 + ls1 + jzk) * vp + jzh * dhl + jzk * dkl
                fnl = ks * pen - cd * fvz
                if fnl <= 0.0:
                    fnl = ftl = 0.0
                else:
                    fvx = vx + (dc0 + lc1 + jxk) * vp + jxh * dhl + jxk * dkl
                    cap = mu * fnl
                    ftl = -cd * fvx
                    if ftl > cap:
                        ftl = cap
                    elif ftl < -cap:
                        ftl = -cap
            tau = kp * (uhl - hl) - kd * dhl
            if tau > lim:
                tau = lim
            elif tau < -lim:
                tau = -lim
            ahl = (tau - jd * dhl + (jxh * ftl + jzh * fnl)) / ji
            tau = kp * (ukl - kl) - kd * dkl
            if tau > lim:
                tau = lim
            elif tau < -lim:
                tau = -lim
            akl = (tau - jd * dkl + (jxk * ftl + jzk * fnl)) / ji

            # Right leg: the same, on the right joints.
            a1 = p + hr
            a2 = a1 + kr
            s1, c1 = sin(a1), cos(a1)
            s2, c2 = sin(a2), cos(a2)
            lc1 = l1 * c1
            ls1 = l1 * s1
            jxk = l2 * c2
            jzk = l2 * s2
            jxh = lc1 + jxk
            jzh = ls1 + jzk
            fxr = x + ds0 + ls1 + jzk
            fzr = z - dc0 - lc1 - jxk
            gr = height(fxr)
            pen = gr - fzr
            if pen <= 0.0:
                fnr = ftr = 0.0
            else:
                fvz = vz + (ds0 + ls1 + jzk) * vp + jzh * dhr + jzk * dkr
                fnr = ks * pen - cd * fvz
                if fnr <= 0.0:
                    fnr = ftr = 0.0
                else:
                    fvx = vx + (dc0 + lc1 + jxk) * vp + jxh * dhr + jxk * dkr
                    cap = mu * fnr
                    ftr = -cd * fvx
                    if ftr > cap:
                        ftr = cap
                    elif ftr < -cap:
                        ftr = -cap
            tau = kp * (uhr - hr) - kd * dhr
            if tau > lim:
                tau = lim
            elif tau < -lim:
                tau = -lim
            ahr = (tau - jd * dhr + (jxh * ftr + jzh * fnr)) / ji
            tau = kp * (ukr - kr) - kd * dkr
            if tau > lim:
                tau = lim
            elif tau < -lim:
                tau = -lim
            akr = (tau - jd * dkr + (jxk * ftr + jzk * fnr)) / ji

            # Base: the 0.0 starts of the sums fix the sign of a zero total.
            torque = (
                0.0 + ((fxl - x) * fnl - (fzl - z) * ftl) + ((fxr - x) * fnr - (fzr - z) * ftr)
            )
            vx = vx + hh * ((0.0 + ftl + ftr) / m)
            vz = vz + hh * ((0.0 + fnl + fnr) / m - GRAVITY)
            vp = vp + hh * (torque / ib)
            dhl = dhl + hh * ahl
            dkl = dkl + hh * akl
            dhr = dhr + hh * ahr
            dkr = dkr + hh * akr
            if drift:
                x = x + h * vx
                z = z + h * vz
                p = p + h * vp
                hl = hl + h * dhl
                kl = kl + h * dkl
                hr = hr + h * dhr
                kr = kr + h * dkr
            drift = not drift
    except ValueError:
        # math.sin or math.cos of an infinite angle: the run has blown up.
        # A NaN pitch keeps the returned state non-finite even when the
        # angle that overflowed was a sum of finite ones.
        p = math.nan

    q_arr = np.array([x, z, p, hl, kl, hr, kr])
    qdot_arr = np.array([vx, vz, vp, dhl, dkl, dhr, dkr])
    phase = (state.phase + state.clock_rate * cfg.control_dt / cfg.cycle_duration) % 1.0
    if np.isfinite(q_arr).all() and np.isfinite(qdot_arr).all():
        # The last force evaluation ran at the final positions.
        contact_l = fzl < gl
        contact_r = fzr < gr
        support = height(x)
    else:
        contact_l = contact_r = False
        support = state.support
    return SimState(
        q=q_arr,
        qdot=qdot_arr,
        t=state.t + cfg.control_dt,
        phase=phase,
        clock_rate=state.clock_rate,
        contact_left=contact_l,
        contact_right=contact_r,
        support=support,
    )


def termination(state: SimState, cfg: RobotConfig) -> str:
    if not (np.isfinite(state.q).all() and np.isfinite(state.qdot).all()):
        return BLOWUP
    if state.height_above_support < 0.3 * cfg.nominal_height:
        return FALLEN
    if abs(state.pitch) > 1.0:
        return FALLEN
    return RUNNING


# --- observation -------------------------------------------------------------

CLOCK_DIM = 2
PROPRIO_DIM = 13


def observation_dim(latent_dim: int) -> int:
    return CLOCK_DIM + latent_dim + PROPRIO_DIM


def observe(state: SimState, latent: np.ndarray, two_pi_clock: bool = True) -> np.ndarray:
    """Policy observation [clock, latent command, proprioception].

    The base x never appears: height is support-relative and the linear
    velocity is expressed in the base frame, so the observation is invariant
    to horizontal translation.
    """
    latent = np.asarray(latent, dtype=float)
    angle = (2.0 * math.pi if two_pi_clock else 1.0) * state.phase
    pitch = state.pitch
    c, s = math.cos(pitch), math.sin(pitch)
    vx, vz = float(state.qdot[0]), float(state.qdot[1])
    heading_vel = c * vx + s * vz
    obs = np.empty(CLOCK_DIM + latent.shape[0] + PROPRIO_DIM)
    obs[0] = math.sin(angle)
    obs[1] = math.cos(angle)
    obs[2 : 2 + latent.shape[0]] = latent
    at = 2 + latent.shape[0]
    obs[at] = state.height_above_support
    obs[at + 1] = pitch
    obs[at + 2 : at + 6] = state.q[3:]
    obs[at + 6] = heading_vel
    obs[at + 7] = vz
    obs[at + 8] = float(state.qdot[2])
    obs[at + 9 : at + 13] = state.qdot[3:]
    return obs


# --- reference tracking and reward -------------------------------------------


@dataclass(frozen=True)
class ReferencePoint:
    """Target pose and contact pair at one instant; z is support-relative."""

    x: float
    z: float
    pitch: float
    contact_left: float
    contact_right: float


@dataclass(frozen=True)
class TrackingError:
    position: tuple[float, float]  # (dx, dz)
    orientation: float
    contact: tuple[float, float]  # per-leg mismatch, 0 or 1


class ModeTracker:
    """Phase-indexed view of one reference motion, anchored in world x.

    The anchor is chosen so that the reference x equals `anchor_x` at phase
    `anchor_phase`; completed clips keep accumulating the clip displacement.
    Transient motions hold their final sample once the first clip since entry
    has completed.
    """

    def __init__(self, motion: ReferenceMotion, anchor_x: float = 0.0, anchor_phase: float = 0.0):
        self.motion = motion
        self._pos = motion.positions()
        self._z = motion.samples[:, 1]
        self._pitch = motion.samples[:, 2]
        self._contacts = motion.samples[:, 3:5]
        self._top = motion.length - 1
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

    def at(self, phase: float, clips_completed: int = 0) -> ReferencePoint:
        if not 0.0 <= phase < 1.0:
            phase = phase % 1.0
        if self.motion.kind == TRANSIENT and clips_completed >= 1:
            i = self._top
            return ReferencePoint(
                x=self._x0 + self.motion.displacement,
                z=float(self._z[i]),
                pitch=float(self._pitch[i]),
                contact_left=float(self._contacts[i, 0]),
                contact_right=float(self._contacts[i, 1]),
            )
        ci = min(int(phase * self._top), self._top)
        return ReferencePoint(
            x=self._x0 + clips_completed * self.motion.displacement + self._interp(self._pos, phase),
            z=self._interp(self._z, phase),
            pitch=self._interp(self._pitch, phase),
            contact_left=float(self._contacts[ci, 0]),
            contact_right=float(self._contacts[ci, 1]),
        )


def reference_at(
    motion: ReferenceMotion, phase: float, entry_x: float, clips_completed: int = 0
) -> ReferencePoint:
    """Reference pose and contact at a phase, anchored at entry_x for phase 0."""
    return ModeTracker(motion, anchor_x=entry_x, anchor_phase=0.0).at(phase, clips_completed)


def reward(
    state: SimState, ref: ReferencePoint, cfg: RewardConfig
) -> tuple[float, TrackingError]:
    """Imitation reward: weighted exponentials of pose and contact errors."""
    dx = state.x - ref.x
    dz = state.height_above_support - ref.z
    dpitch = state.pitch - ref.pitch
    ec_l = float(float(state.contact_left) != ref.contact_left)
    ec_r = float(float(state.contact_right) != ref.contact_right)
    wp, wo, wc = cfg.weights
    kp, ko, kc = cfg.sensitivities
    r = (
        wp * math.exp(-kp * math.hypot(dx, dz))
        + wo * math.exp(-ko * abs(dpitch))
        + wc * math.exp(-kc * math.hypot(ec_l, ec_r))
    )
    return r, TrackingError(position=(dx, dz), orientation=dpitch, contact=(ec_l, ec_r))


def base_energy(state: SimState, cfg: RobotConfig) -> float:
    """Kinetic plus gravitational energy of the base body alone."""
    vx, vz, vp = state.qdot[0], state.qdot[1], state.qdot[2]
    return float(
        0.5 * cfg.base_mass * (vx * vx + vz * vz)
        + 0.5 * cfg.base_inertia * vp * vp
        + cfg.base_mass * GRAVITY * state.z
    )
