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

The substeps run in `_physics.c`, a C kernel that step() compiles with `cc`
on its first call and loads through ctypes for the life of the process.
The kernel keeps a fixed floating-point operation order, so that
trajectories, checkpoints and resumed runs replay bit for bit across
versions of this package. Do not reorder or regroup its arithmetic: force
and torque sums start from 0.0 (which fixes the sign of a zero total), a
joint acceleration is (tau - damping * qdot + (jx * ft + jz * fn)) / inertia,
accelerations divide by the mass and inertias rather than multiply by
reciprocals, and the half-kick uses 0.5 * h. A term that depends on the
positions alone may be computed once per drift and reused by every
evaluation at those positions, since its expression and inputs are the same
each time; the kernel does so. The compiler flags are part of the same
contract: no -ffast-math, so every operation rounds as written;
-ffp-contract=off, so no multiply-add is fused into one rounding; and
-fno-builtin, so sin and cos stay the libm calls that math.sin and math.cos
make and are not merged into sincos. tests/test_sim.py holds the plain-loop
Python reference that step() must match byte for byte.
"""

from __future__ import annotations

import ctypes
import math
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .refmotion import (
    DEFAULT_CLIP_DURATION,
    DEFAULT_DT,
    TRANSIENT,
    InvalidInputError,
    ReferenceMotion,
    finite_number,
)

GRAVITY = 9.81

RUNNING = "running"
FALLEN = "fallen"
BLOWUP = "blowup"

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
    control_dt: float = DEFAULT_DT  # the reference clips' sample step
    substeps: int = 20
    cycle_duration: float = DEFAULT_CLIP_DURATION  # wall-clock seconds per phase cycle at rate 1

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

    @property
    def cycle_steps(self) -> int:
        """Control steps per phase cycle at clock rate 1."""
        return round(self.cycle_duration / self.control_dt)

    @cached_property
    def _kernel_params(self) -> ctypes.Array:
        """The parameter vector of the physics kernel, in `_physics.c`'s order."""
        values = (
            self.base_mass, self.base_inertia, self.joint_inertia, self.joint_damping,
            self.kp, self.kd, self.torque_limit, self.contact_stiffness,
            self.contact_damping, self.friction, self.hip_offset, self.thigh_length,
            self.shank_length, self.control_dt, self.substeps, GRAVITY,
        )
        return (ctypes.c_double * len(values))(*values)

    def __getstate__(self):
        # ctypes arrays do not pickle; a copy rebuilds its own on first use.
        return {k: v for k, v in self.__dict__.items() if k != "_kernel_params"}


# Sensitivities of the position, pitch and contact reward terms.
REWARD_SENSITIVITIES = (5.0, 5.0, 2.0)


@dataclass(frozen=True)
class RewardConfig:
    """Tracking reward weights per term."""

    weights: tuple[float, float, float] = (0.5, 0.5, 0.0)

    def __post_init__(self):
        if len(self.weights) != 3:
            raise ValueError("weights must have 3 entries")
        if not all(math.isfinite(w) and w >= 0 for w in self.weights):
            raise ValueError(f"weights must be finite and non-negative, got {self.weights}")

    @property
    def max_step_reward(self) -> float:
        return float(sum(self.weights))


class Terrain:
    """Piecewise-constant ground height h(x)."""

    def __init__(self, breakpoints: Sequence[tuple[float, float]] = (), base_height: float = 0.0):
        self.base_height = float(base_height)
        self.breakpoints = tuple((float(x), float(h)) for x, h in sorted(breakpoints))

    @cached_property
    def _kernel_terrain(self) -> ctypes.Array:
        """The physics kernel's copy: the count, the base height, then the pairs."""
        packed = [len(self.breakpoints), self.base_height]
        for pair in self.breakpoints:
            packed.extend(pair)
        return (ctypes.c_double * len(packed))(*packed)

    def __getstate__(self):
        # ctypes arrays do not pickle; a copy rebuilds its own on first use.
        return {k: v for k, v in self.__dict__.items() if k != "_kernel_terrain"}

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
        """The terrain of a terrain file; InvalidInputError unless every
        breakpoint is an [x, height] pair of finite numbers and the base height
        is finite."""
        if not isinstance(payload, dict):
            raise InvalidInputError(
                f"terrain file: the payload must be an object, got {payload!r}"
            )
        points = payload.get("breakpoints", [])
        if not isinstance(points, list):
            raise InvalidInputError("terrain file: 'breakpoints' must be a list")
        for i, p in enumerate(points):
            if not (isinstance(p, list) and len(p) == 2):
                raise InvalidInputError(
                    f"terrain file: breakpoint {i} must be an [x, height] pair, got {p!r}"
                )
            for what, v in zip(("x", "height"), p):
                finite_number(v, f"the {what} of breakpoint {i}", "terrain file")
        base = finite_number(payload.get("base_height", 0.0), "'base_height'", "terrain file")
        return Terrain([(x, h) for x, h in points], base)


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
    def height_above_support(self) -> float:
        return self.z - self.support


def initial_state(
    cfg: RobotConfig,
    terrain: Terrain | None = None,
    clock_rate: float = 1.0,
) -> SimState:
    """Nominal standing pose at x = 0, with the contact springs pre-compressed."""
    terrain = terrain or Terrain.flat()
    ground = terrain.height(0.0)
    q = np.zeros(BASE_DOF + NUM_JOINTS)
    q[1] = ground + cfg.nominal_height - cfg.settle_depth
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


def step(state: SimState, action: np.ndarray, terrain: Terrain, cfg: RobotConfig) -> SimState:
    """Advance one control period of physics substeps and the phase clock.

    Each substep is a kick-drift-kick: the kernel runs 2 * substeps force
    evaluations, half-kicks the velocities after every evaluation and drifts
    the positions after every first evaluation of a pair, so only
    substeps + 1 of the evaluations see new positions. The terms that depend
    on the positions alone (the sines and cosines, foot positions, Jacobian
    entries, terrain heights and penetrations, PD position terms and lever
    arms) are computed when a drift has made them stale and reused by the
    evaluation that follows; each evaluation computes the velocity terms
    afresh. Both legs are written out inline: a unilateral spring-damper
    normal force with Coulomb-capped tangential drag at each foot, and PD
    torques toward the action's joint targets, clipped at the actuator limit
    but with no angle limits on the targets. The substeps, the contacts and
    the support of the new state run in the compiled kernel, `_physics.c`,
    in the operation order the module docstring fixes; the first call builds
    it, and a missing or failing `cc` raises RuntimeError.

    A non-finite outcome is returned as-is; termination() classifies it as a
    blowup so the caller can cut the episode. An infinite angle, which
    math.sin cannot take, ends the substeps early with a NaN pitch.
    """
    action = np.asarray(action, dtype=float)
    if action.shape != (NUM_JOINTS,):
        raise ValueError(f"action must have {NUM_JOINTS} entries")
    global _kernel
    if _kernel is None:
        _kernel = _build_kernel()
    io = _io_view
    io[:7] = state.q
    io[7:14] = state.qdot
    io[14:18] = action
    contacts = _kernel(_io, cfg._kernel_params, terrain._kernel_terrain)
    phase = (state.phase + state.clock_rate * cfg.control_dt / cfg.cycle_duration) % 1.0
    if contacts < 0:  # a non-finite state
        contact_l = contact_r = False
        support = state.support
    else:
        contact_l = bool(contacts & 1)
        contact_r = bool(contacts & 2)
        support = float(io[18])
    return SimState(
        q=io[:7].copy(),
        qdot=io[7:14].copy(),
        t=state.t + cfg.control_dt,
        phase=phase,
        clock_rate=state.clock_rate,
        contact_left=contact_l,
        contact_right=contact_r,
        support=support,
    )


_KERNEL_SOURCE = Path(__file__).with_name("_physics.c")
# The compiled step function; the first step() call builds it.
_kernel = None
# The buffer step() hands the kernel: q, qdot and the action in, the new q
# and qdot out, and the new support at index 18. Every step() call reuses
# it, so step() must not run in two threads at once.
_io_view = np.zeros(19)
_io = (ctypes.c_double * 19).from_buffer(_io_view)


def _build_kernel():
    """Compile `_physics.c` into a temporary directory and load it.

    RuntimeError, quoting the compiler, if `cc` is missing or fails. The
    loaded library outlives its deleted file, so nothing stays on disk.
    """
    import subprocess  # imported by the build alone: importing the package skips it

    with tempfile.TemporaryDirectory() as tmp:
        library = Path(tmp) / "_physics.so"
        argv = ["cc", "-std=c99", "-O2", "-shared", "-fPIC", "-ffp-contract=off",
                "-fno-builtin", "-o", str(library), str(_KERNEL_SOURCE), "-lm"]
        try:
            done = subprocess.run(argv, capture_output=True, text=True)
        except OSError as exc:
            raise RuntimeError(f"cannot build the physics kernel: cc did not run: {exc}") from exc
        if done.returncode != 0:
            raise RuntimeError(
                f"cannot build the physics kernel: cc exited {done.returncode}: "
                f"{done.stderr.strip()}"
            )
        kernel = ctypes.CDLL(str(library)).sim_step
    doubles = ctypes.POINTER(ctypes.c_double)
    kernel.argtypes = [doubles, doubles, doubles]
    kernel.restype = ctypes.c_int
    return kernel


def _all_finite(values: list[float]) -> bool:
    """math.isfinite of every entry: no sum that could overflow."""
    return all(map(math.isfinite, values))


def termination(state: SimState, cfg: RobotConfig) -> str:
    if not _all_finite(state.q.tolist() + state.qdot.tolist()):
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


def observe(state: SimState, latent: np.ndarray) -> np.ndarray:
    """Policy observation [clock, latent command, proprioception].

    The base x never appears: height is support-relative and the linear
    velocity is expressed in the base frame, so the observation is invariant
    to horizontal translation.
    """
    latent = np.asarray(latent, dtype=float)
    angle = 2.0 * math.pi * state.phase
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


def reward(state: SimState, ref: ReferencePoint, cfg: RewardConfig) -> float:
    """Imitation reward: weighted exponentials of pose and contact errors."""
    dx = state.x - ref.x
    dz = state.height_above_support - ref.z
    dpitch = state.pitch - ref.pitch
    ec_l = float(float(state.contact_left) != ref.contact_left)
    ec_r = float(float(state.contact_right) != ref.contact_right)
    wp, wo, wc = cfg.weights
    kp, ko, kc = REWARD_SENSITIVITIES
    return (
        wp * math.exp(-kp * math.hypot(dx, dz))
        + wo * math.exp(-ko * abs(dpitch))
        + wc * math.exp(-kc * math.hypot(ec_l, ec_r))
    )

