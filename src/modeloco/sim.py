"""Desk-scale planar biped environment.

The base is a 3-DOF rigid body (x, z, pitch) acted on by gravity and by
spring-damper ground forces at two point feet: a unilateral normal force with
Coulomb-capped tangential drag. Each leg is a hip-knee chain hanging from a
hip point slightly below the base center; joints are damped double
integrators driven by PD torques toward the action's joint targets (clipped
at the actuator limit, with no angle limits on the targets) and by the
contact force mapped through the foot Jacobian. Base and legs are
deliberately decoupled (no leg inertia reaction on the torso), which keeps
the stance/flight hybrid structure, PD semantics, and contact timing while
staying small enough to integrate with plain scalar arithmetic.

Physics substeps use velocity-Verlet (kick-drift-kick), which reproduces
ballistic flight exactly; control runs at 50 Hz over 20 substeps of 1 ms.
A step's outcome depends on the state row and the action alone, bit for bit.

A state is a row of ROW doubles: q (x, z, pitch, hip_l, knee_l, hip_r,
knee_r), qdot, the time t, the phase, the clock rate, the left and right
contact flags as 0.0 or 1.0, and the support height under the base. It is
the one state representation: every episode steps, observes, ends and is
scored as rows of a (..., ROW) float64 array.

Episodes step in lockstep batches (`Lockstep`): B rows, each with its own
latent, step budget and optional action noise, advance together, and each row
observes under its own latent. A batch runs in one kernel call
(`Lockstep.run`), which alternates the live rows' policy means with the
control step that moves them. Steps count from the batch's step 0, and every
row names its parent. A root row (parent -1) starts at step 0 from its start
row. A continuation row has a parent row p, a start step s and a budget of at
least one step: it starts at s from p's state there, if p is running there,
and never runs otherwise. So an episode whose command switches, and an
evaluation's i -> j case, are a trunk row and a continuation row of one batch;
a planner prefix continues its parent's row. Each control step steps each live
row: the action is the policy mean plus the row's noise at that step; the
physics runs; t grows by control_dt; the phase becomes
(phase + clock_rate * control_dt / cycle_duration) % 1.0, evaluated in that
order under Python's float % (C's fmod, then the remainder takes the sign of
1.0, and a zero remainder is +0.0); the contacts and the support are set; and
the status is set, a blowup (a value of q or qdot not finite) before fallen
(the base below 0.3 of the nominal height above the support, or pitched past 1
rad) before running. A row's result depends on its start state, latent,
budget and noise alone, not on the other rows of its batch or their order. A
run is the (T + 1, B, ROW) history of the batch plus the steps and the final
status of each row. A batch with noise, a training batch, also records
beside its history the observation of each state of each started row, its
last included, and the mean each live row acted on. An observation is
[clock, latent, proprioception], with no base x, so it is invariant to
horizontal translation; an infinite phase or pitch gives NaN in the entries
computed from it. The kernel allocates the run's scratch (the live rows,
their observations and means, and the policy's work block) and frees it
before it returns.

Rewards score state rows after they are stepped, one kernel call per segment
(`tracking_rewards`): a segment is the rows of one episode under one mode,
and step k's reward scores its row k + 1 against the mode's clip. Each clip
is packed once (`ReferenceMotion._kernel_clip`): its per-sample positions
(the running sum of dx from 0), heights, pitches and contacts, its
displacement, its top sample index and whether it is transient. The
reference is anchored at the segment's first row: its x at that row's phase
equals that row's x. A clip completes at each step whose phase is below the
one before, and each completed clip adds the displacement. A phase outside
[0, 1) is first reduced with float % 1.0. The reference at a phase
interpolates each channel linearly between the samples around phase * top,
as channel[i] * (1 - frac) + channel[i + 1] * frac, and takes the contacts
of sample int(phase * top); once a clip has completed, a transient clip
holds its last sample and its first clip's end x. The reward is

    wp * exp(-kp * hypot(dx, dz)) + wo * exp(-ko * |dpitch|)
    + wc * exp(-kc * hypot(ec_l, ec_r)),

summed left to right, where dz is the height above the support minus the
reference height and ec_* are 1.0 for a foot whose contact differs from the
reference. Blowup rows are scored like any other. The planner's goal
reward, exp(-hypot(goal_x - x, goal_z - z)) per row, runs in the same kernel
(`goal_rewards`). exp is libm's, the call math.exp makes; hypot is a port of
CPython's own math.hypot (its vector_norm), because libm's hypot and numpy's
round some results differently.

The steps, policy means, observations, statuses and rewards run in
`_physics.c`, a C kernel loaded through ctypes on first use for the life of
the process. It is built with `cc` once per version of its source and kept in
the package's `__pycache__`, so later processes load it without compiling
(`_cached_kernel`). The kernel keeps a fixed floating-point operation order,
so that trajectories, checkpoints and resumed runs replay bit for bit across
versions of this package. Do not reorder or regroup its arithmetic: force and
torque sums start from 0.0 (which fixes the sign of a zero total), a joint
acceleration is (tau - damping * qdot + (jx * ft + jz * fn)) / inertia,
accelerations divide by the mass and inertias rather than multiply by
reciprocals, and the half-kick uses 0.5 * h. One leg routine serves both legs;
a leg's terms that depend on the positions alone are computed once per drift
and reused by every evaluation at those positions, since their inputs are the
same each time. The compiler flags (`_CC_FLAGS`) are part of the same
contract: no -ffast-math, so every operation rounds as written;
-ffp-contract=off, so no multiply-add is fused into one rounding; and
-fno-builtin, so sin, cos, exp and fmod stay the libm calls that math.sin,
math.cos, math.exp and float % make, and sin and cos are not merged into
sincos. The policy mean is numpy's arithmetic, not the kernel's: the kernel
calls the float64 loops that np.matmul and np.tanh run, np.matmul's 'dd->d'
loop and np.tanh's first 'd->d' loop, read from numpy's public ufunc struct on
first use (`_numpy_loops`), with the dimensions and steps numpy passes them in
`policy.policy_mean`, and it adds each bias in C, where IEEE addition rounds
as numpy's does. So those two loops are part of the contract too: a numpy
whose loops cannot be found, or differ from np.matmul and np.tanh on a fixed
probe, is a RuntimeError. A tanh of the kernel's own would not do: libm's tanh
rounds many results differently from np.tanh. tests/test_sim.py holds the
plain Python references of the step, the observation, the termination, the
tracking reward and math.hypot that the kernel must match byte for byte, and
tests/test_policy.py checks the kernel's policy means against
`policy.policy_mean`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import platform
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .refmotion import (
    DEFAULT_CLIP_DURATION,
    DEFAULT_DT,
    InvalidInputError,
    ReferenceMotion,
    finite_number,
)

GRAVITY = 9.81

RUNNING = "running"
FALLEN = "fallen"
BLOWUP = "blowup"
# The termination statuses by the kernel's status code.
STATUSES = (RUNNING, FALLEN, BLOWUP)

NUM_JOINTS = 4
# The observation's widths before and after the latent.
CLOCK_DIM = 2
PROPRIO_DIM = 13


def observation_dim(latent_dim: int) -> int:
    return CLOCK_DIM + latent_dim + PROPRIO_DIM


# The state row layout, `_physics.c`'s.
Q, QDOT, TIME, PHASE, CLOCK_RATE, CONTACT_LEFT, CONTACT_RIGHT, SUPPORT, ROW = (
    0, 7, 14, 15, 16, 17, 18, 19, 20
)
X, Z, PITCH = Q, Q + 1, Q + 2


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
            self.shank_length, self.control_dt, self.substeps, GRAVITY, self.cycle_duration,
        )
        return (ctypes.c_double * len(values))(*values)


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

    @cached_property
    def _kernel_reward(self) -> ctypes.Array:
        """The tracking kernel's copy: the weights, then the sensitivities."""
        values = (*self.weights, *REWARD_SENSITIVITIES)
        return (ctypes.c_double * len(values))(*values)


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


def initial_state(cfg: RobotConfig, terrain: Terrain, clock_rate: float = 1.0) -> np.ndarray:
    """The state row of the nominal standing pose at x = 0, at rest, with the
    contact springs pre-compressed.

    Straight legs at zero pitch put both feet at x = 0, at the base height
    less the hip offset, the thigh and the shank, subtracted in that order:
    the kernel's leg kinematics at that pose, since cos 0 is 1.0 and sin 0 is
    0.0 exactly. A foot below the ground there is in contact.
    """
    ground = terrain.height(0.0)
    row = np.zeros(ROW)
    row[Z] = ground + cfg.nominal_height - cfg.settle_depth
    foot_z = row[Z] - cfg.hip_offset - cfg.thigh_length - cfg.shank_length
    row[CLOCK_RATE] = clock_rate
    row[CONTACT_LEFT] = row[CONTACT_RIGHT] = foot_z < ground
    row[SUPPORT] = ground
    return row


_KERNEL_SOURCE = Path(__file__).with_name("_physics.c")
_CC_FLAGS = ("-std=c99", "-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-builtin")
# Built libraries kept for later processes, beside the package's bytecode.
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")
# The compiled kernel library; its first use loads or builds it.
_kernel = None


def _compile(source: Path, library: Path) -> None:
    """Compile a C file into the shared library at `library`.

    RuntimeError, quoting the compiler, if `cc` is missing or fails.
    """
    import subprocess  # imported by the build alone: importing the package skips it

    argv = ["cc", *_CC_FLAGS, "-o", str(library), str(source), "-lm"]
    try:
        done = subprocess.run(argv, capture_output=True, text=True)
    except OSError as exc:
        raise RuntimeError(f"cannot build the physics kernel: cc did not run: {exc}") from exc
    if done.returncode != 0:
        raise RuntimeError(
            f"cannot build the physics kernel: cc exited {done.returncode}: "
            f"{done.stderr.strip()}"
        )


_P, _N, _D, _T = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_char_p
# The kernel's entries, the only symbols it exports: the argument types and
# the result type of each. repr_join is absent where the compiler has no
# __int128.
_ENTRIES = {
    "sim_run": ([_P, _P], _N),
    "sim_track": ([_N, _P, _P, _P, _P], _N),
    "sim_goal_rewards": ([_N, _P, _D, _D, _P], None),
    "repr_join": ([_N, _P, _N, _T, _T, _N, _T, _N, _P, _P, _P], _N),
}


def _declare(kernel):
    """kernel, with the argument and result types of its entries."""
    for name, (argtypes, restype) in _ENTRIES.items():
        if name != "repr_join" or hasattr(kernel, name):
            getattr(kernel, name).argtypes, getattr(kernel, name).restype = argtypes, restype
    return kernel


def _build_kernel(source: Path = _KERNEL_SOURCE):
    """Compile `_physics.c`, or a C file that includes it, into a temporary
    directory and load it. The loaded library outlives its deleted file, so
    nothing stays on disk."""
    with tempfile.TemporaryDirectory() as tmp:
        library = Path(tmp) / "_physics.so"
        _compile(source, library)
        return _declare(ctypes.CDLL(str(library)))


def _cached_kernel(cache: Path = _KERNEL_CACHE):
    """Load the `_physics.c` library kept in `cache`, compiling it there
    first if it is missing or unreadable.

    The file is named by a digest of the source, the flags and the machine,
    so an edited source gets a new build and an older build is removed. It
    is written under a temporary name and then renamed, so a process that
    starts meanwhile loads a whole library or builds its own. Where `cache`
    cannot be written, the kernel is built as `_build_kernel` builds it.
    """
    key = _KERNEL_SOURCE.read_bytes() + " ".join((*_CC_FLAGS, platform.machine())).encode()
    library = cache / f"_physics.{hashlib.sha256(key).hexdigest()[:16]}.so"
    with contextlib.suppress(OSError):
        return _declare(ctypes.CDLL(str(library)))
    with contextlib.suppress(OSError):
        cache.mkdir(exist_ok=True)
    if not os.access(cache, os.W_OK):
        return _build_kernel()
    partial = cache / f"{library.name}.{os.getpid()}.tmp"
    try:
        _compile(_KERNEL_SOURCE, partial)
        os.replace(partial, library)
    finally:
        partial.unlink(missing_ok=True)
    for stale in cache.glob("_physics.*.so"):
        if stale != library:
            stale.unlink(missing_ok=True)
    return _declare(ctypes.CDLL(str(library)))


def _library():
    global _kernel
    if _kernel is None:
        _kernel = _cached_kernel()
    return _kernel


def loaded_kernel():
    """The kernel library if this process has loaded it, else None. Never
    loads or builds it."""
    return _kernel


class _UfuncPrefix(ctypes.Structure):
    """The leading fields of numpy's PyUFuncObject, public C API
    (numpy/ufuncobject.h): the object header, then the loop tables."""

    _fields_ = [
        ("header", ctypes.c_char * object.__basicsize__),
        ("nin", ctypes.c_int), ("nout", ctypes.c_int), ("nargs", ctypes.c_int),
        ("identity", ctypes.c_int),
        ("functions", ctypes.POINTER(ctypes.c_void_p)),
        ("data", ctypes.POINTER(ctypes.c_void_p)),
        ("ntypes", ctypes.c_int), ("reserved1", ctypes.c_int),
        ("name", ctypes.c_char_p),
        ("types", ctypes.POINTER(ctypes.c_ubyte)),
    ]


# numpy's inner loop type, PyUFuncGenericFunction.
_UFUNC_LOOP = ctypes.CFUNCTYPE(None, ctypes.POINTER(ctypes.c_void_p),
                               ctypes.POINTER(ctypes.c_ssize_t), ctypes.POINTER(ctypes.c_ssize_t),
                               ctypes.c_void_p)


def _ufunc_loop(ufunc, name: str, signature: str) -> tuple[int, int]:
    """The function and data pointers of the first loop of `ufunc` whose
    types are `signature` ('dd->d'), read from its struct: RuntimeError,
    naming numpy's version, unless ufunc is a numpy ufunc whose struct names
    it `name` and agrees with its Python attributes on the count of loops,
    the count of arguments and that loop's type codes."""
    codes = [np.dtype(c).num for c in signature.replace("->", "")]
    if isinstance(ufunc, np.ufunc) and signature in ufunc.types:
        k = ufunc.types.index(signature)
        prefix = _UfuncPrefix.from_address(id(ufunc))
        if (prefix.name == name.encode() and prefix.ntypes == ufunc.ntypes
                and prefix.nargs == ufunc.nargs == len(codes)
                and [prefix.types[k * len(codes) + a] for a in range(len(codes))] == codes):
            return prefix.functions[k], prefix.data[k] or 0
    raise RuntimeError(f"cannot find the {signature!r} loop of numpy {np.__version__}'s "
                       f"{name} in {ufunc!r}")


@functools.cache
def _numpy_loops() -> tuple[int, int, int, int]:
    """The function and data pointers of np.matmul's 'dd->d' loop and of
    np.tanh's first 'd->d' loop, which the kernel's policy mean calls.

    Each loop is called once on a fixed probe, as the kernel calls it, and
    must give the bits np.matmul and np.tanh give; RuntimeError, naming
    numpy's version, otherwise.
    """
    matmul, matmul_data = _ufunc_loop(np.matmul, "matmul", "dd->d")
    tanh, tanh_data = _ufunc_loop(np.tanh, "tanh", "d->d")
    # A (3, 1, 5) stack times a transposed (4, 5) weight, and tanh over
    # [-20, 20], tails included.
    x = np.linspace(-2.0, 3.0, 15).reshape(3, 1, 5)
    w = np.linspace(-1.5, 1.0, 20).reshape(4, 5)
    product = np.empty((3, 1, 4))
    _UFUNC_LOOP(matmul)(
        (ctypes.c_void_p * 3)(_address(x), _address(w), _address(product)),
        (ctypes.c_ssize_t * 4)(3, 1, 5, 4), (ctypes.c_ssize_t * 9)(40, 0, 32, 0, 8, 8, 40, 0, 8),
        matmul_data,
    )
    angles = np.linspace(-20.0, 20.0, 4001)
    tanhs = angles.copy()
    _UFUNC_LOOP(tanh)((ctypes.c_void_p * 2)(_address(tanhs), _address(tanhs)),
                      (ctypes.c_ssize_t * 1)(tanhs.size), (ctypes.c_ssize_t * 2)(8, 8), tanh_data)
    if (product.tobytes() != (x @ w.T).tobytes()
            or tanhs.tobytes() != np.tanh(angles).tobytes()):
        raise RuntimeError(f"numpy {np.__version__}'s matmul and tanh loops, called as "
                           "the physics kernel calls them, differ from np.matmul and np.tanh")
    return matmul, matmul_data, tanh, tanh_data


def _address(a) -> int:
    return a.ctypes.data if isinstance(a, np.ndarray) else ctypes.addressof(a)


def _checked(a, name: str, shape: tuple) -> np.ndarray:
    """a, if it is a C-contiguous float64 array of `shape`, where None matches
    any length; ValueError otherwise, before the kernel reads it."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous
            and a.ndim == len(shape) and all(n in (None, m) for m, n in zip(a.shape, shape))):
        got = f"{a.dtype} {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__
        raise ValueError(f"{name} must be a C-contiguous float64 array of shape {shape} "
                         f"(None: any length), got {got}")
    return a


def _steps(a, name: str, rows: int, least: int = 0) -> np.ndarray:
    """a as an int64 array, if it holds `rows` integers of at least `least`;
    ValueError otherwise, before the kernel reads it."""
    a = np.asarray(a)
    if a.shape != (rows,) or (a.size and a.dtype.kind not in "iu") or (a < least).any():
        raise ValueError(f"{name} must be {rows} integers of at least {least}, got {a!r}")
    return a.astype(np.int64)


class _Batch(ctypes.Structure):
    """`_physics.c`'s struct batch."""

    _fields_ = [(name, ctypes.c_int64) for name in ("rows", "latent_dim", "noise_steps")] + [
        (name, ctypes.c_void_p) for name in (
            "history", "observed", "means", "latents", "noise", "params", "terrain", "budgets",
            "lengths", "status", "parents", "starts",
        )
    ]


class _Policy(ctypes.Structure):
    """`_physics.c`'s struct policy."""

    _fields_ = [("layers", ctypes.c_int64)] + [
        (name, ctypes.c_void_p)
        for name in ("widths", "params", "matmul", "matmul_data", "tanh", "tanh_data")
    ]


class Lockstep:
    """B state rows that step together, each under its own latent, step budget
    and optional action noise, and each naming its parent; the module
    docstring gives the contract.

    A root row, parents[b] = -1, starts at step starts[b] = 0 from
    start_rows[b]. A continuation row, with a parent p = parents[b] < b and
    a step budget of at least 1, starts at step starts[b] from p's state
    there, if p is running there, and its start row is never read; otherwise
    it never runs. So a row has started when it is a root or took a step.

    run(net) runs the batch in one kernel call. Then history[t, b] is row
    b's state at step t, lengths[b] the steps row b took and status[b] the
    status code (see STATUSES) of its last state, so a started row's states
    are history[starts[b] : starts[b] + lengths[b] + 1, b]. A row that never
    runs keeps length 0 and status running. No other entry of history is
    written. Step t's noise is noise[b, t], so noise covers the batch's last
    step.

    A batch with noise records: observed[t, b] is the observation of each
    started row's state history[t, b] under latents[b], and means[t, b] the
    mean row b acted on at step t. A batch without noise has None for both.
    """

    def __init__(
        self,
        start_rows: np.ndarray,
        latents: np.ndarray,
        budgets,
        noise: np.ndarray | None,
        terrain: Terrain,
        cfg: RobotConfig,
        parents,
        starts,
    ):
        rows = _checked(start_rows, "start rows", (None, ROW)).shape[0]
        latent_dim = _checked(latents, "latents", (rows, None)).shape[1]
        # The kernel's integer arrays, in one block: no row has run yet.
        block = np.zeros((5, rows), dtype=np.int64)
        self.budgets, self.lengths, self.status, self.parents, self.starts = block
        self.budgets[:] = _steps(budgets, "step budgets", rows)
        self.parents[:] = _steps(parents, "parents", rows, -1)
        self.starts[:] = _steps(starts, "start steps", rows)
        if (self.parents >= np.arange(rows)).any():
            raise ValueError(f"each parent must precede its row, got {self.parents!r}")
        if self.starts[self.parents < 0].any():
            raise ValueError(f"a row without a parent starts at 0, got {self.starts!r}")
        if not self.budgets[self.parents >= 0].all():
            raise ValueError(f"a row with a parent needs a step budget of at least 1, got "
                             f"{self.budgets!r}")
        steps = int((self.starts + self.budgets).max(initial=0))
        if noise is not None:
            _checked(noise, "noise", (rows, None, NUM_JOINTS))
            if noise.shape[1] < steps:
                raise ValueError(f"noise covers {noise.shape[1]} steps of {steps}")
        self.history = np.empty((steps + 1, rows, ROW))
        self.history[0] = start_rows
        self.observed, self.means = (None, None) if noise is None else (
            np.empty((steps + 1, rows, observation_dim(latent_dim))),
            np.empty((steps, rows, NUM_JOINTS)))
        # Held here, so that they live as long as the pointers the kernel reads.
        self._inputs = (latents, noise, cfg._kernel_params, terrain._kernel_terrain)
        self._batch = _Batch(
            rows, latent_dim, 0 if noise is None else noise.shape[1], _address(self.history),
            *(0 if a is None else _address(a) for a in (self.observed, self.means)),
            _address(latents), 0 if noise is None else _address(noise),
            _address(cfg._kernel_params), _address(terrain._kernel_terrain),
            *map(_address, block),
        )

    def run(self, net) -> None:
        """Run the batch from step 0 to its end in one kernel call, each live
        row acting on the mean that `net` gives for its observation: net is a
        tanh MLP, `policy.MlpParams`, whose flat parameter vector holds each
        layer's (out, in) weight, raveled, then its bias. The means are
        `policy.policy_mean`'s, bit for bit. A run starts the batch afresh,
        so it may follow another run.

        ValueError, before the kernel runs, unless net takes the batch's
        observations and gives NUM_JOINTS actions, and its parameters are a
        C-contiguous float64 vector of the size its widths need. MemoryError
        if the kernel cannot allocate the run's scratch.
        """
        widths = np.array(net.dims, dtype=np.int64)
        inputs = observation_dim(self._batch.latent_dim)
        if widths[0] != inputs or widths[-1] != NUM_JOINTS:
            raise ValueError(
                f"the batch's {inputs} observations and {NUM_JOINTS} joints need a policy of "
                f"widths ({inputs}, ..., {NUM_JOINTS}), but the policy takes {widths[0]} and "
                f"gives {widths[-1]}"
            )
        size = int((widths[:-1] + 1) @ widths[1:])
        _checked(net.flat, "policy parameters", (size,))
        policy = _Policy(len(widths) - 1, _address(widths), _address(net.flat), *_numpy_loops())
        if _library().sim_run(ctypes.addressof(self._batch), ctypes.addressof(policy)):
            raise MemoryError(f"the physics kernel cannot allocate the scratch of a run of "
                              f"{self._batch.rows} rows")

    def rows(self, b: int) -> np.ndarray:
        """Row b's states, the start first, if it has started: a C-contiguous
        copy of history[starts[b] : starts[b] + lengths[b] + 1, b]; otherwise
        an empty (0, ROW) array."""
        start, steps = self.starts[b], self.lengths[b]
        if self.parents[b] >= 0 and not steps:
            return np.empty((0, ROW))
        return self.history[start : start + steps + 1, b].copy()


# --- rewards -----------------------------------------------------------------


def tracking_rewards(
    rows: np.ndarray, motion: ReferenceMotion, reward_cfg: RewardConfig
) -> np.ndarray:
    """The imitation reward of each step of a segment of state rows against
    one library clip: entry k scores rows[k + 1]; the module docstring gives
    the contract.

    rows is a C-contiguous float64 (n + 1, ROW) array with n >= 0.
    ValueError, before the kernel writes anything, if a phase is not finite
    or the first row's phase lies outside [0, 1].
    """
    if not _checked(rows, "state rows", (None, ROW)).shape[0]:
        raise ValueError("a segment needs at least its first state row")
    rewards = np.empty(rows.shape[0] - 1)
    if _library().sim_track(
        rewards.size, _address(rows), _address(motion._kernel_clip),
        _address(reward_cfg._kernel_reward), _address(rewards),
    ):
        raise ValueError("tracking needs finite phases and a first phase in [0, 1], got "
                         f"{rows[:, PHASE]!r}")
    return rewards


def goal_rewards(rows: np.ndarray, goal_x: float, goal_z: float) -> np.ndarray:
    """The planner's reward exp(-hypot(goal_x - x, goal_z - z)) of each state
    row of a C-contiguous (..., ROW) array, in the array's leading shape."""
    _checked(rows, "state rows", (None,) * (rows.ndim - 1) + (ROW,))
    rewards = np.empty(rows.shape[:-1])
    _library().sim_goal_rewards(rewards.size, _address(rows), goal_x, goal_z,
                                _address(rewards))
    return rewards
