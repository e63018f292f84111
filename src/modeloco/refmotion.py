"""Reference motion library built from hand-authored keyframes.

A reference motion is a rough, piecewise-linear sketch of the base pose of a
planar biped over one clip, optionally annotated with a per-leg contact
schedule. Motions are stored as T x 5 sample arrays with channels
(dx, z, pitch, contact_left, contact_right). Forward progress is kept as a
per-step delta dx rather than an absolute x so that clips stay bounded and
can be re-anchored at an arbitrary world position. Row i stores the step
leading out of sample i; the last row carries the wrap-around step for
periodic clips and repeats the preceding step otherwise.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

PERIODIC = "periodic"
TRANSIENT = "transient"
STEADY_STATE = "steady_state"
KINDS = (PERIODIC, TRANSIENT, STEADY_STATE)

CHANNELS = ("dx", "z", "pitch", "contact_left", "contact_right")
NUM_CHANNELS = len(CHANNELS)

NOMINAL_HEIGHT = 0.5
DEFAULT_DT = 0.02
DEFAULT_CLIP_DURATION = 1.0

MODESET_NAMES = ("pi1", "pi2", "pi3")


class InvalidInputError(ValueError):
    """Raised when a construction precondition is violated."""


class FieldError(ValueError):
    """A setting out of range; args: the field's name, what it must be, its value."""

    def __str__(self):
        return "{} {}, got {}".format(*self.args)


def check_fields(config, **rules: tuple[Callable, str]) -> None:
    """FieldError for the first field of config, in the order of rules, whose
    value fails its rule: (a test of the value, what the test asks)."""
    for name, (test, rule) in rules.items():
        if not test(value := getattr(config, name)):
            raise FieldError(name, rule, value)


AT_LEAST_ONE = (lambda v: v >= 1, "must be at least 1")
NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
IN_UNIT_INTERVAL = (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
FINITE = (math.isfinite, "must be finite")
POSITIVE_FINITE = (lambda v: math.isfinite(v) and v > 0.0, "must be positive and finite")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Keyframe:
    """One hand-authored base pose at a given clip time."""

    time: float
    base_x: float = 0.0
    base_z: float = NOMINAL_HEIGHT
    base_pitch: float = 0.0

    def __post_init__(self):
        if self.time < 0.0:
            raise InvalidInputError(f"keyframe time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class ContactPhase:
    """A phase interval [start, end) of the clip with fixed per-leg stance flags."""

    start_phase: float
    end_phase: float
    left: bool
    right: bool

    def __post_init__(self):
        if not (0.0 <= self.start_phase < self.end_phase <= 1.0):
            raise InvalidInputError(
                f"contact phase must satisfy 0 <= start < end <= 1, got "
                f"[{self.start_phase}, {self.end_phase}]"
            )


@dataclass(frozen=True)
class ReferenceMotion:
    """A sampled clip: T x 5 array of (dx, z, pitch, contact_left, contact_right)."""

    name: str
    samples: np.ndarray
    dt: float
    kind: str

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise InvalidInputError(f"a mode name must be a string, got {self.name!r}")
        object.__setattr__(self, "samples", _frozen(self.samples))
        s = self.samples
        if s.ndim != 2 or s.shape[1] != NUM_CHANNELS:
            raise InvalidInputError(f"samples must be T x {NUM_CHANNELS}, got {s.shape}")
        if s.shape[0] < 2:
            raise InvalidInputError("a motion needs at least 2 samples")
        if self.dt <= 0.0:
            raise InvalidInputError("dt must be positive")
        if self.kind not in KINDS:
            raise InvalidInputError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not np.isfinite(s).all():
            raise InvalidInputError("samples must be finite")
        contacts = s[:, 3:5]
        if not np.isin(contacts, (0.0, 1.0)).all():
            raise InvalidInputError("contact channels must be 0 or 1")
        if self.kind == PERIODIC:
            gap = np.abs(s[0, 1:3] - s[-1, 1:3]).max()
            if gap > 1e-9:
                raise InvalidInputError(
                    f"periodic motion must close in z and pitch (endpoint gap {gap:.3e})"
                )

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    @property
    def displacement(self) -> float:
        """Total forward travel over one clip (last wrap step excluded)."""
        return float(self.samples[:-1, 0].sum())

    def positions(self) -> np.ndarray:
        """Absolute x per sample, anchored at 0 (exclusive prefix sum of dx)."""
        return np.concatenate(([0.0], np.cumsum(self.samples[:-1, 0])))

    @cached_property
    def _kernel_clip(self) -> ctypes.Array:
        """The tracking kernel's copy, in `_physics.c`'s order: the top sample
        index, 1.0 for a transient clip, the displacement, then per channel
        the positions, the heights, the pitches, the left and the right
        contacts of every sample."""
        s = self.samples
        packed = np.concatenate([
            [self.length - 1, self.kind == TRANSIENT, self.displacement],
            self.positions(), s[:, 1], s[:, 2], s[:, 3], s[:, 4],
        ])
        return (ctypes.c_double * packed.size)(*packed.tolist())


@dataclass(frozen=True)
class ModeLibrary:
    """Ordered set of reference motions; the order defines the mode indices."""

    motions: tuple[ReferenceMotion, ...]
    latents: np.ndarray | None = None  # (n, latent_dim), row i encodes motions[i]

    def __post_init__(self):
        names = [m.name for m in self.motions]
        if len(set(names)) != len(names):
            raise InvalidInputError(f"mode names must be unique, got {names}")
        if self.latents is not None:
            try:
                # C order: the physics kernel reads rows of it in place.
                z = _frozen(np.array(self.latents, dtype=float, order="C"))
            except (TypeError, ValueError):
                z = None
            if z is None or z.ndim != 2 or z.shape[0] != len(self.motions) or z.shape[1] < 1:
                raise InvalidInputError(
                    f"latents must be numbers, one row of equal length for each of the "
                    f"{len(self.motions)} modes"
                )
            if not np.isfinite(z).all():
                raise InvalidInputError("latents must be finite")
            object.__setattr__(self, "latents", z)

    @staticmethod
    def from_motions(motions: Sequence[ReferenceMotion]) -> "ModeLibrary":
        return ModeLibrary(tuple(motions))

    @property
    def n(self) -> int:
        return len(self.motions)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.motions)

    def with_latents(self, latents: np.ndarray) -> "ModeLibrary":
        return ModeLibrary(self.motions, latents)


def interpolate_keyframes(
    keyframes: Sequence[Keyframe],
    dt: float = DEFAULT_DT,
    name: str = "motion",
    kind: str = PERIODIC,
) -> ReferenceMotion:
    """Sample a piecewise-linear base-pose trajectory at a uniform dt.

    The x channel is converted to per-step deltas (row 0 gets 0). Contact
    channels are left at zero; attach a schedule with apply_contact_schedule.
    """
    if len(keyframes) < 2:
        raise InvalidInputError("need at least 2 keyframes")
    if dt <= 0.0:
        raise InvalidInputError("dt must be positive")
    times = np.array([k.time for k in keyframes], dtype=float)
    if not (np.diff(times) > 0.0).all():
        raise InvalidInputError(f"keyframe times must be strictly increasing, got {times}")

    # A float quotient: an overflow gives inf without a numpy warning.
    steps = float(times[-1] - times[0]) / dt
    if not math.isfinite(steps):
        raise InvalidInputError(f"mode {name!r}: keyframes from {times[0]} s to {times[-1]} s "
                                f"at dt {dt} give too many samples to count")
    steps = int(round(steps))
    if steps < 1:
        raise InvalidInputError("clip shorter than one sample step")
    grid = times[0] + np.arange(steps + 1) * dt

    x = np.interp(grid, times, [k.base_x for k in keyframes])
    z = np.interp(grid, times, [k.base_z for k in keyframes])
    pitch = np.interp(grid, times, [k.base_pitch for k in keyframes])

    samples = np.zeros((steps + 1, NUM_CHANNELS))
    samples[:-1, 0] = np.diff(x)
    # The last dx row is never consumed by trackers (positions use the
    # exclusive prefix sum); fill it with the wrap step for periodic clips
    # and the preceding step otherwise so the channel has no fake jump.
    samples[-1, 0] = samples[0, 0] if kind == PERIODIC else samples[-2, 0]
    samples[:, 1] = z
    samples[:, 2] = pitch
    return ReferenceMotion(name=name, samples=samples, dt=dt, kind=kind)


def apply_contact_schedule(
    motion: ReferenceMotion, phases: Sequence[ContactPhase]
) -> ReferenceMotion:
    """Fill the contact channels from a schedule that tiles the clip phase [0, 1]."""
    if not phases:
        raise InvalidInputError("need at least one contact phase")
    ordered = sorted(phases, key=lambda p: p.start_phase)
    if abs(ordered[0].start_phase) > 1e-12 or abs(ordered[-1].end_phase - 1.0) > 1e-12:
        raise InvalidInputError("contact phases must cover [0, 1]")
    for a, b in zip(ordered, ordered[1:]):
        if abs(a.end_phase - b.start_phase) > 1e-12:
            raise InvalidInputError(
                f"contact phases must tile without gaps or overlap "
                f"({a.end_phase} vs {b.start_phase})"
            )

    T = motion.length
    samples = np.array(motion.samples)
    for i in range(T):
        p = i / (T - 1)
        for ph in ordered:
            if ph.start_phase <= p < ph.end_phase or (p == 1.0 and ph.end_phase == 1.0):
                samples[i, 3] = float(ph.left)
                samples[i, 4] = float(ph.right)
                break
    return replace(motion, samples=samples)


# --- built-in mode sets ----------------------------------------------------
#
# The three selectors cover increasingly contact-aware training setups:
#   pi1: idle plus walk and leap in four directions (lateral directions are
#        folded into slower backward variants in this planar world)
#   pi2: idle, forward walk, forward leap, and a transient launch onto a block
#   pi3: idle, forward walk, forward hop, forward leap, with contact
#        schedules attached to walk (legs alternating) and hop (legs together)
#
# Pose values are illustrative sketches, not captured data; any mode set can
# be overridden with a modeset definition file (see modeset_from_spec).

WALK_SCHEDULE = (
    ContactPhase(0.0, 0.5, left=True, right=False),
    ContactPhase(0.5, 1.0, left=False, right=True),
)
HOP_SCHEDULE = (
    ContactPhase(0.0, 0.5, left=True, right=True),
    ContactPhase(0.5, 1.0, left=False, right=False),
)

_Z = NOMINAL_HEIGHT
_D = DEFAULT_CLIP_DURATION


def _pose_keys(points: Sequence[tuple[float, float, float, float]]) -> list[Keyframe]:
    return [Keyframe(time=t, base_x=x, base_z=z, base_pitch=p) for t, x, z, p in points]


def _idle() -> list[Keyframe]:
    return _pose_keys([(0.0, 0.0, _Z, 0.0), (_D, 0.0, _Z, 0.0)])


def _walk(stride: float) -> list[Keyframe]:
    return _pose_keys([(0.0, 0.0, _Z, 0.0), (_D, stride, _Z, 0.0)])


def _leap(stride: float, rise: float = 0.15) -> list[Keyframe]:
    return _pose_keys(
        [
            (0.0, 0.0, _Z, 0.0),
            (0.5 * _D, 0.5 * stride, _Z + rise, 0.0),
            (_D, stride, _Z, 0.0),
        ]
    )


def _hop(stride: float, rise: float = 0.1) -> list[Keyframe]:
    return _pose_keys(
        [
            (0.0, 0.0, _Z, 0.0),
            (0.5 * _D, 0.5 * stride, _Z, 0.0),
            (0.75 * _D, 0.75 * stride, _Z + rise, 0.0),
            (_D, stride, _Z, 0.0),
        ]
    )


def _launch() -> list[Keyframe]:
    # Jump onto a 0.4 m block: z is sketched relative to the support plane,
    # which flips from the ground to the block top as the base crosses onto it.
    return _pose_keys(
        [
            (0.0, 0.0, _Z, 0.0),
            (0.2 * _D, 0.1, _Z - 0.05, -0.1),
            (0.4 * _D, 0.2, _Z + 0.45, -0.15),
            (0.6 * _D, 0.3, _Z + 0.1, 0.0),
            (_D, 0.4, _Z, 0.0),
        ]
    )


def _modeset_spec(selector: str) -> dict:
    walk_f, walk_b = 0.5, -0.5
    walk_l, walk_r = -0.3, -0.2  # lateral directions folded to slow backward
    leap_f, leap_b = 0.5, -0.5
    leap_l, leap_r = -0.3, -0.2
    if selector == "pi1":
        modes = [
            ("idle", STEADY_STATE, _idle(), None),
            ("walk_f", PERIODIC, _walk(walk_f), None),
            ("walk_b", PERIODIC, _walk(walk_b), None),
            ("walk_l", PERIODIC, _walk(walk_l), None),
            ("walk_r", PERIODIC, _walk(walk_r), None),
            ("leap_f", PERIODIC, _leap(leap_f), None),
            ("leap_b", PERIODIC, _leap(leap_b), None),
            ("leap_l", PERIODIC, _leap(leap_l), None),
            ("leap_r", PERIODIC, _leap(leap_r), None),
        ]
    elif selector == "pi2":
        modes = [
            ("idle", STEADY_STATE, _idle(), None),
            ("walk_f", PERIODIC, _walk(walk_f), None),
            ("leap_f", PERIODIC, _leap(leap_f), None),
            ("launch", TRANSIENT, _launch(), None),
        ]
    elif selector == "pi3":
        modes = [
            ("idle", STEADY_STATE, _idle(), None),
            ("walk_f", PERIODIC, _walk(walk_f), WALK_SCHEDULE),
            ("hop_f", PERIODIC, _hop(0.3), HOP_SCHEDULE),
            ("leap_f", PERIODIC, _leap(leap_f), None),
        ]
    else:
        raise InvalidInputError(
            f"unknown mode set {selector!r}; valid selectors are {', '.join(MODESET_NAMES)}"
        )
    return {
        "name": selector,
        "dt": DEFAULT_DT,
        "modes": [
            {
                "name": name,
                "kind": kind,
                "keyframes": [
                    {"time": k.time, "x": k.base_x, "z": k.base_z, "pitch": k.base_pitch}
                    for k in keys
                ],
                "contact_phases": None
                if schedule is None
                else [
                    {
                        "start": ph.start_phase,
                        "end": ph.end_phase,
                        "left": ph.left,
                        "right": ph.right,
                    }
                    for ph in schedule
                ],
            }
            for name, kind, keys, schedule in modes
        ],
    }


def _spec_field(
    entry, key: str, where: str, default=None, number: bool = False,
    source: str = "modeset spec",
):
    """entry[key] of a modeset spec (or another `source`), or default when given
    and the key is absent.

    InvalidInputError if a key without a default is missing, or if number is set
    and the value is not a finite number; a number is returned as a float.
    """
    if not isinstance(entry, dict) or (key not in entry and default is None):
        raise InvalidInputError(f"{source}: {where} has no '{key}' entry")
    value = entry.get(key, default)
    return finite_number(value, f"'{key}' of {where}", source) if number else value


def finite_number(value, what: str, source: str) -> float:
    """value as a float; InvalidInputError unless it is a finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise InvalidInputError(f"{source}: {what} must be a finite number, got {value!r}")
    return float(value)


def _spec_flag(entry, key: str, where: str) -> bool:
    """A stance flag of a modeset spec: JSON true or false, nothing else."""
    value = _spec_field(entry, key, where)
    if not isinstance(value, bool):
        raise InvalidInputError(
            f"modeset spec: '{key}' of {where} must be true or false, got {value!r}"
        )
    return value


def _spec_list(entry, key: str, where: str, source: str = "modeset spec") -> list:
    value = _spec_field(entry, key, where, source=source)
    if not isinstance(value, list):
        raise InvalidInputError(f"{source}: '{key}' of {where} must be a list")
    return value


def modeset_from_spec(spec: dict) -> ModeLibrary:
    """Build a library from a modeset definition (the gen-refs input schema).

    Schema: {"dt": float, "modes": [{"name", "kind",
    "keyframes": [{"time", "x", "z", "pitch"}],
    "contact_phases": null | [{"start", "end", "left", "right"}]}]}
    """
    modes = _spec_list(spec, "modes", "the modeset")
    dt = _spec_field(spec, "dt", "the modeset", DEFAULT_DT, number=True)
    motions = []
    for i, mode in enumerate(modes):
        where = f"mode {i}"
        name = _spec_field(mode, "name", where)
        kind = _spec_field(mode, "kind", where)
        key_at = f"a keyframe of {where}"
        keys = [
            Keyframe(
                time=_spec_field(k, "time", key_at, number=True),
                base_x=_spec_field(k, "x", key_at, 0.0, number=True),
                base_z=_spec_field(k, "z", key_at, NOMINAL_HEIGHT, number=True),
                base_pitch=_spec_field(k, "pitch", key_at, 0.0, number=True),
            )
            for k in _spec_list(mode, "keyframes", where)
        ]
        motion = interpolate_keyframes(keys, dt=dt, name=name, kind=kind)
        if mode.get("contact_phases"):
            at = f"a contact phase of {where}"
            phases = [
                ContactPhase(
                    start_phase=_spec_field(p, "start", at, number=True),
                    end_phase=_spec_field(p, "end", at, number=True),
                    left=_spec_flag(p, "left", at),
                    right=_spec_flag(p, "right", at),
                )
                for p in _spec_list(mode, "contact_phases", where)
            ]
            motion = apply_contact_schedule(motion, phases)
        motions.append(motion)
    return ModeLibrary.from_motions(motions)


def builtin_library(selector: str) -> ModeLibrary:
    """Return one of the built-in mode sets (pi1, pi2, pi3) with empty latents."""
    return modeset_from_spec(_modeset_spec(selector))


# --- serialization ---------------------------------------------------------


def library_to_payload(library: ModeLibrary) -> dict:
    return {
        "n": library.n,
        "channels": list(CHANNELS),
        "modes": [
            {
                "name": m.name,
                "kind": m.kind,
                "dt": m.dt,
                "samples": m.samples,
                "latent": None if library.latents is None else library.latents[i],
            }
            for i, m in enumerate(library.motions)
        ],
    }


def library_from_payload(payload: dict) -> ModeLibrary:
    """The library a `library_to_payload` payload describes; InvalidInputError
    names the first missing or malformed entry."""
    modes = _spec_list(payload, "modes", "the library", source="library")

    def field(i: int, key: str, number: bool = False):
        return _spec_field(modes[i], key, f"mode {i}", number=number, source="library")

    motions = tuple(
        ReferenceMotion(
            name=field(i, "name"),
            samples=np.array(field(i, "samples"), dtype=float),
            dt=field(i, "dt", number=True),
            kind=field(i, "kind"),
        )
        for i in range(len(modes))
    )
    latents = [mode.get("latent") for mode in modes]
    missing = [m.name for m, z in zip(motions, latents) if z is None]
    if len(missing) == len(motions):
        return ModeLibrary(motions)
    if missing:
        raise InvalidInputError(f"library: modes {missing} have no latent but others do")
    return ModeLibrary(motions, latents)
