import numpy as np
import pytest

from modeloco import refmotion as rm


def brute_force_interp(keyframes, times):
    """Independent per-sample linear interpolation between bracketing keyframes."""
    out = []
    for t in times:
        lo = max((k for k in keyframes if k.time <= t + 1e-15), key=lambda k: k.time)
        hi = min((k for k in keyframes if k.time >= t - 1e-15), key=lambda k: k.time)
        if hi.time == lo.time:
            w = 0.0
        else:
            w = (t - lo.time) / (hi.time - lo.time)
        out.append(
            (
                lo.base_x + w * (hi.base_x - lo.base_x),
                lo.base_z + w * (hi.base_z - lo.base_z),
                lo.base_pitch + w * (hi.base_pitch - lo.base_pitch),
            )
        )
    return np.array(out)


def test_midpoint_interpolation():
    keys = [rm.Keyframe(0.0, base_x=0.0), rm.Keyframe(1.0, base_x=1.0)]
    m = rm.interpolate_keyframes(keys, dt=0.5)
    assert m.length == 3
    np.testing.assert_allclose(m.positions(), [0.0, 0.5, 1.0], atol=1e-15)
    np.testing.assert_allclose(m.samples[:2, 0], [0.5, 0.5], atol=1e-15)


def test_identical_keyframes_stay_idle():
    keys = [rm.Keyframe(t, base_x=0.3, base_z=0.5, base_pitch=0.1) for t in (0.0, 0.4, 1.0)]
    m = rm.interpolate_keyframes(keys, dt=0.02, kind=rm.STEADY_STATE)
    assert np.all(m.samples[:, 0] == 0.0)
    assert np.all(m.samples[:, 1] == 0.5)
    assert np.all(m.samples[:, 2] == 0.1)


def test_walk_reference_against_brute_force():
    keys = [rm.Keyframe(0.0, base_x=0.0, base_z=0.5), rm.Keyframe(1.0, base_x=0.5, base_z=0.5)]
    m = rm.interpolate_keyframes(keys, dt=0.02)
    assert m.length == 51
    np.testing.assert_allclose(m.samples[:, 0], 0.01, atol=1e-12)
    np.testing.assert_allclose(m.samples[:, 1], 0.5, atol=1e-15)
    expected = brute_force_interp(keys, np.arange(51) * 0.02)
    np.testing.assert_allclose(m.positions(), expected[:, 0], atol=1e-12)
    np.testing.assert_allclose(m.samples[:, 1], expected[:, 1], atol=1e-12)
    np.testing.assert_allclose(m.samples[:, 2], expected[:, 2], atol=1e-12)


def test_interpolation_exact_at_keyframes():
    rng = np.random.default_rng(7)
    dt = 0.02
    for _ in range(20):
        ticks = np.sort(rng.choice(np.arange(1, 50), size=3, replace=False))
        keys = [rm.Keyframe(0.0, 0.0, 0.5, 0.0)]
        for tk in ticks:
            keys.append(
                rm.Keyframe(
                    tk * dt,
                    rng.normal(),
                    0.5 + rng.normal() * 0.1,
                    rng.normal() * 0.2,
                )
            )
        keys.append(rm.Keyframe(1.0, keys[0].base_x, keys[0].base_z, keys[0].base_pitch))
        m = rm.interpolate_keyframes(keys, dt=dt)
        pos = m.positions()
        for k in keys:
            i = round(k.time / dt)
            assert abs(pos[i] + keys[0].base_x - k.base_x) < 1e-12
            assert abs(m.samples[i, 1] - k.base_z) < 1e-12
            assert abs(m.samples[i, 2] - k.base_pitch) < 1e-12


def test_half_dt_resampling_is_consistent():
    keys = [
        rm.Keyframe(0.0, 0.0, 0.5, 0.0),
        rm.Keyframe(0.4, 0.2, 0.6, 0.1),
        rm.Keyframe(1.0, 0.5, 0.5, 0.0),
    ]
    coarse = rm.interpolate_keyframes(keys, dt=0.02)
    fine = rm.interpolate_keyframes(keys, dt=0.01)
    np.testing.assert_allclose(fine.positions()[::2], coarse.positions(), atol=1e-12)
    np.testing.assert_allclose(fine.samples[::2, 1], coarse.samples[:, 1], atol=1e-12)
    np.testing.assert_allclose(fine.samples[::2, 2], coarse.samples[:, 2], atol=1e-12)


def test_interpolation_input_errors():
    with pytest.raises(rm.InvalidInputError):
        rm.interpolate_keyframes([rm.Keyframe(0.0)], dt=0.02)
    with pytest.raises(rm.InvalidInputError):
        rm.interpolate_keyframes(
            [rm.Keyframe(0.5), rm.Keyframe(0.5)], dt=0.02
        )
    with pytest.raises(rm.InvalidInputError):
        rm.interpolate_keyframes(
            [rm.Keyframe(1.0), rm.Keyframe(0.0)], dt=0.02
        )


def _flat_clip():
    return rm.interpolate_keyframes(
        [rm.Keyframe(0.0, base_z=0.5), rm.Keyframe(1.0, base_z=0.5)], dt=0.02
    )


def test_walk_schedule_alternates_legs():
    m = rm.apply_contact_schedule(_flat_clip(), rm.WALK_SCHEDULE)
    pairs = {tuple(p) for p in m.samples[:, 3:5]}
    assert pairs == {(1.0, 0.0), (0.0, 1.0)}
    # left stance during the first half of the clip
    assert m.samples[0, 3] == 1.0 and m.samples[0, 4] == 0.0
    assert m.samples[30, 3] == 0.0 and m.samples[30, 4] == 1.0


def test_hop_schedule_synchronizes_legs():
    m = rm.apply_contact_schedule(_flat_clip(), rm.HOP_SCHEDULE)
    pairs = {tuple(p) for p in m.samples[:, 3:5]}
    assert pairs == {(1.0, 1.0), (0.0, 0.0)}


def test_full_coverage_schedule():
    m = rm.apply_contact_schedule(
        _flat_clip(), [rm.ContactPhase(0.0, 1.0, left=True, right=True)]
    )
    assert np.all(m.samples[:, 3:5] == 1.0)


def test_contact_schedule_errors():
    clip = _flat_clip()
    with pytest.raises(rm.InvalidInputError):
        rm.apply_contact_schedule(
            clip,
            [
                rm.ContactPhase(0.0, 0.6, True, False),
                rm.ContactPhase(0.5, 1.0, False, True),
            ],
        )
    with pytest.raises(rm.InvalidInputError):
        rm.apply_contact_schedule(
            clip,
            [
                rm.ContactPhase(0.0, 0.4, True, False),
                rm.ContactPhase(0.5, 1.0, False, True),
            ],
        )
    with pytest.raises(rm.InvalidInputError):
        rm.apply_contact_schedule(clip, [rm.ContactPhase(0.1, 1.0, True, True)])


VALID_CONTACT_PAIRS = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


@pytest.mark.parametrize("selector", ["pi1", "pi2", "pi3"])
def test_builtin_contact_pairs_valid(selector):
    lib = rm.builtin_library(selector)
    for m in lib.motions:
        for pair in m.samples[:, 3:5]:
            assert tuple(pair) in VALID_CONTACT_PAIRS


def test_builtin_pi2():
    lib = rm.builtin_library("pi2")
    assert lib.names == ("idle", "walk_f", "leap_f", "launch")
    kinds = {m.name: m.kind for m in lib.motions}
    assert kinds["idle"] == rm.STEADY_STATE
    assert kinds["launch"] == rm.TRANSIENT
    assert kinds["walk_f"] == rm.PERIODIC and kinds["leap_f"] == rm.PERIODIC
    assert lib.latents is None


def test_builtin_pi1_has_nine_modes():
    assert rm.builtin_library("pi1").n == 9


def test_builtin_pi3_contact_schedules():
    lib = rm.builtin_library("pi3")
    assert lib.n == 4
    walk = lib.motions[lib.names.index("walk_f")]
    hop = lib.motions[lib.names.index("hop_f")]
    leap = lib.motions[lib.names.index("leap_f")]
    assert {tuple(p) for p in walk.samples[:, 3:5]} == {(1.0, 0.0), (0.0, 1.0)}
    assert {tuple(p) for p in hop.samples[:, 3:5]} == {(1.0, 1.0), (0.0, 0.0)}
    assert np.all(leap.samples[:, 3:5] == 0.0)


def test_unknown_selector():
    with pytest.raises(rm.InvalidInputError, match="pi1"):
        rm.builtin_library("pi9")


def test_periodic_endpoints_close():
    for selector in ("pi1", "pi2", "pi3"):
        for m in rm.builtin_library(selector).motions:
            if m.kind == rm.PERIODIC:
                assert abs(m.samples[0, 1] - m.samples[-1, 1]) <= 1e-9
                assert abs(m.samples[0, 2] - m.samples[-1, 2]) <= 1e-9


def test_library_roundtrip_bit_exact(tmp_path):
    from modeloco.fileio import read_artifact, write_artifact

    lib = rm.builtin_library("pi3")
    rng = np.random.default_rng(0)
    lib = lib.with_latents(rng.normal(size=(lib.n, 4)))
    path = tmp_path / "library.json"
    payload = rm.library_to_payload(lib)
    write_artifact(path, "library", payload)
    back = rm.library_from_payload(read_artifact(path, "library"))
    assert back.names == lib.names
    for a, b in zip(lib.motions, back.motions):
        assert a.kind == b.kind and a.dt == b.dt
        assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(lib.latents, back.latents)


def test_duplicate_names_rejected():
    m = _flat_clip()
    with pytest.raises(rm.InvalidInputError):
        rm.ModeLibrary.from_motions([m, m])
