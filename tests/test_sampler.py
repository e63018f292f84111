import numpy as np
import pytest

from modeloco import sampler as sa

FLOOR = 0.2  # TrainConfig's default floor


# --- returns_to_probs -------------------------------------------------------


def test_equal_returns_give_uniform():
    p = sa.returns_to_probs(np.array([0.0, 0.0, 0.0]), floor=0.2)
    np.testing.assert_allclose(p, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_hand_computed_two_mode_case():
    p = sa.returns_to_probs(np.array([10.0, 0.0]), floor=0.2)
    np.testing.assert_allclose(p, [1 / 7, 6 / 7], atol=1e-12)


def test_singleton_hits_zero_peak_branch():
    p = sa.returns_to_probs(np.array([5.0]), floor=0.2)
    np.testing.assert_allclose(p, [1.0], atol=1e-15)


def test_zero_floor_equal_returns_fall_back_to_uniform():
    p = sa.returns_to_probs(np.array([3.0, 3.0, 3.0, 3.0]), floor=0.0)
    np.testing.assert_allclose(p, [0.25, 0.25, 0.25, 0.25], atol=1e-15)


def test_empty_rejected():
    with pytest.raises(ValueError):
        sa.returns_to_probs(np.array([]), floor=0.2)


def _random_vectors(count, rng):
    for _ in range(count):
        n = int(rng.integers(1, 12))
        scale = 10.0 ** rng.integers(-3, 4)
        yield rng.normal(size=n) * scale


def test_probability_simplex_property():
    rng = np.random.default_rng(0)
    for r in _random_vectors(2000, rng):
        p = sa.returns_to_probs(r, floor=0.2)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= 1e-12


def test_anti_monotonicity_property():
    rng = np.random.default_rng(1)
    for r in _random_vectors(2000, rng):
        p = sa.returns_to_probs(r, floor=0.2)
        order = np.argsort(r)
        # lower return -> probability at least as large
        assert np.all(np.diff(p[order]) <= 1e-12)


def test_shift_invariance_property():
    rng = np.random.default_rng(2)
    for r in _random_vectors(500, rng):
        c = rng.normal() * 100.0
        p1 = sa.returns_to_probs(r, floor=0.2)
        p2 = sa.returns_to_probs(r + c, floor=0.2)
        np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_scale_invariance_property():
    rng = np.random.default_rng(3)
    for r in _random_vectors(500, rng):
        if np.ptp(r) == 0.0:
            continue
        c = float(10.0 ** rng.uniform(-2, 2))
        p1 = sa.returns_to_probs(r, floor=0.2)
        p2 = sa.returns_to_probs(c * r, floor=0.2)
        np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_floor_lower_bound_property():
    rng = np.random.default_rng(4)
    floor = 0.2
    for r in _random_vectors(1000, rng):
        p = sa.returns_to_probs(r, floor=floor)
        # exact per-instance bound: floor / sum(k) with k the floored scores
        k = -r
        k = k - k.min()
        if k.max() != 0.0:
            k = k / k.max()
        k = k + floor
        assert np.all(p >= floor / k.sum() - 1e-15)
        assert np.all(p > 0.0)


# --- scripts ----------------------------------------------------------------


@pytest.mark.parametrize(
    "clip,phase,expected",
    [
        (0, 0.25, 12),  # 12.5 rounds half to even
        (0, 0.5, 25),
        (0, 0.75, 38),  # 37.5 rounds half to even
        (1, 0.25, 62),  # 62.5 rounds half to even
        (1, 0.5, 75),
        (1, 0.75, 88),  # 87.5 rounds half to even
    ],
)
def test_switch_step_grid(clip, phase, expected):
    grid = sa.switch_steps(50)  # clip-major
    assert grid[clip * len(sa.SWITCH_PHASES) + sa.SWITCH_PHASES.index(phase)] == expected


def test_fresh_state_samples_uniformly():
    rng = np.random.default_rng(5)
    state = sa.SamplerState.fresh(4)
    counts = np.zeros(4)
    draws = 100_000
    for _ in range(draws):
        s = sa.sample_script(state, FLOOR, 50, 200, rng)
        counts[s.mode_from] += 1
    p = 1.0 / 4.0
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) < 3 * sigma)


def test_mastered_mode_sampled_least_but_still_sampled():
    rng = np.random.default_rng(6)
    state = sa.SamplerState(
        mode_returns=np.array([10.0, 0.0, 0.0, 0.0]),
        transition_returns=np.zeros((4, 4)),
    )
    counts = np.zeros(4)
    draws = 100_000
    for _ in range(draws):
        counts[sa.sample_script(state, FLOOR, 50, 200, rng).mode_from] += 1
    assert counts[0] > 0
    assert counts[0] < counts[1:].min()
    # analytic check of the sampling law itself
    p = sa.returns_to_probs(state.mode_returns, FLOOR)
    assert p[0] == min(p) and p[0] > 0.0


def test_script_fields_within_bounds():
    rng = np.random.default_rng(7)
    state = sa.SamplerState.fresh(3)
    for _ in range(500):
        s = sa.sample_script(state, FLOOR, 50, 200, rng)
        assert 0 <= s.mode_from < 3 and 0 <= s.mode_to < 3
        assert s.switch_step in sa.switch_steps(50)
        assert 0 < s.switch_step < s.horizon


# --- record updates -----------------------------------------------------------


def test_update_records_hand_case():
    state = sa.SamplerState(
        mode_returns=np.array([1.0, 0.0]),
        transition_returns=np.zeros((2, 2)),
    )
    script = sa.EpisodeScript(0, 1, 25, 200)
    new = sa.update_records(state, script, 2.0, 0.8, 0.8)
    assert new.mode_returns[0] == pytest.approx(0.8 * 1.0 + 2.0, abs=1e-15)
    assert new.transition_returns[0, 1] == pytest.approx(2.0, abs=1e-15)


def test_zero_decay_is_myopic():
    state = sa.SamplerState(
        mode_returns=np.array([5.0, 1.0]),
        transition_returns=np.full((2, 2), 9.0),
    )
    script = sa.EpisodeScript(1, 0, 25, 200)
    new = sa.update_records(state, script, 3.5, 0.0, 0.0)
    assert new.mode_returns[1] == 3.5
    assert new.transition_returns[1, 0] == 3.5


def test_records_decay_geometrically():
    state = sa.SamplerState(
        mode_returns=np.array([8.0]),
        transition_returns=np.array([[8.0]]),
    )
    script = sa.EpisodeScript(0, 0, 25, 200)
    for k in range(1, 6):
        state = sa.update_records(state, script, 0.0, 0.5, 0.5)
        assert state.mode_returns[0] == pytest.approx(8.0 * 0.5**k, abs=1e-12)


def test_update_touches_exactly_one_entry_each():
    rng = np.random.default_rng(8)
    state = sa.SamplerState(
        mode_returns=rng.normal(size=5),
        transition_returns=rng.normal(size=(5, 5)),
    )
    script = sa.EpisodeScript(2, 4, 62, 200)
    new = sa.update_records(state, script, 1.23, 0.4, 0.4)
    changed_modes = np.flatnonzero(new.mode_returns != state.mode_returns)
    changed_trans = np.argwhere(new.transition_returns != state.transition_returns)
    assert changed_modes.tolist() == [2]
    assert changed_trans.tolist() == [[2, 4]]


# --- uniform baseline -----------------------------------------------------------


def test_uniform_pair_frequencies():
    rng = np.random.default_rng(12)
    n = 4
    counts = np.zeros((n, n))
    draws = 100_000
    for _ in range(draws):
        s = sa.uniform_script(n, 50, 200, rng)
        counts[s.mode_from, s.mode_to] += 1
    p = 1.0 / 16.0
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) < 3 * sigma)


def test_uniform_singleton():
    rng = np.random.default_rng(10)
    for _ in range(10):
        s = sa.uniform_script(1, 50, 200, rng)
        assert (s.mode_from, s.mode_to) == (0, 0)


def test_uniform_ignores_records():
    # identical rng seeds give identical scripts regardless of any records
    s1 = sa.uniform_script(4, 50, 200, np.random.default_rng(11))
    s2 = sa.uniform_script(4, 50, 200, np.random.default_rng(11))
    assert s1 == s2
