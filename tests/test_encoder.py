import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from modeloco import encoder as enc
from modeloco import refmotion as rm


def tiny_params(seed=0, hidden=3, latent=2, channels=2):
    rng = np.random.default_rng(seed)
    return enc.init_params(rng, hidden=hidden, latent_dim=latent, input_dim=channels)


def motion_from(samples):
    return rm.ReferenceMotion(
        name="m", samples=np.asarray(samples, dtype=float), dt=0.02, kind=rm.TRANSIENT
    )


# --- encode -------------------------------------------------------------------


def test_encode_deterministic_and_shape():
    lib = rm.builtin_library("pi2")
    e = tiny_params(channels=5, hidden=8, latent=4)
    walk = lib.motions[lib.names.index("walk_f")]
    z1 = enc.encode(e, walk)
    z2 = enc.encode(e, walk)
    assert np.array_equal(z1, z2)
    assert z1.shape == (4,)


def test_encode_zero_params_gives_zero_latent():
    e = enc.AutoencoderParams(None, np.zeros(5), np.ones(5), hidden=8, latent_dim=4)
    lib = rm.builtin_library("pi2")
    z = enc.encode(e, lib.motions[0])
    np.testing.assert_array_equal(z, np.zeros(4))


def test_encode_length_robust():
    e = tiny_params(channels=5, hidden=8, latent=4)
    rng = np.random.default_rng(0)
    short = motion_from(np.hstack([rng.normal(size=(5, 3)), np.zeros((5, 2))]))
    long = motion_from(np.hstack([rng.normal(size=(40, 3)), np.zeros((40, 2))]))
    assert enc.encode(e, short).shape == enc.encode(e, long).shape == (4,)


def test_encode_channel_mismatch():
    e = tiny_params(channels=2)
    lib = rm.builtin_library("pi2")
    with pytest.raises(ValueError):
        enc.encode(e, lib.motions[0])


# --- gradients -------------------------------------------------------------------


def finite_difference_gradient(p, seqs, h=1e-5):
    # Both networks' weights view flat, so moving an entry of flat moves them.
    flat = p.flat
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        base = flat[i]
        flat[i] = base + h
        lp = enc.autoencoder_gradient(p, seqs)[0]
        flat[i] = base - h
        lm = enc.autoencoder_gradient(p, seqs)[0]
        flat[i] = base
        fd[i] = (lp - lm) / (2 * h)
    return fd


def test_gradient_matches_finite_differences_many_configs():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(10):
        hidden = int(rng.integers(2, 4))
        latent = int(rng.integers(1, 3))
        channels = int(rng.integers(1, 4))
        T = int(rng.integers(2, 6))
        p = enc.init_params(rng, hidden=hidden, latent_dim=latent, input_dim=channels)
        seqs = [rng.normal(size=(T, channels)), rng.normal(size=(T + 2, channels))]
        _, analytic = enc.autoencoder_gradient(p, seqs)
        fd = finite_difference_gradient(p, seqs)
        # guarded denominator: entries below 1e-6 are dominated by h^2 noise
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, rel.max())
    assert worst < 1e-4


def test_zero_error_batch_gives_zero_gradient():
    # all-zero parameters reconstruct all-zero sequences exactly
    p = enc.AutoencoderParams(None, np.zeros(3), np.ones(3), hidden=4, latent_dim=2)
    seqs = [np.zeros((6, 3))]
    loss, grad = enc.autoencoder_gradient(p, seqs)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_dead_latent_slot_has_zero_gradient():
    rng = np.random.default_rng(5)
    p = enc.init_params(rng, hidden=4, latent_dim=3, input_dim=2)
    dead = 1
    p.dec_w_x[:, dead] = 0.0  # decoder never reads latent slot 1
    seqs = [rng.normal(size=(5, 2))]
    _, grad = enc.autoencoder_gradient(p, seqs)
    g = dataclasses.replace(p, flat=grad)
    np.testing.assert_array_equal(g.enc_w_z[dead], np.zeros(4))


# --- training ---------------------------------------------------------------------


def constant_library():
    keys = [rm.Keyframe(0.0, 0.0, 0.7, 0.1), rm.Keyframe(1.0, 0.0, 0.7, 0.1)]
    m = rm.interpolate_keyframes(keys, dt=0.05, name="hold", kind=rm.STEADY_STATE)
    return rm.ModeLibrary.from_motions([m])


def test_constant_trajectory_trains_to_tiny_loss():
    res = enc.train_autoencoder(
        constant_library(), enc.EncoderTrainConfig(epochs=500, seed=0)
    )
    assert res.final_loss < 1e-6


def test_training_deterministic_given_seed():
    lib = rm.builtin_library("pi2")
    cfg = enc.EncoderTrainConfig(epochs=20, seed=11)
    r1 = enc.train_autoencoder(lib, cfg)
    r2 = enc.train_autoencoder(lib, cfg)
    assert r1.losses == r2.losses
    assert np.array_equal(r1.library.latents, r2.library.latents)


def test_training_loss_non_increasing():
    lib = rm.builtin_library("pi2")
    res = enc.train_autoencoder(lib, enc.EncoderTrainConfig(epochs=150, seed=0))
    diffs = np.diff(res.losses)
    assert np.all(diffs <= 1e-9)


def test_training_fills_latents_distinctly():
    lib = rm.builtin_library("pi2")
    res = enc.train_autoencoder(
        lib, enc.EncoderTrainConfig(epochs=400, seed=0)
    )
    zs = res.library.latents
    assert zs.shape == (lib.n, 4)
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            assert np.linalg.norm(zs[i] - zs[j]) > 0.0


@pytest.mark.parametrize(
    "bad",
    [
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"learning_rate": 0.0},
        {"epochs": -1},
        {"seed": -1},
    ],
)
def test_train_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        enc.EncoderTrainConfig(**bad)


def test_empty_library_rejected():
    with pytest.raises(ValueError):
        enc.train_autoencoder(
            rm.ModeLibrary.from_motions([]), enc.EncoderTrainConfig(epochs=1)
        )


def test_params_roundtrip(tmp_path):
    """The parameter vector goes into encoder.json and comes back by joining
    its arrays in layout order."""
    from modeloco.fileio import read_artifact, write_artifact

    result = enc.train_autoencoder(rm.builtin_library("pi2"), enc.EncoderTrainConfig(epochs=3))
    params = result.params
    path = tmp_path / "encoder.json"
    write_artifact(path, "encoder", enc.params_to_payload(params))
    payload = read_artifact(path, "encoder")
    arrays = [payload["encoder"][f] for f in enc._ENC_FIELDS]
    arrays += [payload["decoder"][f] for f in enc._DEC_FIELDS]
    views = [getattr(params, "enc_" + f) for f in enc._ENC_FIELDS]
    views += [getattr(params, "dec_" + f) for f in enc._DEC_FIELDS]
    assert [a["shape"] for a in arrays] == [list(v.shape) for v in views]
    joined = np.concatenate([a["data"] for a in arrays])
    assert joined.tobytes() == params.flat.tobytes()
    assert (payload["hidden"], payload["latent_dim"], payload["input_dim"]) == (32, 4, 5)
    assert (params.hidden, params.latent_dim, params.input_dim) == (32, 4, 5)
    assert payload["norm_mean"] == params.norm_mean.tolist()
    assert payload["norm_scale"] == params.norm_scale.tolist()


# --- reference training loop ---------------------------------------------------
#
# The per-step form of the LSTM passes and the two-pass training loop, which
# scores each trial step with a separate forward pass and recomputes the
# gradient at the start of every epoch. encoder.train_autoencoder runs one
# forward pass per epoch and must match this loop byte for byte.


def _reference_sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _reference_lstm_forward(w_x, w_h, b, xs):
    T, B, _ = xs.shape
    H = w_h.shape[1]
    h = np.zeros((B, H))
    hs = np.zeros((T + 1, B, H))
    cs = np.zeros((T + 1, B, H))
    gates = np.zeros((T, B, 4 * H))
    for t in range(T):
        a = xs[t] @ w_x.T + h @ w_h.T + b
        i = _reference_sigmoid(a[:, :H])
        f = _reference_sigmoid(a[:, H : 2 * H])
        g = np.tanh(a[:, 2 * H : 3 * H])
        o = _reference_sigmoid(a[:, 3 * H :])
        c = f * cs[t] + i * g
        h = o * np.tanh(c)
        hs[t + 1] = h
        cs[t + 1] = c
        gates[t] = np.concatenate([i, f, g, o], axis=1)
    return hs, cs, gates


def _reference_lstm_backward(w_x, w_h, xs, hs, cs, gates, dhs):
    T, B, _ = xs.shape
    H = w_h.shape[1]
    d_wx = np.zeros_like(w_x)
    d_wh = np.zeros_like(w_h)
    d_b = np.zeros(4 * H)
    d_xs = np.zeros_like(xs)
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        i = gates[t][:, :H]
        f = gates[t][:, H : 2 * H]
        g = gates[t][:, 2 * H : 3 * H]
        o = gates[t][:, 3 * H :]
        tanh_c = np.tanh(cs[t + 1])
        dh = dhs[t] + dh_next
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_next
        df = dc * cs[t]
        di = dc * g
        dg = dc * i
        da = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g * g), do * o * (1.0 - o)],
            axis=1,
        )
        d_wx += da.T @ xs[t]
        d_wh += da.T @ hs[t]
        d_b += da.sum(axis=0)
        d_xs[t] = da @ w_x
        dh_next = da @ w_h
        dc_next = dc * f
    return d_wx, d_wh, d_b, d_xs


def _reference_forward_batch(p, xs):
    T = xs.shape[0]
    e_hs, e_cs, e_gates = _reference_lstm_forward(p.enc_w_x, p.enc_w_h, p.enc_b, xs)
    z = e_hs[-1] @ p.enc_w_z.T
    d_in = np.broadcast_to(z, (T,) + z.shape).copy()
    d_hs, d_cs, d_gates = _reference_lstm_forward(p.dec_w_x, p.dec_w_h, p.dec_b, d_in)
    diff = d_hs[1:] @ p.dec_w_y.T - xs
    loss = float(np.mean(diff * diff))
    return loss, (e_hs, e_cs, e_gates, d_in, d_hs, d_cs, d_gates, diff)


def _reference_batch_loss(p, seqs):
    total = 0.0
    for xs in enc._length_groups(seqs):
        total += _reference_forward_batch(p, xs)[0] * xs.shape[1]
    return total / len(seqs)


def _reference_gradient(p, seqs):
    g = enc.AutoencoderParams(None, p.norm_mean, p.norm_scale, p.hidden, p.latent_dim)
    total = 0.0
    for xs in enc._length_groups(seqs):
        loss, (e_hs, e_cs, e_gates, d_in, d_hs, d_cs, d_gates, diff) = (
            _reference_forward_batch(p, xs)
        )
        T, B, C = xs.shape
        total += loss * B
        d_ys = 2.0 * diff / (T * C) / len(seqs)
        g.dec_w_y += np.einsum("tbc,tbh->ch", d_ys, d_hs[1:])
        dwx, dwh, db, d_dec_in = _reference_lstm_backward(
            p.dec_w_x, p.dec_w_h, d_in, d_hs, d_cs, d_gates, d_ys @ p.dec_w_y
        )
        g.dec_w_x += dwx
        g.dec_w_h += dwh
        g.dec_b += db
        dz = d_dec_in.sum(axis=0)
        g.enc_w_z += dz.T @ e_hs[-1]
        d_ehs = np.zeros((T, B, p.hidden))
        d_ehs[-1] = dz @ p.enc_w_z
        dwx, dwh, db, _ = _reference_lstm_backward(
            p.enc_w_x, p.enc_w_h, xs, e_hs, e_cs, e_gates, d_ehs
        )
        g.enc_w_x += dwx
        g.enc_w_h += dwh
        g.enc_b += db
    return total / len(seqs), g.flat


def _reference_train(library, cfg):
    """Losses, packed parameters and latents of the two-pass loop."""
    from modeloco.optim import AdamState, adam_step

    mean, scale = enc.normalization_stats(library)
    seqs = [enc.normalize(m.samples, mean, scale) for m in library.motions]
    p = enc.init_params(np.random.default_rng(cfg.seed))
    p.norm_mean = mean
    p.norm_scale = scale
    flat = p.flat
    opt = AdamState.zeros(flat.size)
    lr_scale = 1.0
    loss = _reference_batch_loss(p, seqs)
    losses = [loss]
    for epoch in range(cfg.epochs):
        _, grad = _reference_gradient(p, seqs)
        cos = 0.5 * (1.0 + math.cos(math.pi * epoch / max(1, cfg.epochs - 1)))
        lr = cfg.learning_rate * (enc.FINAL_LR_FRACTION + (1.0 - enc.FINAL_LR_FRACTION) * cos)
        flat_try, opt_try = adam_step(flat, grad, opt, lr * lr_scale)
        p_try = enc.AutoencoderParams(flat_try, mean, scale, p.hidden, p.latent_dim)
        loss_try = _reference_batch_loss(p_try, seqs)
        if loss_try <= loss + enc.ROLLBACK_TOLERANCE:
            flat, opt, p, loss = flat_try, opt_try, p_try, loss_try
            lr_scale = min(1.0, lr_scale * 1.05)
        else:
            lr_scale *= 0.5
        losses.append(loss)
    latents = np.array([enc.encode(p, m) for m in library.motions])
    return losses, p.flat, latents


def _mixed_length_library():
    return rm.ModeLibrary.from_motions(
        list(constant_library().motions) + list(rm.builtin_library("pi2").motions[:2])
    )


@pytest.mark.parametrize("modeset", ["pi1", "pi2", "pi3", "mixed"])
def test_training_matches_reference_bit_for_bit(modeset):
    lib = _mixed_length_library() if modeset == "mixed" else rm.builtin_library(modeset)
    rejected = 0
    for seed in (0, 1, 7):
        for lr in (5e-3, 5e-2):
            cfg = enc.EncoderTrainConfig(epochs=20, seed=seed, learning_rate=lr)
            res = enc.train_autoencoder(lib, cfg)
            losses, flat, latents = _reference_train(lib, cfg)
            assert np.array(res.losses).tobytes() == np.array(losses).tobytes()
            assert res.params.flat.tobytes() == flat.tobytes()
            assert res.library.latents.tobytes() == latents.tobytes()
            rejected += sum(a == b for a, b in zip(losses, losses[1:]))
    assert rejected > 0  # the runs cover steps whose gradient is reused


def test_gradient_matches_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = enc.init_params(rng, hidden=8, latent_dim=3, input_dim=4)
        seqs = [rng.normal(size=(int(rng.integers(2, 12)), 4)) for _ in range(5)]
        loss, grad = enc.autoencoder_gradient(p, seqs)
        want_loss, want_grad = _reference_gradient(p, seqs)
        assert loss == want_loss == _reference_batch_loss(p, seqs)
        assert grad.tobytes() == want_grad.tobytes()


def test_training_runs_one_forward_pass_per_epoch(monkeypatch):
    calls = []
    forward_batch = enc._forward_batch

    def counted(*args):
        calls.append(None)
        return forward_batch(*args)

    monkeypatch.setattr(enc, "_forward_batch", counted)
    # pi2's clips share one length, so each forward pass is one batch.
    enc.train_autoencoder(rm.builtin_library("pi2"), enc.EncoderTrainConfig(epochs=12, seed=7))
    assert len(calls) == 13


def _counted(monkeypatch, name, result=None):
    """Patch enc.<name> to record its calls; result(n, value), when given,
    replaces the value the n-th call (from 1) returns."""
    calls = []
    fn = getattr(enc, name)

    def counted(*args):
        calls.append(None)
        value = fn(*args)
        return value if result is None else result(len(calls), value)

    monkeypatch.setattr(enc, name, counted)
    return calls


def test_training_differentiates_only_kept_steps(monkeypatch):
    lib = rm.builtin_library("pi2")
    cfg = enc.EncoderTrainConfig(epochs=40, seed=7, learning_rate=5e-2)
    want = enc.train_autoencoder(lib, cfg).losses
    backward = _counted(monkeypatch, "_backward")
    losses = enc.train_autoencoder(lib, cfg).losses
    assert np.array(losses).tobytes() == np.array(want).tobytes()
    # A rejected step leaves the loss exactly as it was.
    kept = sum(a != b for a, b in zip(losses, losses[1:]))
    assert 0 < kept < cfg.epochs
    assert len(backward) == 1 + kept


def test_non_finite_loss_names_its_epoch(monkeypatch):
    # The first forward pass scores the initial parameters; the fourth scores
    # the step proposed at epoch 2.
    _counted(monkeypatch, "_forward",
             lambda n, value: (math.nan, value[1]) if n == 4 else value)
    with pytest.raises(enc.TrainingFailure, match="non-finite loss at epoch 2"):
        enc.train_autoencoder(rm.builtin_library("pi2"), enc.EncoderTrainConfig(epochs=5))


def test_non_finite_gradient_names_its_epoch(monkeypatch):
    lib = rm.builtin_library("pi2")
    cfg = enc.EncoderTrainConfig(epochs=8, seed=7, learning_rate=5e-2)
    losses = enc.train_autoencoder(lib, cfg).losses
    # The second gradient is taken at the first kept step; the next epoch
    # starts from it.
    first_kept = next(k for k, (a, b) in enumerate(zip(losses, losses[1:])) if a != b)
    _counted(monkeypatch, "_backward",
             lambda n, value: np.full_like(value, np.inf) if n == 2 else value)
    with pytest.raises(enc.TrainingFailure,
                       match=f"non-finite gradient at epoch {first_kept + 1}$"):
        enc.train_autoencoder(lib, cfg)


def test_gradient_peak_memory_stays_near_the_forward_caches():
    """The traced peak of one gradient at pi1's shapes is bounded by a multiple
    of the bytes the forward pass must keep for the backward pass, so no
    per-time-step work array of the backward pass goes unnoticed."""
    lib = rm.builtin_library("pi1")
    mean, scale = enc.normalization_stats(lib)
    seqs = [enc.normalize(m.samples, mean, scale) for m in lib.motions]
    p = enc.init_params(np.random.default_rng(0))
    (xs,) = enc._length_groups(seqs)
    T, B, C = xs.shape
    H = p.hidden
    # Per LSTM: hs and the two cell caches over T + 1 steps, four gates over
    # T; plus the reconstruction error.
    cache_bytes = 8 * (2 * (3 * (T + 1) * B * H + T * 4 * B * H) + T * B * C)
    enc.autoencoder_gradient(p, seqs)
    tracemalloc.start()
    try:
        enc.autoencoder_gradient(p, seqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cache_bytes, (peak, cache_bytes)


def test_broadcast_decoder_input_matches_contiguous():
    rng = np.random.default_rng(8)
    p = enc.init_params(rng, hidden=6, latent_dim=3, input_dim=4)
    w_x, w_h = p.dec_w_x, p.dec_w_h
    z = rng.normal(size=(5, 3))
    T = 9
    view = np.broadcast_to(z, (T,) + z.shape)
    dense = view.copy()
    got = enc._lstm_forward(w_x, w_h, p.dec_b, view, z @ w_x.T)
    want = enc._lstm_forward(w_x, w_h, p.dec_b, dense)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    hs, cs, gates = want
    dhs = rng.normal(size=(T, 5, 6))
    got = enc._lstm_backward(w_x, w_h, view, hs, cs, gates, dhs)
    want = enc._lstm_backward(w_x, w_h, dense, hs, cs, gates, dhs)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert got[3].sum(axis=0).tobytes() == want[3].sum(axis=0).tobytes()
    assert enc._lstm_backward(w_x, w_h, dense, hs, cs, gates, dhs, input_grad=False)[3] is None
