import math

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


# --- encode / decode ----------------------------------------------------------


def test_encode_deterministic_and_shape():
    lib = rm.builtin_library("pi2")
    e, _ = tiny_params(channels=5, hidden=8, latent=4)
    walk = lib.motions[lib.index_of("walk_f")]
    z1 = enc.encode(e, walk)
    z2 = enc.encode(e, walk)
    assert np.array_equal(z1, z2)
    assert z1.shape == (4,)


def test_encode_zero_params_gives_zero_latent():
    e, _ = enc.zero_params(hidden=8, latent_dim=4, input_dim=5)
    lib = rm.builtin_library("pi2")
    z = enc.encode(e, lib.motions[0])
    np.testing.assert_array_equal(z, np.zeros(4))


def test_encode_length_robust():
    e, _ = tiny_params(channels=5, hidden=8, latent=4)
    rng = np.random.default_rng(0)
    short = motion_from(np.hstack([rng.normal(size=(5, 3)), np.zeros((5, 2))]))
    long = motion_from(np.hstack([rng.normal(size=(40, 3)), np.zeros((40, 2))]))
    assert enc.encode(e, short).shape == enc.encode(e, long).shape == (4,)


def test_encode_channel_mismatch():
    e, _ = tiny_params(channels=2)
    lib = rm.builtin_library("pi2")
    with pytest.raises(ValueError):
        enc.encode(e, lib.motions[0])


def test_decode_length_and_minimal():
    _, d = tiny_params(channels=5, hidden=8, latent=4)
    z = np.array([0.1, -0.2, 0.3, 0.0])
    out = enc.decode(d, z, 1)
    assert out.shape == (1, 5)
    out = enc.decode(d, z, 17)
    assert out.shape == (17, 5)
    with pytest.raises(ValueError):
        enc.decode(d, z, 0)


def test_decode_recurrence_is_causal():
    _, d = tiny_params(seed=3, channels=5, hidden=8, latent=4)
    z = np.array([0.3, 0.1, -0.5, 0.2])
    short = enc.decode(d, z, 4)
    long = enc.decode(d, z, 9)
    np.testing.assert_array_equal(short, long[:4])


# --- reconstruction loss --------------------------------------------------------


def test_loss_identity_is_zero():
    x = np.random.default_rng(0).normal(size=(7, 5))
    assert enc.reconstruction_loss(x, x) == 0.0


def test_loss_single_unit_error():
    x = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
    x_hat = np.zeros((1, 5))
    assert enc.reconstruction_loss(x, x_hat) == pytest.approx(0.2, abs=1e-15)


def test_loss_quadratic_homogeneity():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 5))
    e = rng.normal(size=(6, 5))
    l1 = enc.reconstruction_loss(x, x + e)
    l2 = enc.reconstruction_loss(x, x + 2.0 * e)
    assert l2 == pytest.approx(4.0 * l1, rel=1e-12)


def test_loss_shape_mismatch():
    with pytest.raises(ValueError):
        enc.reconstruction_loss(np.zeros((3, 5)), np.zeros((4, 5)))


# --- gradients -------------------------------------------------------------------


def finite_difference_gradient(e, d, seqs, h=1e-5):
    flat = enc.pack_params(e, d)
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        p = flat.copy()
        p[i] += h
        lp = enc.batch_loss(*enc.unpack_params(p, e, d), seqs)
        p[i] -= 2 * h
        lm = enc.batch_loss(*enc.unpack_params(p, e, d), seqs)
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
        e, d = enc.init_params(rng, hidden=hidden, latent_dim=latent, input_dim=channels)
        seqs = [rng.normal(size=(T, channels)), rng.normal(size=(T + 2, channels))]
        _, ge, gd = enc.autoencoder_gradient(e, d, seqs)
        analytic = enc.pack_params(ge, gd)
        fd = finite_difference_gradient(e, d, seqs)
        # guarded denominator: entries below 1e-6 are dominated by h^2 noise
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, rel.max())
    assert worst < 1e-4


def test_zero_error_batch_gives_zero_gradient():
    # all-zero parameters reconstruct all-zero sequences exactly
    e, d = enc.zero_params(hidden=4, latent_dim=2, input_dim=3)
    seqs = [np.zeros((6, 3))]
    loss, ge, gd = enc.autoencoder_gradient(e, d, seqs)
    assert loss == 0.0
    assert np.all(enc.pack_params(ge, gd) == 0.0)


def test_dead_latent_slot_has_zero_gradient():
    rng = np.random.default_rng(5)
    e, d = enc.init_params(rng, hidden=4, latent_dim=3, input_dim=2)
    dead = 1
    d.w_x[:, dead] = 0.0  # decoder never reads latent slot 1
    seqs = [rng.normal(size=(5, 2))]
    _, ge, _ = enc.autoencoder_gradient(e, d, seqs)
    np.testing.assert_array_equal(ge.w_z[dead], np.zeros(4))


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
    from modeloco.fileio import read_artifact, write_artifact

    rng = np.random.default_rng(9)
    e, d = enc.init_params(rng)
    e.norm_mean = rng.normal(size=5)
    e.norm_scale = np.abs(rng.normal(size=5)) + 0.1
    d.norm_mean, d.norm_scale = e.norm_mean, e.norm_scale
    path = tmp_path / "encoder.json"
    write_artifact(path, "encoder", enc.params_to_payload(e, d))
    e2, d2 = enc.params_from_payload(read_artifact(path, "encoder"))
    assert np.array_equal(enc.pack_params(e, d), enc.pack_params(e2, d2))
    assert np.array_equal(e.norm_mean, e2.norm_mean)
    assert np.array_equal(e.norm_scale, e2.norm_scale)


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


def _reference_forward_batch(e, d, xs):
    T = xs.shape[0]
    e_hs, e_cs, e_gates = _reference_lstm_forward(e.w_x, e.w_h, e.b, xs)
    z = e_hs[-1] @ e.w_z.T
    d_in = np.broadcast_to(z, (T,) + z.shape).copy()
    d_hs, d_cs, d_gates = _reference_lstm_forward(d.w_x, d.w_h, d.b, d_in)
    diff = d_hs[1:] @ d.w_y.T - xs
    loss = float(np.mean(diff * diff))
    return loss, (e_hs, e_cs, e_gates, d_in, d_hs, d_cs, d_gates, diff)


def _reference_batch_loss(e, d, seqs):
    total = 0.0
    for xs in enc._length_groups(seqs):
        total += _reference_forward_batch(e, d, xs)[0] * xs.shape[1]
    return total / len(seqs)


def _reference_gradient(e, d, seqs):
    g_enc, g_dec = enc.zero_params(e.hidden, e.latent_dim, e.input_dim)
    total = 0.0
    for xs in enc._length_groups(seqs):
        loss, (e_hs, e_cs, e_gates, d_in, d_hs, d_cs, d_gates, diff) = (
            _reference_forward_batch(e, d, xs)
        )
        T, B, C = xs.shape
        total += loss * B
        d_ys = 2.0 * diff / (T * C) / len(seqs)
        g_dec.w_y += np.einsum("tbc,tbh->ch", d_ys, d_hs[1:])
        dwx, dwh, db, d_dec_in = _reference_lstm_backward(
            d.w_x, d.w_h, d_in, d_hs, d_cs, d_gates, d_ys @ d.w_y
        )
        g_dec.w_x += dwx
        g_dec.w_h += dwh
        g_dec.b += db
        dz = d_dec_in.sum(axis=0)
        g_enc.w_z += dz.T @ e_hs[-1]
        d_ehs = np.zeros((T, B, e.hidden))
        d_ehs[-1] = dz @ e.w_z
        dwx, dwh, db, _ = _reference_lstm_backward(e.w_x, e.w_h, xs, e_hs, e_cs, e_gates, d_ehs)
        g_enc.w_x += dwx
        g_enc.w_h += dwh
        g_enc.b += db
    return total / len(seqs), g_enc, g_dec


def _reference_train(library, cfg):
    """Losses, packed parameters and latents of the two-pass loop."""
    from modeloco.optim import AdamState, adam_step

    mean, scale = enc.normalization_stats(library)
    seqs = [enc.normalize(m.samples, mean, scale) for m in library.motions]
    e, d = enc.init_params(np.random.default_rng(cfg.seed))
    e.norm_mean = d.norm_mean = mean
    e.norm_scale = d.norm_scale = scale
    flat = enc.pack_params(e, d)
    opt = AdamState.zeros(flat.size)
    lr_scale = 1.0
    loss = _reference_batch_loss(e, d, seqs)
    losses = [loss]
    for epoch in range(cfg.epochs):
        _, g_enc, g_dec = _reference_gradient(e, d, seqs)
        cos = 0.5 * (1.0 + math.cos(math.pi * epoch / max(1, cfg.epochs - 1)))
        lr = cfg.learning_rate * (enc.FINAL_LR_FRACTION + (1.0 - enc.FINAL_LR_FRACTION) * cos)
        flat_try, opt_try = adam_step(flat, enc.pack_params(g_enc, g_dec), opt, lr * lr_scale)
        e_try, d_try = enc.unpack_params(flat_try, e, d)
        loss_try = _reference_batch_loss(e_try, d_try, seqs)
        if loss_try <= loss + enc.ROLLBACK_TOLERANCE:
            flat, opt, e, d, loss = flat_try, opt_try, e_try, d_try, loss_try
            lr_scale = min(1.0, lr_scale * 1.05)
        else:
            lr_scale *= 0.5
        losses.append(loss)
    latents = np.array([enc.encode(e, m) for m in library.motions])
    return losses, enc.pack_params(e, d), latents


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
            assert enc.pack_params(res.encoder, res.decoder).tobytes() == flat.tobytes()
            assert res.library.latents.tobytes() == latents.tobytes()
            rejected += sum(a == b for a, b in zip(losses, losses[1:]))
    assert rejected > 0  # the runs cover steps whose gradient is reused


def test_gradient_matches_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    for _ in range(5):
        e, d = enc.init_params(rng, hidden=8, latent_dim=3, input_dim=4)
        seqs = [rng.normal(size=(int(rng.integers(2, 12)), 4)) for _ in range(5)]
        loss, ge, gd = enc.autoencoder_gradient(e, d, seqs)
        want_loss, want_ge, want_gd = _reference_gradient(e, d, seqs)
        assert loss == want_loss == _reference_batch_loss(e, d, seqs)
        assert enc.pack_params(ge, gd).tobytes() == enc.pack_params(want_ge, want_gd).tobytes()


def test_training_runs_one_forward_pass_per_epoch(monkeypatch):
    calls = {"autoencoder_gradient": 0, "batch_loss": 0}

    def counted(name):
        fn = getattr(enc, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(enc, name, counted(name))
    enc.train_autoencoder(rm.builtin_library("pi2"), enc.EncoderTrainConfig(epochs=12, seed=7))
    assert calls == {"autoencoder_gradient": 13, "batch_loss": 0}


def test_broadcast_decoder_input_matches_contiguous():
    rng = np.random.default_rng(8)
    _, d = enc.init_params(rng, hidden=6, latent_dim=3, input_dim=4)
    z = rng.normal(size=(5, 3))
    T = 9
    view = np.broadcast_to(z, (T,) + z.shape)
    dense = view.copy()
    got = enc._lstm_forward(d.w_x, d.w_h, d.b, view, z @ d.w_x.T)
    want = enc._lstm_forward(d.w_x, d.w_h, d.b, dense)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    hs, cs, gates = want
    dhs = rng.normal(size=(T, 5, 6))
    got = enc._lstm_backward(d.w_x, d.w_h, view, hs, cs, gates, dhs)
    want = enc._lstm_backward(d.w_x, d.w_h, dense, hs, cs, gates, dhs)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert got[3].sum(axis=0).tobytes() == want[3].sum(axis=0).tobytes()
    assert enc._lstm_backward(d.w_x, d.w_h, dense, hs, cs, gates, dhs, input_grad=False)[3] is None
