"""Sequence autoencoder that compresses a reference motion into one latent vector.

An LSTM encoder consumes a whole clip one sample at a time; a bias-free
linear projection of its final hidden state is the latent mode. The decoder
receives that latent repeated T times and emits a reconstruction of the clip
through its own LSTM plus a bias-free output projection. Training minimizes
the mean squared reconstruction error in a per-channel normalized space.

Everything runs in float64 numpy with handwritten backpropagation through
time, so training is bit-reproducible from a seed and gradients can be
checked against central finite differences.

The encoder and decoder are stored as one flat vector, the one Adam steps:
the encoder's w_x, w_h, b and w_z, then the decoder's w_x, w_h, b and w_y,
each raveled. Both networks' weight matrices are reshaped views into it, and
autoencoder_gradient writes its gradient into a vector of the same layout.

Training runs one forward pass per epoch: each proposed step is scored by
autoencoder_gradient, whose loss decides acceptance and whose gradient, when
the step is kept, drives the next step. A rejected step reuses the current
gradient, since the parameters it was computed at did not change. The LSTM
loops keep a fixed floating-point operation order, so losses, weights and
latents replay bit for bit across versions of this module;
tests/test_encoder.py holds the per-step reference they must match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fileio import array_from_payload, array_to_payload
from .optim import AdamState, adam_step, split_views
from .refmotion import NUM_CHANNELS, ModeLibrary, ReferenceMotion

DEFAULT_HIDDEN = 32
DEFAULT_LATENT_DIM = 4
# Training cosine-decays the step size to this fraction of the learning rate
# by the final epoch.
FINAL_LR_FRACTION = 0.02
# Loss-increase tolerance for the per-step rollback check.
ROLLBACK_TOLERANCE = 1e-9


class TrainingFailure(RuntimeError):
    """Raised when optimization produces a non-finite loss."""


@dataclass
class EncoderParams:
    """LSTM cell weights plus the latent projection (views into flat) and input normalization."""

    w_x: np.ndarray  # (4H, C) input weights, gate order i, f, g, o
    w_h: np.ndarray  # (4H, H) recurrent weights
    b: np.ndarray  # (4H,)
    w_z: np.ndarray  # (latent_dim, H) bias-free latent projection
    norm_mean: np.ndarray  # (C,)
    norm_scale: np.ndarray  # (C,)
    flat: np.ndarray  # the autoencoder's parameter vector, shared with the decoder

    @property
    def hidden(self) -> int:
        return self.w_h.shape[1]

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[1]

    @property
    def latent_dim(self) -> int:
        return self.w_z.shape[0]


@dataclass
class DecoderParams:
    """LSTM cell weights plus the output projection (views into flat) and de-normalization."""

    w_x: np.ndarray  # (4H, latent_dim)
    w_h: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)
    w_y: np.ndarray  # (C, H) bias-free output projection
    norm_mean: np.ndarray
    norm_scale: np.ndarray
    flat: np.ndarray  # the autoencoder's parameter vector, shared with the encoder

    @property
    def hidden(self) -> int:
        return self.w_h.shape[1]

    @property
    def latent_dim(self) -> int:
        return self.w_x.shape[1]


@dataclass
class EncoderTrainConfig:
    learning_rate: float = 5e-3
    epochs: int = 3000
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError("learning rate must be positive and finite")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


_ENC_FIELDS = ("w_x", "w_h", "b", "w_z")
_DEC_FIELDS = ("w_x", "w_h", "b", "w_y")


def view_params(
    flat: np.ndarray | None, norm_mean: np.ndarray, norm_scale: np.ndarray,
    hidden: int = DEFAULT_HIDDEN, latent_dim: int = DEFAULT_LATENT_DIM,
) -> tuple[EncoderParams, DecoderParams]:
    """The encoder and decoder whose weights are views into flat (a zero
    vector when None), in _ENC_FIELDS then _DEC_FIELDS order; the input size
    is the length of the normalization stats."""
    g, c = 4 * hidden, norm_mean.shape[0]
    shapes = [(g, c), (g, hidden), (g,), (latent_dim, hidden),
              (g, latent_dim), (g, hidden), (g,), (c, hidden)]
    if flat is None:
        flat = np.zeros(sum(math.prod(shape) for shape in shapes))
    views = split_views(flat, shapes)
    return (
        EncoderParams(*views[:4], norm_mean, norm_scale, flat),
        DecoderParams(*views[4:], norm_mean, norm_scale, flat),
    )


def zero_params(
    hidden: int = DEFAULT_HIDDEN,
    latent_dim: int = DEFAULT_LATENT_DIM,
    input_dim: int = NUM_CHANNELS,
) -> tuple[EncoderParams, DecoderParams]:
    """All-zero weights with identity normalization; mainly for tests."""
    return view_params(None, np.zeros(input_dim), np.ones(input_dim), hidden, latent_dim)


def init_params(
    rng: np.random.Generator,
    hidden: int = DEFAULT_HIDDEN,
    latent_dim: int = DEFAULT_LATENT_DIM,
    input_dim: int = NUM_CHANNELS,
) -> tuple[EncoderParams, DecoderParams]:
    """Uniform weights in +-1/sqrt(hidden) with identity normalization."""
    enc, dec = zero_params(hidden, latent_dim, input_dim)
    k = 1.0 / math.sqrt(hidden)
    for p in (enc, dec):
        p.w_x[...] = rng.uniform(-k, k, size=p.w_x.shape)
        p.w_h[...] = rng.uniform(-k, k, size=p.w_h.shape)
        p.b[hidden : 2 * hidden] = 1.0  # forget-gate bias keeps early memory open
    enc.w_z[...] = rng.uniform(-k, k, size=enc.w_z.shape)
    dec.w_y[...] = rng.uniform(-k, k, size=dec.w_y.shape)
    return enc, dec


def _lstm_forward(w_x, w_h, b, xs, x_proj=None):
    """Run the cell over xs of shape (T, B, D); returns hidden states and caches.

    x_proj, when given, is the input projection xs[t] @ w_x.T that every
    step shares (a repeated input such as the decoder's latent); xs then only
    sets the shapes and may be a broadcast view. The cell cache cs holds
    c_t in cs[0] and tanh(c_t), which the backward pass reuses, in cs[1].
    """
    T, B, _ = xs.shape
    H = w_h.shape[1]
    w_xT = w_x.T
    w_hT = w_h.T
    hs = np.zeros((T + 1, B, H))
    cs = np.zeros((2, T + 1, B, H))
    cells, tanh_cells = cs
    gates = np.zeros((T, B, 4 * H))
    for t in range(T):
        proj = xs[t] @ w_xT if x_proj is None else x_proj
        a = proj + hs[t] @ w_hT + b
        # Sigmoid 0.5 * (1 + tanh(0.5 * a)) over all four blocks, then tanh
        # overwrites the g block.
        gt = gates[t]
        np.multiply(a, 0.5, out=gt)
        np.tanh(gt, out=gt)
        gt += 1.0
        gt *= 0.5
        np.tanh(a[:, 2 * H : 3 * H], out=gt[:, 2 * H : 3 * H])
        c = cells[t + 1]
        np.multiply(gt[:, H : 2 * H], cells[t], out=c)
        c += gt[:, :H] * gt[:, 2 * H : 3 * H]
        np.tanh(c, out=tanh_cells[t + 1])
        np.multiply(tanh_cells[t + 1], gt[:, 3 * H :], out=hs[t + 1])
    return hs, cs, gates


def _lstm_backward(w_x, w_h, xs, hs, cs, gates, dhs, input_grad=True):
    """Backpropagate through time.

    dhs has shape (T, B, H): the gradient arriving at each step's hidden
    output from outside the recurrence. Returns gradients for the cell
    weights and for the inputs xs; the last is None when input_grad is
    false, as for the encoder, whose inputs are data.
    """
    T, B, _ = xs.shape
    H = w_h.shape[1]
    d_wx = np.zeros_like(w_x)
    d_wh = np.zeros_like(w_h)
    d_b = np.zeros(4 * H)
    # np.zeros, not zeros_like: a broadcast xs would give d_xs its strides,
    # which changes the order of a later sum over time.
    d_xs = np.zeros(xs.shape) if input_grad else None
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    da = np.empty((B, 4 * H))
    cells, tanh_cells = cs
    for t in range(T - 1, -1, -1):
        gt = gates[t]
        i = gt[:, :H]
        f = gt[:, H : 2 * H]
        g = gt[:, 2 * H : 3 * H]
        tanh_c = tanh_cells[t + 1]
        dh = dhs[t] + dh_next
        dc = dh * gt[:, 3 * H :] * (1.0 - tanh_c * tanh_c) + dc_next
        # Gate pre-activation gradients: sigmoid blocks get
        # (d * s) * (1 - s) at full width, then the g block is overwritten
        # with its tanh derivative.
        np.multiply(dc, g, out=da[:, :H])
        np.multiply(dc, cells[t], out=da[:, H : 2 * H])
        np.multiply(dh, tanh_c, out=da[:, 3 * H :])
        da *= gt
        da *= 1.0 - gt
        np.multiply(dc * i, 1.0 - g * g, out=da[:, 2 * H : 3 * H])
        d_wx += da.T @ xs[t]
        d_wh += da.T @ hs[t]
        d_b += da.sum(axis=0)
        if input_grad:
            d_xs[t] = da @ w_x
        dh_next = da @ w_h
        dc_next = dc * f
    return d_wx, d_wh, d_b, d_xs


def normalize(samples: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return (samples - mean) / scale


def denormalize(samples: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return samples * scale + mean


def normalization_stats(library: ModeLibrary) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and half-range spread over the whole library.

    Half-range scaling gives every channel the same relative resolution in
    the normalized space regardless of its physical units. Channels with no
    variation get scale 1 so normalization stays invertible.
    """
    stacked = np.concatenate([m.samples for m in library.motions], axis=0)
    mean = stacked.mean(axis=0)
    scale = 0.5 * (stacked.max(axis=0) - stacked.min(axis=0))
    scale[scale < 1e-12] = 1.0
    return mean, scale


def encode(params: EncoderParams, motion: ReferenceMotion) -> np.ndarray:
    """Deterministically map one clip to its latent vector."""
    if motion.samples.shape[1] != params.input_dim:
        raise ValueError(
            f"motion has {motion.samples.shape[1]} channels, encoder expects "
            f"{params.input_dim}"
        )
    xs = normalize(motion.samples, params.norm_mean, params.norm_scale)[:, None, :]
    hs, _, _ = _lstm_forward(params.w_x, params.w_h, params.b, xs)
    return hs[-1][0] @ params.w_z.T


def decode(params: DecoderParams, z: np.ndarray, T: int) -> np.ndarray:
    """Reconstruct a T-step trajectory (raw units) from one latent vector."""
    if T < 1:
        raise ValueError("T must be >= 1")
    z = np.asarray(z, dtype=float)
    xs = np.broadcast_to(z, (T, 1, z.shape[0]))
    hs, _, _ = _lstm_forward(params.w_x, params.w_h, params.b, xs, xs[0] @ params.w_x.T)
    ys = hs[1:, 0] @ params.w_y.T
    return denormalize(ys, params.norm_mean, params.norm_scale)


def reconstruction_loss(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Mean squared error over every trajectory entry."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    d = x - x_hat
    return float(np.mean(d * d))


def _forward_batch(enc: EncoderParams, dec: DecoderParams, xs: np.ndarray):
    """Autoencode a normalized batch xs of shape (T, B, C); returns loss and caches."""
    T = xs.shape[0]
    e_hs, e_cs, e_gates = _lstm_forward(enc.w_x, enc.w_h, enc.b, xs)
    z = e_hs[-1] @ enc.w_z.T  # (B, latent)
    d_in = np.broadcast_to(z, (T,) + z.shape)
    d_hs, d_cs, d_gates = _lstm_forward(dec.w_x, dec.w_h, dec.b, d_in, z @ dec.w_x.T)
    ys = d_hs[1:] @ dec.w_y.T  # (T, B, C)
    diff = ys - xs
    loss = float(np.mean(diff * diff))
    return loss, (e_hs, e_cs, e_gates, z, d_in, d_hs, d_cs, d_gates, ys, diff)


def _length_groups(sequences: list[np.ndarray]) -> list[np.ndarray]:
    """Stack equal-length sequences into (T, B, C) batches, preserving order."""
    by_len: dict[int, list[np.ndarray]] = {}
    for seq in sequences:
        by_len.setdefault(seq.shape[0], []).append(seq)
    return [np.stack(group, axis=1) for group in by_len.values()]


def batch_loss(enc: EncoderParams, dec: DecoderParams, sequences: list[np.ndarray]) -> float:
    """Mean per-sequence reconstruction MSE on normalized sequences."""
    total = 0.0
    for xs in _length_groups(sequences):
        loss, _ = _forward_batch(enc, dec, xs)
        total += loss * xs.shape[1]
    return total / len(sequences)


def autoencoder_gradient(
    enc: EncoderParams, dec: DecoderParams, sequences: list[np.ndarray]
):
    """Analytic gradient of batch_loss via backpropagation through time.

    sequences are normalized (T, C) arrays; lengths may differ. Returns
    (loss, encoder gradients, decoder gradients) with gradients shaped like
    the parameter structs and viewing one vector laid out like their flat
    (normalization stats are not differentiated).
    """
    g_enc, g_dec = view_params(None, enc.norm_mean, enc.norm_scale, enc.hidden, enc.latent_dim)
    total = 0.0
    n_seq = len(sequences)
    for xs in _length_groups(sequences):
        loss, cache = _forward_batch(enc, dec, xs)
        e_hs, e_cs, e_gates, z, d_in, d_hs, d_cs, d_gates, ys, diff = cache
        T, B, C = xs.shape
        total += loss * B
        # d(mean over all sequences of per-sequence MSE)
        d_ys = 2.0 * diff / (T * C) / n_seq
        g_dec.w_y += np.einsum("tbc,tbh->ch", d_ys, d_hs[1:])
        d_dhs = d_ys @ dec.w_y
        dwx, dwh, db, d_dec_in = _lstm_backward(
            dec.w_x, dec.w_h, d_in, d_hs, d_cs, d_gates, d_dhs
        )
        g_dec.w_x += dwx
        g_dec.w_h += dwh
        g_dec.b += db
        dz = d_dec_in.sum(axis=0)  # repeated input: gradients add over time
        g_enc.w_z += dz.T @ e_hs[-1]
        d_ehs = np.zeros((T, B, enc.hidden))
        d_ehs[-1] = dz @ enc.w_z
        dwx, dwh, db, _ = _lstm_backward(
            enc.w_x, enc.w_h, xs, e_hs, e_cs, e_gates, d_ehs, input_grad=False
        )
        g_enc.w_x += dwx
        g_enc.w_h += dwh
        g_enc.b += db
    return total / n_seq, g_enc, g_dec


@dataclass
class TrainResult:
    encoder: EncoderParams
    decoder: DecoderParams
    library: ModeLibrary
    losses: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def train_autoencoder(library: ModeLibrary, cfg: EncoderTrainConfig) -> TrainResult:
    """Fit the autoencoder on every clip in the library and fill in the latents.

    Full-batch Adam, deterministic from cfg.seed. Each proposed step is kept
    only if it does not increase the loss beyond ROLLBACK_TOLERANCE;
    rejected steps halve an internal step-size scale, so the recorded loss
    history is non-increasing.
    """
    if library.n == 0:
        raise ValueError("library is empty")
    mean, scale = normalization_stats(library)
    sequences = [normalize(m.samples, mean, scale) for m in library.motions]

    start, _ = init_params(np.random.default_rng(cfg.seed))
    enc, dec = view_params(start.flat, mean, scale)
    opt = AdamState.zeros(enc.flat.size)
    lr_scale = 1.0

    loss, g_enc, _ = autoencoder_gradient(enc, dec, sequences)
    grad = g_enc.flat
    losses = [loss]
    for epoch in range(cfg.epochs):
        if not np.isfinite(grad).all():
            raise TrainingFailure(f"non-finite gradient at epoch {len(losses) - 1}")
        cos = 0.5 * (1.0 + math.cos(math.pi * epoch / max(1, cfg.epochs - 1)))
        lr = cfg.learning_rate * (FINAL_LR_FRACTION + (1.0 - FINAL_LR_FRACTION) * cos)
        flat_try, opt_try = adam_step(enc.flat, grad, opt, lr * lr_scale)
        enc_try, dec_try = view_params(flat_try, mean, scale)
        loss_try, g_enc, _ = autoencoder_gradient(enc_try, dec_try, sequences)
        if not math.isfinite(loss_try):
            raise TrainingFailure(f"non-finite loss at epoch {len(losses) - 1}")
        if loss_try <= loss + ROLLBACK_TOLERANCE:
            enc, dec, opt = enc_try, dec_try, opt_try
            loss = loss_try
            grad = g_enc.flat
            lr_scale = min(1.0, lr_scale * 1.05)
        else:
            lr_scale *= 0.5
        losses.append(loss)

    latents = np.array([encode(enc, motion) for motion in library.motions])
    return TrainResult(
        encoder=enc,
        decoder=dec,
        library=library.with_latents(latents),
        losses=losses,
    )


# --- serialization ---------------------------------------------------------


def params_to_payload(enc: EncoderParams, dec: DecoderParams) -> dict:
    return {
        "hidden": enc.hidden,
        "latent_dim": enc.latent_dim,
        "input_dim": enc.input_dim,
        "norm_mean": enc.norm_mean.tolist(),
        "norm_scale": enc.norm_scale.tolist(),
        "encoder": {f: array_to_payload(getattr(enc, f)) for f in _ENC_FIELDS},
        "decoder": {f: array_to_payload(getattr(dec, f)) for f in _DEC_FIELDS},
    }


def params_from_payload(payload: dict) -> tuple[EncoderParams, DecoderParams]:
    flat = np.concatenate([
        array_from_payload(payload[net][f]).ravel()
        for net, fields in (("encoder", _ENC_FIELDS), ("decoder", _DEC_FIELDS))
        for f in fields
    ])
    mean = np.array(payload["norm_mean"], dtype=float)
    scale = np.array(payload["norm_scale"], dtype=float)
    return view_params(flat, mean, scale, payload["hidden"], payload["latent_dim"])
