"""Sequence autoencoder that compresses a reference motion into one latent vector.

An LSTM encoder consumes a whole clip one sample at a time; a bias-free
linear projection of its final hidden state is the latent mode, which
`encode` computes for each clip of the library. During training a decoder
receives that latent repeated T times and emits a reconstruction of the clip
through its own LSTM plus a bias-free output projection; the loss is the mean
squared reconstruction error in a per-channel normalized space.

Everything runs in float64 numpy with handwritten backpropagation through
time, so training is bit-reproducible from a seed and gradients can be
checked against central finite differences.

One AutoencoderParams holds both networks: its flat vector, the one Adam
steps, lays out the encoder's w_x, w_h, b and w_z, then the decoder's w_x,
w_h, b and w_y, each raveled, and its weight matrices are reshaped views into
it. _forward_batch is the only forward pass of the whole autoencoder: it
returns the loss and the caches that the backward pass reads.
autoencoder_gradient runs the forward pass, then the backward pass, and
returns the loss and a gradient vector of the same layout.

Training runs one forward pass per epoch: each proposed step is scored by
the forward pass alone, and its loss decides acceptance. Only a kept step
runs the backward pass, over that forward pass's caches, and its gradient
drives the next step. A rejected step skips the backward pass and reuses the
current gradient, since the parameters it was computed at did not change.
The LSTM loops keep a fixed floating-point operation order, and every matrix
product keeps its operands' layout, so losses, weights and latents replay
bit for bit across versions of this module; tests/test_encoder.py holds the
per-step reference they must match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fileio import array_to_payload
from .optim import AdamState, adam_step, split_views
from .refmotion import (
    NON_NEGATIVE, NUM_CHANNELS, POSITIVE_FINITE, ModeLibrary, ReferenceMotion, check_fields,
)

DEFAULT_HIDDEN = 32
DEFAULT_LATENT_DIM = 4
# Training cosine-decays the step size to this fraction of the learning rate
# by the final epoch.
FINAL_LR_FRACTION = 0.02
# Loss-increase tolerance for the per-step rollback check.
ROLLBACK_TOLERANCE = 1e-9


class TrainingFailure(RuntimeError):
    """Raised when optimization produces a non-finite loss."""


# The parameter vector's layout: the encoder's arrays, then the decoder's.
_ENC_FIELDS = ("w_x", "w_h", "b", "w_z")
_DEC_FIELDS = ("w_x", "w_h", "b", "w_y")


@dataclass
class AutoencoderParams:
    """Both LSTMs' weights and projections, views into flat in _ENC_FIELDS then
    _DEC_FIELDS order, and the per-channel input normalization. A None flat
    becomes a zero vector; the input size is the length of the normalization."""

    flat: np.ndarray | None
    norm_mean: np.ndarray  # (C,)
    norm_scale: np.ndarray  # (C,)
    hidden: int = DEFAULT_HIDDEN
    latent_dim: int = DEFAULT_LATENT_DIM
    enc_w_x: np.ndarray = field(init=False)  # (4H, C) input weights, gate order i, f, g, o
    enc_w_h: np.ndarray = field(init=False)  # (4H, H) recurrent weights
    enc_b: np.ndarray = field(init=False)  # (4H,)
    enc_w_z: np.ndarray = field(init=False)  # (latent_dim, H) bias-free latent projection
    dec_w_x: np.ndarray = field(init=False)  # (4H, latent_dim)
    dec_w_h: np.ndarray = field(init=False)  # (4H, H)
    dec_b: np.ndarray = field(init=False)  # (4H,)
    dec_w_y: np.ndarray = field(init=False)  # (C, H) bias-free output projection

    def __post_init__(self):
        g, h, c, z = 4 * self.hidden, self.hidden, self.input_dim, self.latent_dim
        shapes = [(g, c), (g, h), (g,), (z, h), (g, z), (g, h), (g,), (c, h)]
        if self.flat is None:
            self.flat = np.zeros(sum(math.prod(shape) for shape in shapes))
        (self.enc_w_x, self.enc_w_h, self.enc_b, self.enc_w_z,
         self.dec_w_x, self.dec_w_h, self.dec_b, self.dec_w_y) = split_views(self.flat, shapes)

    @property
    def input_dim(self) -> int:
        return self.norm_mean.shape[0]


@dataclass
class EncoderTrainConfig:
    learning_rate: float = 5e-3
    epochs: int = 3000
    seed: int = 0

    def __post_init__(self):
        check_fields(self, learning_rate=POSITIVE_FINITE, epochs=NON_NEGATIVE, seed=NON_NEGATIVE)


def init_params(
    rng: np.random.Generator,
    hidden: int = DEFAULT_HIDDEN,
    latent_dim: int = DEFAULT_LATENT_DIM,
    input_dim: int = NUM_CHANNELS,
) -> AutoencoderParams:
    """Uniform weights in +-1/sqrt(hidden) with identity normalization."""
    p = AutoencoderParams(None, np.zeros(input_dim), np.ones(input_dim), hidden, latent_dim)
    k = 1.0 / math.sqrt(hidden)
    for w_x, w_h, b in ((p.enc_w_x, p.enc_w_h, p.enc_b), (p.dec_w_x, p.dec_w_h, p.dec_b)):
        w_x[...] = rng.uniform(-k, k, size=w_x.shape)
        w_h[...] = rng.uniform(-k, k, size=w_h.shape)
        b[hidden : 2 * hidden] = 1.0  # forget-gate bias keeps early memory open
    p.enc_w_z[...] = rng.uniform(-k, k, size=p.enc_w_z.shape)
    p.dec_w_y[...] = rng.uniform(-k, k, size=p.dec_w_y.shape)
    return p


def _lstm_forward(w_x, w_h, b, xs, x_proj=None):
    """Run the cell over xs of shape (T, B, D); returns hidden states and caches.

    x_proj, when given, is the input projection xs[t] @ w_x.T that every
    step shares (a repeated input such as the decoder's latent); xs then only
    sets the shapes and may be a broadcast view. Otherwise one stacked matmul
    projects every step's input; its slices equal the per-step products bit
    for bit. gates holds each step's i, f, g and o as four contiguous (B, H)
    blocks. The cell cache cs holds c_t in cs[0] and tanh(c_t), which the
    backward pass reuses, in cs[1].
    """
    T, B, _ = xs.shape
    H = w_h.shape[1]
    w_hT = w_h.T
    proj = np.matmul(xs, w_x.T) if x_proj is None else None
    b_rows = np.broadcast_to(b, (B, 4 * H)).copy()
    hs = np.zeros((T + 1, B, H))
    cs = np.zeros((2, T + 1, B, H))
    cells, tanh_cells = cs
    gates = np.zeros((T, 4, B, H))
    gates_i, gates_f, gates_g, gates_o = gates.transpose(1, 0, 2, 3)
    a = np.empty((B, 4 * H))
    a_as_blocks = a.reshape(B, 4, H).transpose(1, 0, 2)
    a_blocks = np.empty((4, B, H))
    ig = np.empty((B, H))
    for t in range(T):
        gt, g = gates[t], gates_g[t]
        # proj + h @ w_h.T + b; a sum of two terms is the same either way round.
        np.matmul(hs[t], w_hT, out=a)
        a += x_proj if proj is None else proj[t]
        a += b_rows
        # Sigmoid 0.5 * (1 + tanh(0.5 * a)) over all four blocks, then tanh
        # overwrites the g block.
        np.copyto(a_blocks, a_as_blocks)
        np.multiply(a_blocks, 0.5, out=gt)
        np.tanh(gt, out=gt)
        gt += 1.0
        gt *= 0.5
        np.tanh(a_blocks[2], out=g)
        c = cells[t + 1]
        np.multiply(gates_f[t], cells[t], out=c)
        np.multiply(gates_i[t], g, out=ig)
        c += ig
        np.tanh(c, out=tanh_cells[t + 1])
        np.multiply(tanh_cells[t + 1], gates_o[t], out=hs[t + 1])
    return hs, cs, gates


def _lstm_backward(w_x, w_h, xs, hs, cs, gates, dhs, input_grad=True):
    """Backpropagate through time.

    dhs has shape (T, B, H): the gradient arriving at each step's hidden
    output from outside the recurrence. Returns gradients for the cell
    weights and for the inputs xs; the last is None when input_grad is
    false, as for the encoder, whose inputs are data. Each step works in the
    (B, .) buffers allocated here, gate by gate in contiguous blocks, and
    adds its weight products to the sums one step at a time.
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
    dh, dc, tmp = np.zeros((3, B, H))
    da_blocks = np.zeros((4, B, H))
    da_i, da_f, da_g, da_o = da_blocks
    one_minus = np.zeros((4, B, H))  # 1 - s, then 1 - g * g in the g block
    one_minus_g = one_minus[2]
    # The products below take da as one (B, 4H) matrix.
    da = np.zeros((B, 4 * H))
    da_T = da.T
    da_as_blocks = da.reshape(B, 4, H).transpose(1, 0, 2)
    prod_x = np.zeros_like(w_x)
    prod_h = np.zeros_like(w_h)
    prod_b = np.zeros(4 * H)
    cells, tanh_cells = cs
    gates_i, gates_f, gates_g, gates_o = gates.transpose(1, 0, 2, 3)
    for t in range(T - 1, -1, -1):
        gt, i, g = gates[t], gates_i[t], gates_g[t]
        tanh_c = tanh_cells[t + 1]
        np.add(dhs[t], dh_next, out=dh)
        # dc = dh * o * (1 - tanh_c * tanh_c) + dc_next
        np.multiply(dh, gates_o[t], out=dc)
        np.multiply(tanh_c, tanh_c, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dc *= tmp
        dc += dc_next
        # Gate pre-activation gradients: sigmoid blocks get
        # (d * s) * (1 - s) at full width, then the g block is overwritten
        # with its tanh derivative (dc * i) * (1 - g * g).
        np.multiply(dc, g, out=da_i)
        np.multiply(dc, cells[t], out=da_f)
        np.multiply(dh, tanh_c, out=da_o)
        da_blocks *= gt
        np.subtract(1.0, gt, out=one_minus)
        da_blocks *= one_minus
        np.multiply(g, g, out=one_minus_g)
        np.subtract(1.0, one_minus_g, out=one_minus_g)
        np.multiply(dc, i, out=tmp)
        np.multiply(tmp, one_minus_g, out=da_g)
        np.copyto(da_as_blocks, da_blocks)
        np.matmul(da_T, xs[t], out=prod_x)
        d_wx += prod_x
        np.matmul(da_T, hs[t], out=prod_h)
        d_wh += prod_h
        np.add.reduce(da, axis=0, out=prod_b)
        d_b += prod_b
        if input_grad:
            np.matmul(da, w_x, out=d_xs[t])
        np.matmul(da, w_h, out=dh_next)
        np.multiply(dc, gates_f[t], out=dc_next)
    return d_wx, d_wh, d_b, d_xs


def normalize(samples: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return (samples - mean) / scale


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


def encode(params: AutoencoderParams, motion: ReferenceMotion) -> np.ndarray:
    """Deterministically map one clip to its latent vector."""
    if motion.samples.shape[1] != params.input_dim:
        raise ValueError(
            f"motion has {motion.samples.shape[1]} channels, encoder expects "
            f"{params.input_dim}"
        )
    xs = normalize(motion.samples, params.norm_mean, params.norm_scale)[:, None, :]
    hs, _, _ = _lstm_forward(params.enc_w_x, params.enc_w_h, params.enc_b, xs)
    return hs[-1][0] @ params.enc_w_z.T


def _forward_batch(p: AutoencoderParams, xs: np.ndarray):
    """Autoencode a normalized batch xs of shape (T, B, C); returns loss and caches."""
    T = xs.shape[0]
    e_hs, e_cs, e_gates = _lstm_forward(p.enc_w_x, p.enc_w_h, p.enc_b, xs)
    z = e_hs[-1] @ p.enc_w_z.T  # (B, latent)
    d_in = np.broadcast_to(z, (T,) + z.shape)
    d_hs, d_cs, d_gates = _lstm_forward(p.dec_w_x, p.dec_w_h, p.dec_b, d_in, z @ p.dec_w_x.T)
    diff = d_hs[1:] @ p.dec_w_y.T - xs  # (T, B, C)
    loss = float(np.mean(diff * diff))
    return loss, (e_hs, e_cs, e_gates, d_in, d_hs, d_cs, d_gates, diff)


def _length_groups(sequences: list[np.ndarray]) -> list[np.ndarray]:
    """Stack equal-length sequences into (T, B, C) batches, preserving order."""
    by_len: dict[int, list[np.ndarray]] = {}
    for seq in sequences:
        by_len.setdefault(seq.shape[0], []).append(seq)
    return [np.stack(group, axis=1) for group in by_len.values()]


def _forward(p: AutoencoderParams, groups: list[np.ndarray]) -> tuple[float, list]:
    """Mean per-sequence loss over the length groups, and each group's caches."""
    total = 0.0
    caches = []
    for xs in groups:
        loss, cache = _forward_batch(p, xs)
        total += loss * xs.shape[1]
        caches.append(cache)
    return total / sum(xs.shape[1] for xs in groups), caches


def _backward(p: AutoencoderParams, groups: list[np.ndarray], caches: list) -> np.ndarray:
    """The gradient of _forward's loss, laid out like p.flat, from its caches."""
    g = replace(p, flat=np.zeros(p.flat.size))
    n_seq = sum(xs.shape[1] for xs in groups)
    for xs, cache in zip(groups, caches):
        e_hs, e_cs, e_gates, d_in, d_hs, d_cs, d_gates, diff = cache
        T, B, C = xs.shape
        # d(mean over all sequences of per-sequence MSE)
        d_ys = 2.0 * diff / (T * C) / n_seq
        g.dec_w_y += np.einsum("tbc,tbh->ch", d_ys, d_hs[1:])
        d_dhs = d_ys @ p.dec_w_y
        dwx, dwh, db, d_dec_in = _lstm_backward(
            p.dec_w_x, p.dec_w_h, d_in, d_hs, d_cs, d_gates, d_dhs
        )
        g.dec_w_x += dwx
        g.dec_w_h += dwh
        g.dec_b += db
        dz = d_dec_in.sum(axis=0)  # repeated input: gradients add over time
        g.enc_w_z += dz.T @ e_hs[-1]
        d_ehs = np.zeros((T, B, p.hidden))
        d_ehs[-1] = dz @ p.enc_w_z
        dwx, dwh, db, _ = _lstm_backward(
            p.enc_w_x, p.enc_w_h, xs, e_hs, e_cs, e_gates, d_ehs, input_grad=False
        )
        g.enc_w_x += dwx
        g.enc_w_h += dwh
        g.enc_b += db
    return g.flat


def autoencoder_gradient(
    p: AutoencoderParams, sequences: list[np.ndarray]
) -> tuple[float, np.ndarray]:
    """Mean per-sequence reconstruction MSE and its gradient, by backpropagation
    through time: the forward pass, then the backward pass over its caches.

    sequences are normalized (T, C) arrays; lengths may differ. The gradient
    is one vector laid out like p.flat (normalization stats are not
    differentiated).
    """
    groups = _length_groups(sequences)
    loss, caches = _forward(p, groups)
    return loss, _backward(p, groups, caches)


@dataclass
class TrainResult:
    params: AutoencoderParams
    library: ModeLibrary
    losses: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def train_autoencoder(library: ModeLibrary, cfg: EncoderTrainConfig) -> TrainResult:
    """Fit the autoencoder on every clip in the library and fill in the latents.

    Full-batch Adam, deterministic from cfg.seed. Each proposed step is
    scored by a forward pass alone and kept only if it does not increase the
    loss beyond ROLLBACK_TOLERANCE; only a kept step is differentiated, from
    that pass's caches. Rejected steps halve an internal step-size scale, so
    the recorded loss history is non-increasing.
    """
    if library.n == 0:
        raise ValueError("library is empty")
    mean, scale = normalization_stats(library)
    groups = _length_groups([normalize(m.samples, mean, scale) for m in library.motions])

    params = replace(init_params(np.random.default_rng(cfg.seed)), norm_mean=mean, norm_scale=scale)
    opt = AdamState.zeros(params.flat.size)
    lr_scale = 1.0

    loss, caches = _forward(params, groups)
    grad = _backward(params, groups, caches)
    del caches
    losses = [loss]
    for epoch in range(cfg.epochs):
        if not np.isfinite(grad).all():
            raise TrainingFailure(f"non-finite gradient at epoch {len(losses) - 1}")
        cos = 0.5 * (1.0 + math.cos(math.pi * epoch / max(1, cfg.epochs - 1)))
        lr = cfg.learning_rate * (FINAL_LR_FRACTION + (1.0 - FINAL_LR_FRACTION) * cos)
        flat_try, opt_try = adam_step(params.flat, grad, opt, lr * lr_scale)
        params_try = replace(params, flat=flat_try)
        loss_try, caches = _forward(params_try, groups)
        if not math.isfinite(loss_try):
            raise TrainingFailure(f"non-finite loss at epoch {len(losses) - 1}")
        if loss_try <= loss + ROLLBACK_TOLERANCE:
            params, opt, loss = params_try, opt_try, loss_try
            grad = _backward(params, groups, caches)
            lr_scale = min(1.0, lr_scale * 1.05)
        else:
            lr_scale *= 0.5
        # A rejected step's caches go before the next forward pass allocates.
        del caches
        losses.append(loss)

    latents = np.array([encode(params, motion) for motion in library.motions])
    return TrainResult(params=params, library=library.with_latents(latents), losses=losses)


# --- serialization ---------------------------------------------------------


def params_to_payload(params: AutoencoderParams) -> dict:
    return {
        "hidden": params.hidden,
        "latent_dim": params.latent_dim,
        "input_dim": params.input_dim,
        "norm_mean": params.norm_mean,
        "norm_scale": params.norm_scale,
        "encoder": {f: array_to_payload(getattr(params, "enc_" + f)) for f in _ENC_FIELDS},
        "decoder": {f: array_to_payload(getattr(params, "dec_" + f)) for f in _DEC_FIELDS},
    }
