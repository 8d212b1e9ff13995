"""From-scratch recurrent forecaster: GRU -> LSTM -> dense -> linear head.

Pure numpy, float64 throughout.  Gradients come from handwritten
backpropagation through time, optimization from a handwritten Adam, and
regularization from inverted dropout so evaluation needs no rescaling.
Checkpoints serialize every parameter as base64 little-endian float64,
making save/load/predict round trips bit-identical.

Parameter dictionary layout (gate blocks stacked along columns):

======== =========== ==========================================
key      shape       meaning
======== =========== ==========================================
gru_W    (F, 3G)     input kernels, gate order [z, r, n]
gru_U    (G, 3G)     recurrent kernels, same order
gru_bx   (3G,)       input-side gate biases
gru_bh   (3G,)       recurrent-side gate biases
lstm_W   (G, 4L)     input kernels, gate order [i, f, o, g]
lstm_U   (L, 4L)     recurrent kernels
lstm_b   (4L,)       gate biases (forget block initialized to 1)
dense_W  (L, D)      ReLU layer weights
dense_b  (D,)
head_W   (D, 1)      linear output
head_b   (1,)
======== =========== ==========================================

The GRU uses split input/recurrent biases with the reset gate applied
after the recurrent matmul (so the two candidate biases are not
redundant), and the update convention h_t = (1 - z) * h_{t-1} + z * n_t.

Internally the kernels are batch-last: ``_forward`` transposes the
(B, tau, F) batch once to (T, F, B).  Each layer keeps its states in one
(T+1, units, B) array whose first row is the zero initial state, and
each step computes its gate block as ``U.T @ h`` with shape
(n * units, B), so every gate is a row block: one contiguous (units, B)
slab.  The parameters keep the layout in the table above; ``U.T`` and
``W.T`` are views that BLAS reads with a transpose flag, so checkpoints
are unaffected.  The input matmul is hoisted out of the time loop, each
step activates its sigmoid gates ([z, r] or [i, f, o]) with one in-place
call, and backward computes the recursion-free derivative factors before
its loop, then contracts the weight gradients over (t, b) from one
(T*B, .) copy per operand.
Numerical checks run once per sequence: all hidden states must lie in
[-1, 1] (a NaN fails this and reaches every later step).  The LSTM cell
state needs no check of its own: from the zero state |c_t| <= t, because
f, i lie in [0, 1] and |g| <= 1, and a NaN in c reaches h.

``train`` holds every parameter in one flat float64 buffer, with the
model's arrays as named views into it, so one Adam update covers the
whole model and the best-epoch snapshot is one copy.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import Frequency, LagWindowSet, NormalizationStats
from .errors import (
    EmptySplit,
    InvalidArgument,
    NumericalError,
    ParseError,
    ShapeError,
    check_integers,
    is_integer,
    json_object,
    string_list,
)

CHECKPOINT_FORMAT = "causalcast.checkpoint"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# windows per evaluation-mode forward pass in ``predict``
PREDICT_BATCH = 512


@dataclass(frozen=True)
class ModelConfig:
    """Layer sizes and dropout for one forecaster instance."""

    feature_count: int
    lookback: int = 21
    gru_units: int = 64
    lstm_units: int = 128
    dense_units: int = 64
    dropout_rate: float = 0.2

    def __post_init__(self):
        sizes = ("feature_count", "lookback", "gru_units", "lstm_units", "dense_units")
        check_integers(self, sizes)
        for name in sizes:
            if getattr(self, name) < 1:
                raise InvalidArgument(f"{name} must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidArgument(
                f"dropout_rate must lie in [0, 1), got {self.dropout_rate}"
            )


@dataclass
class RecurrentModel:
    config: ModelConfig
    params: dict[str, np.ndarray]


@dataclass
class AdamState:
    learning_rate: float
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        check_integers(self, ("batch_size", "max_epochs", "patience", "seed"))
        if self.batch_size < 1:
            raise InvalidArgument("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise InvalidArgument("max_epochs must be >= 1")
        if self.patience < 1:
            raise InvalidArgument("patience must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise InvalidArgument(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )


@dataclass(frozen=True)
class TrainHistory:
    train_loss: tuple[float, ...]
    validation_loss: tuple[float, ...]
    best_epoch: int
    stopped_epoch: int
    n_train: int
    n_val: int


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _glorot_gates(
    rng: np.random.Generator, fan_in: int, units: int, n_gates: int
) -> np.ndarray:
    return np.hstack([_glorot(rng, fan_in, units) for _ in range(n_gates)])


def init_model(config: ModelConfig, seed: int = 0) -> RecurrentModel:
    """Seeded Glorot-uniform weights, zero biases, LSTM forget bias 1."""
    rng = np.random.default_rng(seed)
    F, G = config.feature_count, config.gru_units
    L, D = config.lstm_units, config.dense_units
    lstm_b = np.zeros(4 * L)
    lstm_b[L : 2 * L] = 1.0
    params = {
        "gru_W": _glorot_gates(rng, F, G, 3),
        "gru_U": _glorot_gates(rng, G, G, 3),
        "gru_bx": np.zeros(3 * G),
        "gru_bh": np.zeros(3 * G),
        "lstm_W": _glorot_gates(rng, G, L, 4),
        "lstm_U": _glorot_gates(rng, L, L, 4),
        "lstm_b": lstm_b,
        "dense_W": _glorot(rng, L, D),
        "dense_b": np.zeros(D),
        "head_W": _glorot(rng, D, 1),
        "head_b": np.zeros(1),
    }
    return RecurrentModel(config=config, params=params)


def parameter_count(model: RecurrentModel) -> int:
    return sum(p.size for p in model.params.values())


# ---------------------------------------------------------------------------
# layer forward passes
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of ``x``, in place, in the overflow-free tanh form."""
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5
    return x


def _check_hidden(hs: np.ndarray, layer: str) -> None:
    # tanh-gated outputs live in [-1, 1]; NaN fails the comparison too,
    # and once in the recursion it reaches every later step
    if not np.all(np.abs(hs) <= 1.0):
        raise NumericalError(f"{layer} hidden state non-finite or out of [-1, 1]")


def _batch_last(x) -> np.ndarray:
    """(B, T, C) -> contiguous float64 (T, C, B)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected a batch B x T x C, got shape {x.shape}")
    return np.ascontiguousarray(x.transpose(1, 2, 0))


def _rows(a: np.ndarray) -> np.ndarray:
    """(T, C, B) -> a new (T*B, C) array, one row per (t, b), for the
    weight and bias gradients.  Always a copy: at B = 1 the transpose is
    already contiguous, and a view would see later writes to ``a``."""
    T, C, B = a.shape
    return a.transpose(0, 2, 1).copy().reshape(T * B, C)


def _gru_forward(params, x: np.ndarray, want_cache: bool = False):
    """GRU over batch-last ``x`` (T, F, B); states (T+1, G, B), first row zero."""
    W, U = params["gru_W"], params["gru_U"]
    bx, bh = params["gru_bx"][:, None], params["gru_bh"][:, None]
    T, F, B = x.shape
    G = U.shape[0]
    if W.shape[0] != F:
        raise ShapeError(f"GRU expects {W.shape[0]} features, got {F}")
    hs = np.empty((T + 1, G, B))
    hs[0] = 0.0
    # input projections; the loop turns them into the gates [z, r, n]
    gates = np.matmul(W.T, x)
    gates += bx
    ghs = np.empty((T, 3 * G, B)) if want_cache else None
    for t in range(T):
        gh = np.matmul(U.T, hs[t], out=ghs[t] if want_cache else None)
        gh += bh
        zr = gates[t, : 2 * G]
        zr += gh[: 2 * G]
        _sigmoid(zr)
        z = zr[:G]
        n = gates[t, 2 * G :]
        n += zr[G:] * gh[2 * G :]
        np.tanh(n, out=n)
        step = n - hs[t]
        step *= z
        np.add(hs[t], step, out=hs[t + 1])
    _check_hidden(hs[1:], "GRU")
    cache = dict(x=x, hs=hs, gates=gates, gh=ghs) if want_cache else None
    return hs, cache


def _lstm_forward(params, x: np.ndarray, want_cache: bool = False):
    """LSTM over batch-last ``x`` (T, K, B); returns (T+1, L, B) hidden
    and cell states, first row zero."""
    W, U, b = params["lstm_W"], params["lstm_U"], params["lstm_b"]
    T, K, B = x.shape
    L = U.shape[0]
    if W.shape[0] != K:
        raise ShapeError(f"LSTM expects {W.shape[0]} inputs, got {K}")
    hs = np.empty((T + 1, L, B))
    cs = np.empty((T + 1, L, B))
    hs[0] = 0.0
    cs[0] = 0.0
    # input projections; the loop turns them into the gates [i, f, o, g]
    gates = np.matmul(W.T, x)
    gates += b[:, None]
    tcs = np.empty((T, L, B)) if want_cache else None
    for t in range(T):
        pre = gates[t]
        pre += U.T @ hs[t]
        _sigmoid(pre[: 3 * L])
        g = np.tanh(pre[3 * L :], out=pre[3 * L :])
        np.multiply(pre[L : 2 * L], cs[t], out=cs[t + 1])
        cs[t + 1] += pre[:L] * g
        tc = np.tanh(cs[t + 1], out=tcs[t] if want_cache else None)
        np.multiply(pre[2 * L : 3 * L], tc, out=hs[t + 1])
    _check_hidden(hs[1:], "LSTM")
    cache = dict(x=x, hs=hs, cs=cs, gates=gates, tc=tcs) if want_cache else None
    return hs, cs, cache


def gru_forward(params, x_sequence) -> np.ndarray:
    """Hidden states (B, tau, G) of a GRU over a batch (B, tau, F),
    from the zero state."""
    hs, _ = _gru_forward(params, _batch_last(x_sequence))
    return hs[1:].transpose(2, 0, 1)


def lstm_forward(params, x_sequence):
    """(hidden states (B, tau, L), final cell state (B, L)) of an LSTM
    over a batch (B, tau, K), from the zero state."""
    hs, cs, _ = _lstm_forward(params, _batch_last(x_sequence))
    return hs[1:].transpose(2, 0, 1), cs[-1].T


# ---------------------------------------------------------------------------
# full model forward / backward
# ---------------------------------------------------------------------------

def draw_dropout_masks(
    config: ModelConfig, batch_size: int, rng: np.random.Generator | None
):
    """Inverted-dropout masks for the GRU output sequence and the final
    LSTM state; None when the rate is zero or no generator is given."""
    if rng is None or config.dropout_rate <= 0.0:
        return None
    keep = 1.0 - config.dropout_rate
    seq = (rng.random((batch_size, config.lookback, config.gru_units)) < keep)
    state = (rng.random((batch_size, config.lstm_units)) < keep)
    return seq / keep, state / keep


def _forward(model: RecurrentModel, x: np.ndarray, masks, want_cache: bool):
    cfg = model.config
    xb = _batch_last(x)
    if xb.shape[:2] != (cfg.lookback, cfg.feature_count):
        raise ShapeError(
            f"batch windows are {x.shape[1]} x {x.shape[2]}, model expects "
            f"{cfg.lookback} x {cfg.feature_count}"
        )
    if not np.all(np.isfinite(xb)):
        raise NumericalError("non-finite values in input batch")
    p = model.params
    hs, gru_cache = _gru_forward(p, xb, want_cache=want_cache)
    seq_mask = _batch_last(masks[0]) if masks is not None else None
    seq = hs[1:] * seq_mask if masks is not None else hs[1:]
    lstm_hs, _, lstm_cache = _lstm_forward(p, seq, want_cache=want_cache)
    h_final = lstm_hs[-1].T
    hd = h_final * masks[1] if masks is not None else h_final
    dense_pre = hd @ p["dense_W"] + p["dense_b"]
    dense_out = np.maximum(dense_pre, 0.0)
    pred = dense_out @ p["head_W"] + p["head_b"]
    if not np.all(np.isfinite(pred)):
        raise NumericalError("non-finite prediction")
    cache = None
    if want_cache:
        cache = {
            "gru": gru_cache,
            "lstm": lstm_cache,
            "seq_mask": seq_mask,
            "dense_in": hd,
            "dense_pre": dense_pre,
            "dense_out": dense_out,
        }
    return pred, cache


def model_forward(
    model: RecurrentModel, batch, dropout_rng: np.random.Generator | None = None
) -> np.ndarray:
    """Predictions (B, 1) for a batch of lag windows.

    Evaluation mode (no dropout) when ``dropout_rng`` is None; passing a
    seeded generator enables train-mode inverted dropout, reproducible
    for a fixed seed.
    """
    x = np.asarray(batch, dtype=np.float64)
    masks = draw_dropout_masks(model.config, x.shape[0], dropout_rng)
    pred, _ = _forward(model, x, masks, want_cache=False)
    return pred


def _gru_backward(params, cache, dhs):
    """Parameter gradients from the loss gradient ``dhs`` (T, G, B) with
    respect to every GRU output state."""
    U = params["gru_U"]
    x, hs, gates = cache["x"], cache["hs"], cache["gates"]
    T, _, B = x.shape
    G = U.shape[0]
    z, r, n = gates[:, :G], gates[:, G : 2 * G], gates[:, 2 * G :]
    a = cache["gh"][:, 2 * G :]
    # recursion-free factors: each gate pre-activation's gradient is
    # dh_t times one of these
    dn = z * (1.0 - n * n)
    factors = np.concatenate(
        [(n - hs[:-1]) * z * (1.0 - z), dn * a * r * (1.0 - r), dn * r], axis=1
    ).reshape(T, 3, G, B)
    keep = 1.0 - z
    dgh = np.empty((T, 3 * G, B))
    dh_all = np.empty((T, G, B))
    dh_next = np.zeros((G, B))
    for t in range(T - 1, -1, -1):
        dh = np.add(dhs[t], dh_next, out=dh_all[t])
        np.multiply(factors[t], dh, out=dgh[t].reshape(3, G, B))
        dh_next = U @ dgh[t]
        dh_next += dh * keep[t]
    # freed before the (T*B, .) copies below, which would raise the peak
    del factors, keep
    flat_gh = _rows(dgh)
    # the candidate's input side is not scaled by the reset gate
    np.multiply(dh_all, dn, out=dgh[:, 2 * G :])
    flat_gx = _rows(dgh)
    return {
        "gru_W": _rows(x).T @ flat_gx,
        "gru_U": _rows(hs[:-1]).T @ flat_gh,
        "gru_bx": flat_gx.sum(axis=0),
        "gru_bh": flat_gh.sum(axis=0),
    }


def _lstm_backward(params, cache, dh_last):
    """(input gradient (T, K, B), parameter gradients) from the loss
    gradient (L, B) with respect to the last hidden state only."""
    W, U = params["lstm_W"], params["lstm_U"]
    x, hs, gates = cache["x"], cache["hs"], cache["gates"]
    cs, tc = cache["cs"], cache["tc"]
    T, _, B = x.shape
    L = U.shape[0]
    i, f = gates[:, :L], gates[:, L : 2 * L]
    o, g = gates[:, 2 * L : 3 * L], gates[:, 3 * L :]
    # recursion-free factors: dc_t gains dh_t * dc_dh, and the gate
    # pre-activation gradients are dc_t (i, f, g) or dh_t (o) times these
    dc_dh = o * (1.0 - tc * tc)
    factors = np.concatenate(
        [g * i * (1.0 - i), cs[:-1] * f * (1.0 - f), tc * o * (1.0 - o),
         i * (1.0 - g * g)],
        axis=1,
    )
    dpre = np.empty((T, 4 * L, B))
    dh = dh_last
    dc = np.zeros((L, B))
    for t in range(T - 1, -1, -1):
        dc += dh * dc_dh[t]
        np.multiply(factors[t].reshape(4, L, B), dc, out=dpre[t].reshape(4, L, B))
        np.multiply(factors[t, 2 * L : 3 * L], dh, out=dpre[t, 2 * L : 3 * L])
        dh = U @ dpre[t]
        dc *= f[t]
    # freed before the (T*B, .) copies below, which would raise the peak
    del factors, dc_dh
    flat = _rows(dpre)
    grads = {
        "lstm_W": _rows(x).T @ flat,
        "lstm_U": _rows(hs[:-1]).T @ flat,
        "lstm_b": flat.sum(axis=0),
    }
    return np.matmul(W, dpre), grads


def backward(model: RecurrentModel, batch, targets, masks=None):
    """MSE loss and its gradient for every parameter, via full BPTT.

    ``masks`` must be the exact dropout masks used in the corresponding
    forward pass (None for evaluation-mode gradients); pre-draw them
    with :func:`draw_dropout_masks`.

    Returns (gradients keyed like ``model.params``, scalar loss).
    """
    x = np.asarray(batch, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    if y.shape[0] != x.shape[0]:
        raise ShapeError(
            f"{x.shape[0]} windows but {y.shape[0]} targets"
        )
    pred, cache = _forward(model, x, masks, want_cache=True)
    resid = pred[:, 0] - y
    B = x.shape[0]
    loss = float(resid @ resid) / B
    p = model.params
    grads: dict[str, np.ndarray] = {}

    dpred = (2.0 / B) * resid[:, None]
    grads["head_W"] = cache["dense_out"].T @ dpred
    grads["head_b"] = dpred.sum(axis=0)
    ddense = (dpred @ p["head_W"].T) * (cache["dense_pre"] > 0.0)
    grads["dense_W"] = cache["dense_in"].T @ ddense
    grads["dense_b"] = ddense.sum(axis=0)
    dhd = ddense @ p["dense_W"].T
    dh_final = dhd * masks[1] if masks is not None else dhd
    dseq, lstm_grads = _lstm_backward(p, cache["lstm"], dh_final.T)
    grads.update(lstm_grads)
    dhs = dseq * cache["seq_mask"] if masks is not None else dseq
    grads.update(_gru_backward(p, cache["gru"], dhs))
    return grads, loss


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def adam_init(params: dict[str, np.ndarray], learning_rate: float = 1e-3) -> AdamState:
    return AdamState(
        learning_rate=learning_rate,
        step=0,
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
    )


def adam_step(state: AdamState, params, grads):
    """One bias-corrected Adam update, in place; returns (params, state)."""
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for key, p in params.items():
        g = grads[key]
        m = state.m[key]
        v = state.v[key]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)
    return params, state


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _window_arrays(windows) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(windows, LagWindowSet):
        return windows.inputs, windows.targets
    x, y = windows
    return np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)


def predict(model: RecurrentModel, inputs) -> np.ndarray:
    """Evaluation-mode predictions flattened to shape (S,)."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape[0] == 0:
        return np.empty(0)
    chunks = [
        model_forward(model, x[s : s + PREDICT_BATCH])
        for s in range(0, x.shape[0], PREDICT_BATCH)
    ]
    return np.concatenate(chunks, axis=0)[:, 0]


def evaluate_mse(model: RecurrentModel, inputs, targets) -> float:
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    resid = predict(model, inputs) - y
    return float(resid @ resid) / y.shape[0]


def _flat_views(buffer: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views into ``buffer`` shaped and keyed like ``like``, in its order."""
    views, start = {}, 0
    for key, p in like.items():
        views[key] = buffer[start : start + p.size].reshape(p.shape)
        start += p.size
    return views


def train(
    model: RecurrentModel,
    train_windows,
    validation_windows,
    config: TrainConfig,
) -> tuple[RecurrentModel, TrainHistory]:
    """Minibatch Adam with seeded shuffling and early stopping.

    Each epoch shuffles the training samples, runs train-mode
    forward/backward/Adam per minibatch, then measures validation MSE in
    evaluation mode.  Stops after `config.patience` epochs without strict
    improvement (or at max_epochs) and restores the best epoch's
    weights, so the returned model never validates worse than any epoch
    seen.  One generator seeded with `config.seed` drives both shuffling
    and dropout, making runs exactly repeatable.

    The parameters live in one flat buffer while training: the returned
    ``model.params`` are named views into it, so Adam runs once over the
    whole model and the best-epoch snapshot is one copy.
    """
    x_tr, y_tr = _window_arrays(train_windows)
    x_va, y_va = _window_arrays(validation_windows)
    if x_tr.shape[0] == 0:
        raise EmptySplit("no training samples")
    if x_va.shape[0] == 0:
        raise EmptySplit("no validation samples")
    rng = np.random.default_rng(config.seed)
    flat = np.concatenate([p.reshape(-1) for p in model.params.values()])
    model.params = _flat_views(flat, model.params)
    grad = np.empty_like(flat)
    # adam_step updates dicts of arrays; here each dict holds one buffer
    flat_params, flat_grads = {"all": flat}, {"all": grad}
    state = adam_init(flat_params, learning_rate=config.learning_rate)
    best, best_loss, best_epoch = flat.copy(), math.inf, 0
    train_losses: list[float] = []
    val_losses: list[float] = []
    n = x_tr.shape[0]
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        sse = 0.0
        try:
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                masks = draw_dropout_masks(model.config, idx.size, rng)
                grads, loss = backward(model, x_tr[idx], y_tr[idx], masks)
                np.concatenate([grads[k].reshape(-1) for k in model.params], out=grad)
                adam_step(state, flat_params, flat_grads)
                sse += loss * idx.size
            val_loss = evaluate_mse(model, x_va, y_va)
        except NumericalError as exc:
            raise NumericalError(f"epoch {epoch}: {exc}") from exc
        train_losses.append(sse / n)
        val_losses.append(val_loss)
        if val_loss < best_loss:
            best_loss, best_epoch = val_loss, epoch
            np.copyto(best, flat)
        elif epoch - best_epoch >= config.patience:
            break
    np.copyto(flat, best)
    return model, TrainHistory(
        train_loss=tuple(train_losses),
        validation_loss=tuple(val_losses),
        best_epoch=best_epoch,
        stopped_epoch=len(val_losses),
        n_train=n,
        n_val=x_va.shape[0],
    )


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Checkpoint:
    """A trained model plus everything needed to predict on raw data.

    ``lead`` is in months (the reporting unit); ``lead_steps`` is the
    same horizon in dataset timesteps (equal for monthly data).
    """

    model: RecurrentModel
    features: tuple[str, ...] = ()
    target: str | None = None
    lead: int | None = None
    lead_steps: int | None = None
    frequency: Frequency | None = None
    normalization: NormalizationStats | None = None
    train_config: TrainConfig | None = None
    method: str | None = None


def _encode_array(a: np.ndarray) -> dict:
    data = np.ascontiguousarray(a, dtype="<f8")
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _decode_array(d: dict) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(d["data"]), dtype="<f8")
    return flat.reshape([int(s) for s in d["shape"]]).copy()


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    ck = checkpoint
    blob = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "model": {
            "config": asdict(ck.model.config),
            "params": {k: _encode_array(v) for k, v in ck.model.params.items()},
        },
        "features": list(ck.features),
        "target": ck.target,
        "lead": ck.lead,
        "lead_steps": ck.lead_steps,
        "frequency": ck.frequency.value if ck.frequency is not None else None,
        "normalization": (
            ck.normalization.to_dict() if ck.normalization is not None else None
        ),
        "train_config": asdict(ck.train_config) if ck.train_config else None,
        "method": ck.method,
    }
    Path(path).write_text(json.dumps(blob, indent=2) + "\n")


def load_checkpoint(path) -> Checkpoint:
    with json_object(path) as blob:
        if blob.get("format") != CHECKPOINT_FORMAT:
            raise ParseError(f"not a {CHECKPOINT_FORMAT} file")
        if blob.get("version") != CHECKPOINT_VERSION:
            raise ParseError(
                f"unsupported checkpoint version {blob.get('version')!r}"
            )
        config = ModelConfig(**blob["model"]["config"])
        params = {k: _decode_array(v) for k, v in blob["model"]["params"].items()}
        expected = {k: p.shape for k, p in init_model(config).params.items()}
        wrong = sorted(
            k for k in expected.keys() | params.keys()
            if k not in params or params[k].shape != expected.get(k)
        )
        if wrong:
            raise ParseError(
                f"parameters {', '.join(wrong)} missing, unknown or misshapen "
                "for the model config"
            )
        # a field saved as None is absent; evaluate names what it lacks
        for key in ("lead", "lead_steps"):
            if blob.get(key) is not None and not (is_integer(blob[key]) and blob[key] >= 1):
                raise ParseError(f"{key} must be an integer >= 1, got {blob[key]!r}")
        for key in ("target", "method"):
            if blob.get(key) is not None and not isinstance(blob[key], str):
                raise ParseError(f"{key} must be a string, got {blob[key]!r}")
        return Checkpoint(
            model=RecurrentModel(config=config, params=params),
            features=string_list(blob.get("features", []), "features"),
            target=blob.get("target"),
            lead=blob.get("lead"),
            lead_steps=blob.get("lead_steps"),
            frequency=(
                Frequency(blob["frequency"]) if blob.get("frequency") else None
            ),
            normalization=(
                NormalizationStats.from_dict(blob["normalization"])
                if blob.get("normalization")
                else None
            ),
            train_config=(
                TrainConfig(**blob["train_config"])
                if blob.get("train_config")
                else None
            ),
            method=blob.get("method"),
        )
