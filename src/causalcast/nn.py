"""From-scratch recurrent forecaster: GRU -> LSTM -> dense -> linear head.

Pure numpy.  Gradients come from handwritten backpropagation through
time, optimization from a handwritten Adam, and regularization from
inverted dropout so evaluation needs no rescaling.  Every kernel computes
in its parameters' dtype; models are float64.  Checkpoints serialize
every parameter as base64 little-endian float64, making save/load/predict
round trips bit-identical.

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
(B, tau, F) batch once to (T, F, B), and each step computes its gate
block as ``U.T @ h`` with shape (n * units, B), so every gate is a row
block: one contiguous (units, B) slab.  The parameters keep the layout
in the table above; ``U.T`` and ``W.T`` are views that BLAS reads with a
transpose flag, so checkpoints are unaffected.  Each step activates its
sigmoid gates ([z, r] or [i, f, o]) with one in-place call.  A forward
pass for backward keeps every step's states ((T+1, units, B), first row
zero) and gates, with the input matmul hoisted out of the time loop;
backward computes the recursion-free derivative factors in place of the
spent gates before its loop, then contracts the weight gradients over
(t, b) from one (T*B, .) copy per operand.  Evaluation needs only the
last state: it projects the inputs one step at a time and keeps one step
of gates and of LSTM state, so the GRU states are the only sequence it
holds.  It makes the same BLAS calls, so its predictions match the
cached pass's bit for bit.  Both modes take their buffers from a dict of
named views (:func:`_buffers`, shaped by :func:`_kernel_shapes`), with
the views each loop reads at each step made once, when the arena is
carved (:func:`_step_views`): the loops slice nothing, and write every
intermediate into a slot of those buffers.
Numerical checks run once per sequence: all GRU states and the last LSTM
state must lie in [-1, 1] (a NaN fails this and reaches every later
step; an LSTM state, o * tanh(c), leaves [-1, 1] only as a NaN).  The
LSTM cell state needs no check of its own: from the zero state
|c_t| <= t, because f, i lie in [0, 1] and |g| <= 1, and a NaN in c
reaches h.

``train`` holds every parameter in one flat float64 master buffer, with
the model's arrays as named views into it, so one Adam update covers the
whole model and the best-epoch snapshot is one copy.  Each step runs on
a float32 copy of that buffer, refreshed after each Adam update (mixed
precision, Micikevicius et al. 2018); validation, ``predict`` and
checkpoints use the float64 master.  ``backward`` writes its gradients
into one flat buffer of the same layout, so a step's gradient reaches
Adam by one cast copy.  ``train`` reads its windows where they are (a
step gathers its batch from them and casts it into its buffers) and
carves every other buffer once per call from one byte arena
(:func:`_train_buffers`), in which buffers never in use at the same time
share memory: the float64 dropout draws and Adam's float64 gradient and
scratch share backward's scratch, and validation's float64 evaluation
buffers share the whole arena with the float32 step.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import Frequency, LagWindowSet, NormalizationStats
from .errors import CausalcastError, InputError, NumericalError, ParseError, at_least, is_integer, json_object, string_list

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
        for name in ("feature_count", "lookback", "gru_units", "lstm_units", "dense_units"):
            at_least(name, getattr(self, name), 1)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InputError(
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
        for name, least in (("batch_size", 1), ("max_epochs", 1), ("patience", 1), ("seed", 0)):
            at_least(name, getattr(self, name), least)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise InputError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )


@dataclass(frozen=True)
class TrainHistory:
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
    at_least("seed", seed, 0)
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
    if not (hs.max() <= 1.0 and hs.min() >= -1.0):
        raise NumericalError(f"{layer} hidden state non-finite or out of [-1, 1]")


def _batch_last(x, dtype, out=None) -> np.ndarray:
    """(B, T, C) -> contiguous (T, C, B) of ``dtype``, in one copy (into
    ``out`` when given)."""
    x = np.asarray(x)
    if x.ndim != 3:
        raise CausalcastError(f"expected a batch B x T x C, got shape {x.shape}")
    if out is None:
        return np.ascontiguousarray(x.transpose(1, 2, 0), dtype=dtype)
    np.copyto(out, x.transpose(1, 2, 0))
    return out


def _rows(a: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """(T, C, B) -> (T*B, C), one row per (t, b), copied into the front of
    ``buffer``, for the weight and bias gradients."""
    T, C, B = a.shape
    rows = buffer.reshape(-1)[: T * B * C].reshape(T, B, C)
    np.copyto(rows, a.transpose(0, 2, 1))
    return rows.reshape(T * B, C)


def _gru_forward(params, buffers, keep: bool) -> np.ndarray:
    """GRU over the batch-last ``buffers["x"]`` (T, F, B) into
    ``buffers["gru_hs"]``, states (T+1, G, B) with the first row zero, by
    its per-step views.  With ``keep`` (a step's buffers, :func:`_buffers`)
    every step's gates stay there for backward; otherwise (an evaluation
    pass's) the gate slots hold one step's."""
    W, U = params["gru_W"], params["gru_U"]
    bx, bh = params["gru_bx"][:, None], params["gru_bh"][:, None]
    x, hs = buffers["x"], buffers["gru_hs"]
    if W.shape[0] != x.shape[1]:
        raise CausalcastError(f"GRU expects {W.shape[0]} features, got {x.shape[1]}")
    if keep:
        np.matmul(W.T, x, out=buffers["gru_gates"])
        buffers["gru_gates"] += bx
    hs[0] = 0.0
    # the loop turns the input projections into the gates [z, r, n]; the
    # next state's slot, not yet written, holds r * gh_n
    for x_t, h, h_next, gate, gh, zr, gh_zr, z, r, n, gh_n in buffers["gru"]:
        if not keep:  # evaluation: this step's projection only
            np.matmul(W.T, x_t, out=gate)
            gate += bx
        np.matmul(U.T, h, out=gh)
        gh += bh
        zr += gh_zr
        _sigmoid(zr)
        n += np.multiply(r, gh_n, out=h_next)
        np.tanh(n, out=n)
        np.subtract(n, h, out=h_next)
        h_next *= z
        h_next += h
    _check_hidden(hs[1:], "GRU")
    return hs


def _lstm_forward(params, x: np.ndarray, buffers, keep: bool):
    """LSTM over batch-last ``x`` (T, K, B), by its per-step views; last
    hidden and cell states (L, B), from the zero state.  With ``keep``
    every step's states and gates stay in ``buffers`` for backward;
    otherwise they hold one step's, the states updated in place, and the
    views read ``x`` as the GRU states ``buffers["gru_hs"][1:]``."""
    W, U, b = params["lstm_W"], params["lstm_U"], params["lstm_b"][:, None]
    if W.shape[0] != x.shape[1]:
        raise CausalcastError(f"LSTM expects {W.shape[0]} inputs, got {x.shape[1]}")
    hs, cs, rec = buffers["lstm_hs"], buffers["lstm_cs"], buffers["lstm_rec"]
    hs[0] = 0.0
    cs[0] = 0.0
    if keep:
        np.matmul(W.T, x, out=buffers["lstm_gates"])
        buffers["lstm_gates"] += b
    # the loop turns the input projections into the gates [i, f, o, g]; the
    # next hidden state's slot (in evaluation, the one just read) holds i * g
    for x_t, h, c, c_next, h_next, pre, ifo, i, f, o, g, tc in buffers["lstm"]:
        if not keep:  # evaluation: this step's projection, states in place
            np.matmul(W.T, x_t, out=pre)
            pre += b
        pre += np.matmul(U.T, h, out=rec)
        _sigmoid(ifo)
        np.tanh(g, out=g)
        np.multiply(f, c, out=c_next)
        c_next += np.multiply(i, g, out=h_next)
        np.tanh(c_next, out=tc)
        np.multiply(o, tc, out=h_next)
    _check_hidden(hs[-1], "LSTM")
    return hs[-1], cs[-1]


def gru_forward(params, x_sequence) -> np.ndarray:
    """Hidden states (B, tau, G) of a GRU over a batch (B, tau, F),
    from the zero state."""
    x = _batch_last(x_sequence, params["gru_W"].dtype)
    T, F, B = x.shape
    shape = ModelConfig(F, T, gru_units=params["gru_U"].shape[0], lstm_units=1)
    buffers = _buffers(shape, [B], x.dtype, kept=False)[B]
    np.copyto(buffers["x"], x)
    return _gru_forward(params, buffers, keep=False)[1:].transpose(2, 0, 1)


def lstm_forward(params, x_sequence):
    """(hidden states (B, tau, L), final cell state (B, L)) of an LSTM
    over a batch (B, tau, K), from the zero state."""
    x = _batch_last(x_sequence, params["lstm_W"].dtype)
    T, K, B = x.shape
    shape = ModelConfig(K, T, gru_units=K, lstm_units=params["lstm_U"].shape[0])
    cache = _buffers(shape, [B], x.dtype, kept=True)[B]
    _, c = _lstm_forward(params, x, cache, keep=True)
    return cache["lstm_hs"][1:].transpose(2, 0, 1), c.T


# ---------------------------------------------------------------------------
# full model forward / backward
# ---------------------------------------------------------------------------

def draw_dropout_masks(
    config: ModelConfig, batch_size: int, rng: np.random.Generator | None, out=None
):
    """Inverted-dropout masks for the GRU output sequence, (batch_size,
    lookback, gru_units), and the final LSTM state, (batch_size,
    lstm_units); None when the rate is zero or no generator is given.

    ``out`` is an optional pair of float64 buffers of those shapes, in
    which the masks are drawn; ``train`` passes the ``seq_draw`` and
    ``state_draw`` views of its step arena (:func:`_step_layout`).
    """
    if rng is None or config.dropout_rate <= 0.0:
        return None
    keep = 1.0 - config.dropout_rate
    if out is None:
        seq = (batch_size, config.lookback, config.gru_units)
        out = np.empty(seq), np.empty((batch_size, config.lstm_units))
    for mask in out:
        rng.random(out=mask)
        np.less(mask, keep, out=mask)
        mask /= keep
    return out


def _nbytes(shapes: dict, dtype) -> int:
    """Bytes that ``shapes`` take laid end to end in ``dtype``, rounded up
    to a multiple of 8 so that a float64 view can follow."""
    size = sum(math.prod(shape) for shape in shapes.values()) * np.dtype(dtype).itemsize
    return -(-size // 8) * 8


def _carve(*layouts) -> list[dict]:
    """Named views into one byte arena, for buffers never in use at the
    same time.  Each layout maps a key (a batch size) to groups (byte
    offset, dtype, shapes), each group's views laid end to end from its
    offset; the arena is sized for the group that ends last.  Returns,
    per layout, each key's views, with their per-step views
    (:func:`_step_views`)."""
    ends = [start + _nbytes(shapes, dtype)
            for layout in layouts for groups in layout.values()
            for start, dtype, shapes in groups]
    arena = np.empty(max(ends), dtype=np.uint8)
    return [
        {key: _step_views({name: view
                           for start, dtype, shapes in groups
                           for name, view in _flat_views(arena[start:].view(dtype), shapes).items()})
         for key, groups in layout.items()}
        for layout in layouts
    ]


def _batch_sizes(n: int, batch: int) -> set[int]:
    """Sizes of the batches that cut ``n`` items in order into batches
    of ``batch``: the first's and the last's."""
    return {min(batch, n), n - (n - 1) // batch * batch}


def _kernel_shapes(config: ModelConfig, B: int, kept: bool) -> dict:
    """Shapes of the kernels' buffers at batch size ``B``.  ``kept`` (a
    step, for backward): every step's gates and states, plus the dropout's
    ``seq_mask`` and the masked sequence ``seq``; otherwise (evaluation)
    every GRU state and one step's gates and LSTM state."""
    T, F, G, L = (config.lookback, config.feature_count, config.gru_units,
                  config.lstm_units)
    S, H = (T, T + 1) if kept else (1, 1)
    shapes = {"x": (T, F, B), "gru_hs": (T + 1, G, B),
              "gru_gates": (S, 3 * G, B), "gru_gh": (S, 3 * G, B)}
    if kept:
        shapes.update(seq_mask=(T, G, B), seq=(T, G, B))
    shapes.update(lstm_hs=(H, L, B), lstm_cs=(H, L, B), lstm_gates=(S, 4 * L, B),
                  lstm_tc=(S, L, B), lstm_rec=(4 * L, B))
    return shapes


def _step_views(v: dict) -> dict:
    """Adds to one width's kernel buffers ``v`` (:func:`_kernel_shapes`)
    the views that the kernel loops read at each step, made once: a tuple
    per step for each loop, ``gru`` and ``lstm`` and, in a step's buffers
    (which hold ``seq``), ``gru_back`` and ``lstm_back``, over backward's
    gate gradients ``gru_dpre`` and ``lstm_dpre`` in ``dpre`` and its state
    gradients ``gru_dh``, ``lstm_dh`` and ``lstm_dc`` in spent slots.  An
    evaluation pass's gate and LSTM state views are those of slot 0 at
    every step, and its LSTM's input views are the GRU states."""
    T, _, B = v["x"].shape
    G, L = v["gru_hs"].shape[1], v["lstm_hs"].shape[1]
    kept = "seq" in v
    x, hs, lh, lc = (list(v[k]) for k in ("x", "gru_hs", "lstm_hs", "lstm_cs"))
    v.update(gru=[], lstm=[])
    if kept:
        dgh = v["dpre"][: T * 3 * G * B].reshape(T, 3 * G, B)
        dpre = v["dpre"][: T * 4 * L * B].reshape(T, 4 * L, B)
        v.update(gru_dpre=dgh, lstm_dpre=dpre, gru_back=[], lstm_back=[], gru_dh=v["seq_mask"][0],
                 lstm_dh=v["lstm_rec"][:L], lstm_dc=v["lstm_rec"][L : 2 * L])
    for t in range(T):
        s, now = (t, t + 1) if kept else (0, 0)
        if kept or t == 0:
            gate, gh, pre = v["gru_gates"][s], v["gru_gh"][s], v["lstm_gates"][s]
            gates = (gate, gh, gate[: 2 * G], gh[: 2 * G], gate[:G], gate[G : 2 * G],
                     gate[2 * G :], gh[2 * G :])
            i, f, tc = pre[:L], pre[L : 2 * L], v["lstm_tc"][s]
            cell = (pre, pre[: 3 * L], i, f, pre[2 * L : 3 * L], pre[3 * L :], tc)
        v["gru"].append((x[t], hs[t], hs[t + 1], *gates))
        v["lstm"].append((hs[t + 1], lh[s], lc[s], lc[now], lh[now], *cell))
        if kept:
            dg, dl = dgh[t], dpre[t]
            v["gru_back"].append((v["seq"][t], dg.reshape(3, G, B), dg, gh[:G]))
            v["lstm_back"].append((tc, dl.reshape(4, L, B), i, dl[2 * L : 3 * L], dl, f))
    return v


def _step_layout(config: ModelConfig, B: int, dtype, master_size: int | None = None) -> list:
    """:func:`_carve` groups of one forward/backward step at batch size
    ``B``.

    The kept kernel buffers (:func:`_kernel_shapes`), in ``dtype``, come
    first.  Backward's scratch follows them: ``dpre`` (the LSTM's gate
    gradients, then the GRU's) and ``rows``.  With ``master_size``,
    ``train``'s float64 buffers that a step uses at one point only share
    that region, which is sized for the largest of them: the dropout
    draws ``seq_draw`` and ``state_draw``, spent in the forward pass
    before backward writes ``dpre``, and Adam's ``grad`` and
    ``adam_scratch`` (``master_size`` each), used after backward.
    Backward also reuses kernel buffers once their values are spent: its
    input gradient ``dseq`` lands in the ``seq`` slot, and the recursions'
    state gradients in ``seq_mask`` and ``lstm_rec`` (:func:`_step_views`).
    """
    T, F, G, L = (config.lookback, config.feature_count, config.gru_units,
                  config.lstm_units)
    kernels = _kernel_shapes(config, B, kept=True)
    scratch = {"dpre": (T * max(4 * L, 3 * G) * B,), "rows": (T * B * max(F, G, L),)}
    start = _nbytes(kernels, dtype)
    groups = [(0, dtype, kernels), (start, dtype, scratch)]
    if master_size is not None:
        draws = {"seq_draw": (B, T, G), "state_draw": (B, L)}
        adam = {"grad": (master_size,), "adam_scratch": (master_size,)}
        groups += [(start, np.float64, draws), (start, np.float64, adam)]
    return groups


def _buffers(config: ModelConfig, widths, dtype, kept: bool) -> dict:
    """The kernels' buffers per batch width, carved from one arena sized
    for the largest: with ``kept``, a forward/backward step's
    (:func:`_step_layout`), otherwise an evaluation pass's."""
    return _carve({B: _step_layout(config, B, dtype) if kept
                   else [(0, dtype, _kernel_shapes(config, B, kept=False))]
                   for B in widths})[0]


def _train_buffers(config: ModelConfig, n: int, n_val: int, batch_size: int,
                   master_size: int) -> list[dict]:
    """``train``'s work buffers, carved from one arena: the float32 step
    buffers per batch size, with Adam's float64 ``grad`` and
    ``adam_scratch`` of ``master_size`` each, and the float64 evaluation
    buffers of validation per chunk width.  Validation runs after an
    epoch's steps, so its buffers share the arena from its start."""
    return _carve(
        {B: _step_layout(config, B, np.float32, master_size)
         for B in _batch_sizes(n, batch_size)},
        {B: [(0, np.float64, _kernel_shapes(config, B, kept=False))]
         for B in _batch_sizes(n_val, PREDICT_BATCH)},
    )


def _forward(model: RecurrentModel, x, masks, buffers=None) -> np.ndarray:
    """Predictions (B, 1) for a batch (B, tau, F), in ``buffers`` (this
    batch size's, :func:`_buffers`; an evaluation pass's when None).
    Handed a step's, which hold the ``seq`` slot, it keeps there every
    activation backward needs; otherwise this is evaluation mode."""
    cfg, p = model.config, model.params
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[1:] != (cfg.lookback, cfg.feature_count):
        raise CausalcastError(
            f"expected a batch B x {cfg.lookback} x {cfg.feature_count}, "
            f"got shape {x.shape}"
        )
    dtype = p["gru_W"].dtype
    if buffers is None:
        buffers = _buffers(cfg, [x.shape[0]], dtype, kept=False)[x.shape[0]]
    keep = "seq" in buffers
    xb = _batch_last(x, dtype, buffers["x"])
    if not np.all(np.isfinite(xb)):
        raise NumericalError("non-finite values in input batch")
    hs = _gru_forward(p, buffers, keep)
    seq, state_mask = hs[1:], None
    if masks is not None:
        seq_mask = _batch_last(masks[0], dtype, buffers.get("seq_mask"))
        # evaluation masks the GRU states in place: its LSTM reads them
        seq = np.multiply(seq, seq_mask, out=buffers.get("seq", seq))
        state_mask = np.asarray(masks[1], dtype=dtype)
    hd = _lstm_forward(p, seq, buffers, keep)[0].T
    if masks is not None:
        hd = hd * state_mask
    dense_pre = hd @ p["dense_W"] + p["dense_b"]
    dense_out = np.maximum(dense_pre, 0.0)
    pred = dense_out @ p["head_W"] + p["head_b"]
    if not np.all(np.isfinite(pred)):
        raise NumericalError("non-finite prediction")
    if keep:
        buffers.update(lstm_x=seq, state_mask=state_mask, dense_in=hd,
                       dense_pre=dense_pre, dense_out=dense_out)
    return pred


def model_forward(
    model: RecurrentModel, batch, dropout_rng: np.random.Generator | None = None
) -> np.ndarray:
    """Predictions (B, 1) for a batch of lag windows.

    Evaluation mode (no dropout) when ``dropout_rng`` is None; passing a
    seeded generator enables train-mode inverted dropout, reproducible
    for a fixed seed.
    """
    x = np.asarray(batch)
    masks = draw_dropout_masks(model.config, x.shape[0], dropout_rng)
    return _forward(model, x, masks)


def _sigmoid_slope(x, y, out, scratch):
    """``x * y * (1 - y)`` into ``out``, in that order: a sigmoid output
    y's derivative factor.  ``scratch`` ends as 1 - y."""
    np.multiply(x, y, out=out)
    out *= np.subtract(1.0, y, out=scratch)
    return out


def _tanh_slope(x, y, out):
    """``x * (1 - y * y)`` into ``out`` (which may be ``y``): a tanh
    output y's derivative factor."""
    np.multiply(y, y, out=out)
    np.subtract(1.0, out, out=out)
    out *= x
    return out


def _gru_backward(params, cache, grads):
    """Parameter gradients, written into ``grads``, from the loss gradient
    (T, G, B) with respect to every GRU output state, which the ``seq``
    slot holds and which is overwritten."""
    U = params["gru_U"]
    x, hs, gates, gh = cache["x"], cache["gru_hs"], cache["gru_gates"], cache["gru_gh"]
    dhs, dgh, dh_next = cache["seq"], cache["gru_dpre"], cache["gru_dh"]
    G = U.shape[0]
    z, r, n = gates[:, :G], gates[:, G : 2 * G], gates[:, 2 * G :]
    # recursion-free factors, with dn and 1 - z in place of spent gates:
    # each gate pre-activation's gradient is dh_t times one of them
    dz, dr, da = dgh[:, :G], dgh[:, G : 2 * G], dgh[:, 2 * G :]
    keep = gh[:, :G]  # 1 - z
    _sigmoid_slope(np.subtract(n, hs[:-1], out=dz), z, dz, keep)
    dn = _tanh_slope(z, n, n)
    _sigmoid_slope(np.multiply(dn, gh[:, 2 * G :], out=dr), r, dr, gh[:, G : 2 * G])
    np.multiply(dn, r, out=da)
    dh_next.fill(0.0)
    # each step's 1 - z, spent once read, takes its product with dh
    for dh, step, dgh_t, keep_t in reversed(cache["gru_back"]):
        np.add(dh, dh_next, out=dh)
        step *= dh
        np.matmul(U, dgh_t, out=dh_next)
        dh_next += np.multiply(dh, keep_t, out=keep_t)
    flat = _rows(dgh, gh)
    np.matmul(_rows(hs[:-1], cache["rows"]).T, flat, out=grads["gru_U"])
    flat.sum(axis=0, out=grads["gru_bh"])
    # the candidate's input side is not scaled by the reset gate
    np.multiply(dhs, dn, out=da)
    flat = _rows(dgh, gh)
    np.matmul(_rows(x, cache["rows"]).T, flat, out=grads["gru_W"])
    flat.sum(axis=0, out=grads["gru_bx"])


def _lstm_backward(params, cache, dh_last, grads):
    """Input gradient (T, K, B), with the parameter gradients written into
    ``grads``, from the loss gradient (L, B) with respect to the last
    hidden state only."""
    W, U = params["lstm_W"], params["lstm_U"]
    x, hs, gates = cache["lstm_x"], cache["lstm_hs"], cache["lstm_gates"]
    cs, tc = cache["lstm_cs"], cache["lstm_tc"]
    L = U.shape[0]
    i, f = gates[:, :L], gates[:, L : 2 * L]
    o, g = gates[:, 2 * L : 3 * L], gates[:, 3 * L :]
    # recursion-free factors, with the o factor and dc_dh in place of the
    # spent i and tanh(c): dc_t gains dh_t * dc_dh, and the gate
    # pre-activation gradients are dc_t (i, f, g) or dh_t (o) times these
    dpre, dh, dc = cache["lstm_dpre"], cache["lstm_dh"], cache["lstm_dc"]
    di, df = dpre[:, :L], dpre[:, L : 2 * L]
    do, dg = dpre[:, 2 * L : 3 * L], dpre[:, 3 * L :]
    _tanh_slope(i, g, dg)
    _sigmoid_slope(g, i, di, do)
    _sigmoid_slope(cs[:-1], f, df, do)
    _sigmoid_slope(tc, o, i, do)  # the o factor
    _tanh_slope(o, tc, tc)  # dc_dh
    np.copyto(dh, dh_last)
    dc.fill(0.0)
    # each step's dc_dh, spent once read, takes its product with dh
    for dc_dh_t, step, fo_t, do_t, dpre_t, f_t in reversed(cache["lstm_back"]):
        dc += np.multiply(dh, dc_dh_t, out=dc_dh_t)
        step *= dc
        np.multiply(fo_t, dh, out=do_t)
        np.matmul(U, dpre_t, out=dh)
        dc *= f_t
    flat = _rows(dpre, gates)
    np.matmul(_rows(x, cache["rows"]).T, flat, out=grads["lstm_W"])
    np.matmul(_rows(hs[:-1], cache["rows"]).T, flat, out=grads["lstm_U"])
    flat.sum(axis=0, out=grads["lstm_b"])
    # the spent ``seq`` slot (the input, once its rows are taken) takes dseq
    return np.matmul(W, dpre, out=cache["seq"])


def backward(model: RecurrentModel, batch, targets, masks=None, out=None, cache=None):
    """MSE loss and its gradient for every parameter, via full BPTT.

    ``masks`` must be the exact dropout masks used in the corresponding
    forward pass (None for evaluation-mode gradients); pre-draw them
    with :func:`draw_dropout_masks`.

    The gradients fill the flat buffer ``out`` (allocated in the
    parameters' dtype when None), laid out as :func:`train`'s parameter
    buffer is: each parameter's gradient in ``model.params`` order.
    ``cache`` holds the step's buffers, from :func:`_buffers` with ``kept``
    at this batch size and dtype (allocated when None).  Returns (named
    views of ``out`` keyed like ``model.params``, scalar loss).
    """
    size = parameter_count(model)
    if out is None:
        out = np.empty(size, dtype=model.params["gru_W"].dtype)
    elif out.shape != (size,):
        raise CausalcastError(f"gradient buffer of shape {out.shape} for {size} parameters")
    grads = _flat_views(out, {k: v.shape for k, v in model.params.items()})
    return grads, _backward(model, batch, targets, masks, grads, cache)


def _backward(model: RecurrentModel, batch, targets, masks, grads, cache) -> float:
    """:func:`backward` into ``grads``, the named views of its flat
    buffer, which ``train`` makes once per call; returns the loss."""
    x = np.asarray(batch)
    p = model.params
    dtype = p["gru_W"].dtype
    y = np.asarray(targets, dtype=dtype).reshape(-1)
    if y.shape[0] != x.shape[0]:
        raise CausalcastError(
            f"{x.shape[0]} windows but {y.shape[0]} targets"
        )
    B = x.shape[0]
    if cache is None:
        cache = _buffers(model.config, [B], dtype, kept=True)[B]
    pred = _forward(model, x, masks, cache)
    resid = pred[:, 0] - y
    loss = float(resid @ resid) / B

    dpred = (2.0 / B) * resid[:, None]
    np.matmul(cache["dense_out"].T, dpred, out=grads["head_W"])
    dpred.sum(axis=0, out=grads["head_b"])
    ddense = (dpred @ p["head_W"].T) * (cache["dense_pre"] > 0.0)
    np.matmul(cache["dense_in"].T, ddense, out=grads["dense_W"])
    ddense.sum(axis=0, out=grads["dense_b"])
    dhd = ddense @ p["dense_W"].T
    dh_final = dhd * cache["state_mask"] if masks is not None else dhd
    dhs = _lstm_backward(p, cache, dh_final.T, grads)
    if masks is not None:
        dhs *= cache["seq_mask"]
    _gru_backward(p, cache, grads)
    return loss


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
    for key, p in params.items():
        _adam_update(p, grads[key].copy(), state.m[key], state.v[key], state.step,
                     state.learning_rate, np.empty_like(p))
    return params, state


def _adam_update(p, g, m, v, step: int, learning_rate: float, scratch) -> None:
    """Adam's ``step``-th bias-corrected update of ``p`` and its moments
    ``m``, ``v``, in place.  The gradient ``g`` is spent as scratch, and
    ``scratch`` is a buffer shaped like ``p``."""
    c1 = 1.0 - ADAM_BETA1 ** step
    c2 = 1.0 - ADAM_BETA2 ** step
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
    v *= ADAM_BETA2
    np.multiply(g, g, out=scratch)
    scratch *= 1.0 - ADAM_BETA2
    v += scratch
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPSILON
    np.divide(m, c1, out=g)
    g *= learning_rate
    g /= scratch
    p -= g


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def predict(model: RecurrentModel, inputs, buffers=None) -> np.ndarray:
    """Evaluation-mode predictions flattened to shape (S,), PREDICT_BATCH
    windows a chunk.  BLAS may sum in another order at another chunk width,
    so a window predicted among other windows can differ in its last digit
    (about 1e-16); predicting the same windows again reproduces them.

    ``buffers`` holds the evaluation buffers per chunk width, which
    ``train`` carves once for all its validations; a call without them
    allocates its own.
    """
    x = np.asarray(inputs)
    S, dtype = x.shape[0], model.params["gru_W"].dtype
    out = np.empty(S, dtype=dtype)
    if S == 0:
        return out
    if buffers is None:
        buffers = _buffers(model.config, _batch_sizes(S, PREDICT_BATCH), dtype, kept=False)
    for s in range(0, S, PREDICT_BATCH):
        chunk = x[s : s + PREDICT_BATCH]
        out[s : s + len(chunk)] = _forward(model, chunk, None, buffers[len(chunk)])[:, 0]
    return out


def evaluate_mse(model: RecurrentModel, inputs, targets, buffers=None) -> float:
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    resid = predict(model, inputs, buffers) - y
    return float(resid @ resid) / y.shape[0]


def _flat_views(buffer: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Consecutive views into ``buffer`` with the keys and shapes of
    ``shapes``, in its order."""
    views, start = {}, 0
    for key, shape in shapes.items():
        size = math.prod(shape)
        views[key] = buffer[start : start + size].reshape(shape)
        start += size
    return views


def train(
    model: RecurrentModel,
    train_windows: LagWindowSet,
    validation_windows: LagWindowSet,
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

    The parameters live in one flat float64 master buffer while training:
    the returned ``model.params`` are named views into it, so Adam runs
    once over the whole model and the best-epoch snapshot is one copy.
    Forward and backward run on a float32 copy of the buffer, refreshed
    after each update, and backward fills a float32 gradient buffer of
    the same layout through named views made once per call; validation
    and the restore use the master.

    The windows are read where they are: each step gathers its batch from
    ``train_windows.inputs`` and casts it into its step buffers.  Every
    other buffer a step or a validation needs is carved once per call
    from one arena (:func:`_train_buffers`): the float32 forward cache
    and backward scratch, the float64 dropout draws and Adam's gradient
    and scratch in that scratch, and validation's float64 evaluation
    buffers over the whole arena.  Besides Adam's moments and the
    weights, a step allocates only small temporaries, none per time
    step: the batch it gathers and the dense head's (batch, units) blocks.
    """
    x_tr, y_tr = train_windows.inputs, train_windows.targets
    x_va, y_va = validation_windows.inputs, validation_windows.targets
    if x_tr.shape[0] == 0:
        raise InputError("no training samples")
    if x_va.shape[0] == 0:
        raise InputError("no validation samples")
    cfg, n, batch = model.config, x_tr.shape[0], config.batch_size
    rng = np.random.default_rng(config.seed)
    shapes = {k: p.shape for k, p in model.params.items()}
    flat = np.concatenate([p.reshape(-1) for p in model.params.values()])
    model.params = _flat_views(flat, shapes)
    work = flat.astype(np.float32)
    work_model = RecurrentModel(cfg, _flat_views(work, shapes))
    work_grad = np.empty_like(work)
    grads = _flat_views(work_grad, shapes)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    steps, validation = _train_buffers(cfg, n, x_va.shape[0], batch, flat.size)
    best, best_loss, best_epoch = flat.copy(), math.inf, 0
    val_losses: list[float] = []
    step = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        try:
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                buffers = steps[idx.size]
                draws = buffers["seq_draw"], buffers["state_draw"]
                masks = draw_dropout_masks(cfg, idx.size, rng, draws)
                _backward(work_model, x_tr[idx], y_tr[idx], masks, grads, buffers)
                grad = buffers["grad"]
                np.copyto(grad, work_grad)
                step += 1
                _adam_update(flat, grad, m, v, step, config.learning_rate,
                             buffers["adam_scratch"])
                np.copyto(work, flat)
            val_loss = evaluate_mse(model, x_va, y_va, validation)
        except NumericalError as exc:
            raise NumericalError(f"epoch {epoch}: {exc}") from exc
        val_losses.append(val_loss)
        if val_loss < best_loss:
            best_loss, best_epoch = val_loss, epoch
            np.copyto(best, flat)
        elif epoch - best_epoch >= config.patience:
            break
    np.copyto(flat, best)
    return model, TrainHistory(
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
        features = string_list(blob.get("features", []), "features")
        if features and len(features) != config.feature_count:  # [] is a bare model's
            raise ParseError(f"{len(features)} features for {config.feature_count} model inputs")
        return Checkpoint(
            model=RecurrentModel(config=config, params=params),
            features=features,
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
