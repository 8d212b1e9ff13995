import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from causalcast import (
    Checkpoint,
    LagWindowSet,
    ModelConfig,
    RecurrentModel,
    TrainConfig,
    TrainHistory,
    build_lag_windows,
    init_model,
    load_checkpoint,
    model_forward,
    parameter_count,
    predict,
    save_checkpoint,
    train,
)
from causalcast.errors import CausalcastError, InputError, NumericalError
from causalcast import nn
from causalcast.nn import (
    adam_init,
    adam_step,
    backward,
    draw_dropout_masks,
    evaluate_mse,
    gru_forward,
    lstm_forward,
)

from conftest import daily_dates, make_dataset, traced_peak


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def tiny_config(dropout=0.0):
    return ModelConfig(
        feature_count=2,
        lookback=4,
        gru_units=3,
        lstm_units=4,
        dense_units=3,
        dropout_rate=dropout,
    )


def windows(x, y):
    """``train``'s input: samples ``x`` with targets ``y``, on increasing dates."""
    return LagWindowSet(inputs=x, targets=y, sample_dates=daily_dates(len(y)))


def arrays_of(views):
    """Every array among a width's buffers, the per-step view tuples'
    included."""
    for view in views.values():
        if isinstance(view, list):
            yield from (a for step in view for a in step)
        elif view is not None:
            yield view


def step_slices(v):
    """The indexed slices that a width's stored views stand for, written
    out as the kernels once indexed them: per loop a tuple per step, and
    backward's whole-sequence gate gradients and its state gradients."""
    x, hs, gates, gh = v["x"], v["gru_hs"], v["gru_gates"], v["gru_gh"]
    lh, lc, lg, tc = v["lstm_hs"], v["lstm_cs"], v["lstm_gates"], v["lstm_tc"]
    T, _, B = x.shape
    G, L = hs.shape[1], lh.shape[1]
    kept = "seq" in v
    want = {"gru": [], "lstm": []}
    if kept:
        dg = v["dpre"][: T * 3 * G * B].reshape(T, 3 * G, B)
        dl = v["dpre"][: T * 4 * L * B].reshape(T, 4 * L, B)
        rec = v["lstm_rec"]
        want.update(gru_back=[], lstm_back=[], gru_dpre=dg, lstm_dpre=dl,
                    gru_dh=v["seq_mask"][0], lstm_dh=rec[:L], lstm_dc=rec[L : 2 * L])
    for t in range(T):
        s, now = (t, t + 1) if kept else (0, 0)
        want["gru"].append((x[t], hs[t], hs[t + 1], gates[s], gh[s], gates[s, : 2 * G],
                            gh[s, : 2 * G], gates[s, :G], gates[s, G : 2 * G],
                            gates[s, 2 * G :], gh[s, 2 * G :]))
        want["lstm"].append((hs[t + 1], lh[s], lc[s], lc[now], lh[now], lg[s],
                             lg[s, : 3 * L], lg[s, :L], lg[s, L : 2 * L],
                             lg[s, 2 * L : 3 * L], lg[s, 3 * L :], tc[s]))
        if kept:
            want["gru_back"].append((v["seq"][t], dg[t].reshape(3, G, B), dg[t], gh[t, :G]))
            want["lstm_back"].append((tc[t], dl[t].reshape(4, L, B), lg[t, :L],
                                      dl[t, 2 * L : 3 * L], dl[t], lg[t, L : 2 * L]))
    return want


def assert_is_slice(got, wanted, arena):
    assert got.base is arena
    assert got.__array_interface__["data"] == wanted.__array_interface__["data"]
    assert (got.shape, got.strides, got.dtype) == (wanted.shape, wanted.strides, wanted.dtype)


def jittered_model(config, seed):
    model = init_model(config, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for v in model.params.values():
        v += 0.1 * rng.standard_normal(v.shape)
    return model


# smoke (configs/smoke.yaml) and paper (64/128/64 units, lookback 21,
# 11 features) model shapes
SHAPES_IDS = {
    "smoke": ModelConfig(feature_count=4, lookback=12, gru_units=8, lstm_units=16,
                         dense_units=8, dropout_rate=0.1),
    "paper": ModelConfig(feature_count=11, lookback=21, gru_units=64, lstm_units=128,
                         dense_units=64, dropout_rate=0.2),
}
SHAPES = list(SHAPES_IDS.values())
# and lookback 1, where an evaluation pass's LSTM state slots hold one row
# and a step's two, while their gate slots coincide
EDGE_IDS = {**SHAPES_IDS, "lookback1": ModelConfig(
    feature_count=3, lookback=1, gru_units=5, lstm_units=6, dense_units=4, dropout_rate=0.3)}


class TestForward:
    def test_zero_weights_give_zero_output(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=0)
        for k in model.params:
            model.params[k] = np.zeros_like(model.params[k])
        x = np.random.default_rng(0).standard_normal((5, cfg.lookback, cfg.feature_count))
        np.testing.assert_array_equal(model_forward(model, x), np.zeros((5, 1)))

    def test_gru_frozen_update_gate_keeps_state(self):
        # a large input kernel opens the update gate at x_1 = 1 and shuts
        # it at x_t = 0, so h_t = h_1 for every later step
        cfg = ModelConfig(feature_count=1, lookback=1, gru_units=2, lstm_units=2,
                          dense_units=2, dropout_rate=0.0)
        p = dict(jittered_model(cfg, 1).params)
        G = cfg.gru_units
        p["gru_W"] = p["gru_W"].copy()
        p["gru_bx"] = p["gru_bx"].copy()
        p["gru_W"][0, :G] = 2e6
        p["gru_bx"][:G] = -1e6
        x = np.zeros((2, 6, 1))
        x[:, 0, 0] = 1.0
        hs = gru_forward(p, x)
        assert np.all(hs[:, 0] != 0.0)
        np.testing.assert_array_equal(hs, np.repeat(hs[:, :1], 6, axis=1))

    def test_lstm_frozen_gates_preserve_cell(self):
        # forget gate pinned open; a large input kernel opens the input
        # gate at x_1 = 1 and shuts it at x_t = 0, so c_t = c_1 = g_1
        rng = np.random.default_rng(3)
        L = 3
        W = 0.1 * rng.standard_normal((1, 4 * L))
        b = 0.1 * rng.standard_normal(4 * L)
        W[0, :L] = 2e6
        b[:L] = -1e6
        b[L : 2 * L] = 1e6
        p = {"lstm_W": W, "lstm_U": 0.1 * rng.standard_normal((L, 4 * L)), "lstm_b": b}
        x = np.zeros((2, 8, 1))
        x[:, 0, 0] = 1.0
        _, c = lstm_forward(p, x)
        c1 = np.tanh(W[0, 3 * L :] + b[3 * L :])
        np.testing.assert_allclose(c, np.tile(c1, (2, 1)), rtol=1e-15, atol=0.0)

    def test_gru_scalar_step_hand_evaluated(self):
        # two steps from h_0 = 0: step 2 exercises U, bh and the carried h_1
        p = {
            "gru_W": np.array([[0.5, 0.25, 1.0]]),
            "gru_U": np.array([[0.3, 0.2, 0.4]]),
            "gru_bx": np.array([0.1, 0.0, -0.1]),
            "gru_bh": np.array([0.05, 0.1, 0.2]),
        }
        expected, h = [], 0.0
        for x in (1.0, -0.6):
            z = sigmoid((0.5 * x + 0.1) + (0.3 * h + 0.05))
            r = sigmoid((0.25 * x + 0.0) + (0.2 * h + 0.1))
            a = 0.4 * h + 0.2
            n = math.tanh((1.0 * x - 0.1) + r * a)
            h = (1.0 - z) * h + z * n
            expected.append(h)
        hs = gru_forward(p, np.array([[[1.0], [-0.6]]]))
        np.testing.assert_allclose(hs[0, :, 0], expected, rtol=0.0, atol=1e-14)

    def test_lstm_scalar_step_hand_evaluated(self):
        # two steps from h_0 = c_0 = 0: step 2 exercises U and the carried state
        p = {
            "lstm_W": np.array([[0.5, -0.3, 0.8, 1.0]]),
            "lstm_U": np.array([[0.2, 0.1, -0.1, 0.3]]),
            "lstm_b": np.array([0.0, 1.0, 0.1, -0.2]),
        }
        expected, h, c = [], 0.0, 0.0
        for x in (0.7, -0.4):
            i = sigmoid(0.5 * x + 0.0 + 0.2 * h)
            f = sigmoid(-0.3 * x + 1.0 + 0.1 * h)
            o = sigmoid(0.8 * x + 0.1 - 0.1 * h)
            g = math.tanh(1.0 * x - 0.2 + 0.3 * h)
            c = f * c + i * g
            h = o * math.tanh(c)
            expected.append(h)
        hs, c_final = lstm_forward(p, np.array([[[0.7], [-0.4]]]))
        assert c_final[0, 0] == pytest.approx(c, abs=1e-14)
        np.testing.assert_allclose(hs[0, :, 0], expected, rtol=0.0, atol=1e-14)

    def test_batch_and_single_sequence_agree(self):
        # B equals the unit count, so states laid out the wrong way round
        # would broadcast without a shape error
        cfg = tiny_config()
        model = jittered_model(cfg, 5)
        G, L = cfg.gru_units, cfg.lstm_units
        x = np.random.default_rng(6).standard_normal((G, cfg.lookback, cfg.feature_count))
        seq = np.random.default_rng(7).standard_normal((L, cfg.lookback, G))
        cases = [
            (lambda v: (gru_forward(model.params, v),), x),
            (lambda v: lstm_forward(model.params, v), seq),
        ]
        for layer, inputs in cases:
            batch = layer(inputs)
            for b in range(inputs.shape[0]):
                for one, rows in zip(layer(inputs[b : b + 1]), batch):
                    # BLAS paths differ by shape, so only bitwise-near agreement
                    np.testing.assert_allclose(one[0], rows[b], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", EDGE_IDS.values(), ids=list(EDGE_IDS))
    def test_evaluation_mode_matches_the_cached_forward(self, shape, dtype):
        # evaluation keeps one step of state, training every step's
        model = jittered_model(shape, 31)
        model = RecurrentModel(shape, {k: v.astype(dtype) for k, v in model.params.items()})
        B = 70
        x = np.random.default_rng(32).standard_normal((B, shape.lookback, shape.feature_count))
        for masks in (None, draw_dropout_masks(shape, B, np.random.default_rng(33))):
            cache = nn._buffers(shape, [B], dtype, kept=True)[B]
            assert "seq" in cache  # so the right-hand side keeps every step
            np.testing.assert_array_equal(
                nn._forward(model, x, masks), nn._forward(model, x, masks, cache)
            )

    def test_shape_errors(self):
        model = init_model(tiny_config(), seed=0)
        with pytest.raises(CausalcastError, match=r"expected a batch B x 4 x 2, got shape \(2, 3, 2\)"):
            model_forward(model, np.zeros((2, 3, 2)))
        with pytest.raises(CausalcastError, match=r"expected a batch B x 4 x 2, got shape \(2, 4, 5\)"):
            model_forward(model, np.zeros((2, 4, 5)))
        # the layers take batches only, not one (tau, F) sequence
        with pytest.raises(CausalcastError, match=r"expected a batch B x T x C, got shape \(4, 2\)"):
            gru_forward(model.params, np.zeros((4, 2)))
        with pytest.raises(CausalcastError, match=r"expected a batch B x T x C, got shape \(4, 3\)"):
            lstm_forward(model.params, np.zeros((4, 3)))

    def test_nonfinite_input_rejected(self):
        model = init_model(tiny_config(), seed=0)
        x = np.zeros((1, 4, 2))
        x[0, 1, 0] = np.nan
        with pytest.raises(NumericalError):
            model_forward(model, x)

    @pytest.mark.parametrize("key, layer", [("gru_U", "GRU"), ("lstm_U", "LSTM")])
    def test_nan_recurrent_weight_detected(self, key, layer):
        # the fault starts inside the recursion, not in the input
        model = jittered_model(tiny_config(), 21)
        model.params[key][0, 0] = np.nan
        x = np.random.default_rng(22).standard_normal((2, 4, 2))
        with pytest.raises(NumericalError, match=layer):
            model_forward(model, x)

    def test_parameter_count_formula(self):
        cfg = ModelConfig(feature_count=10)
        assert parameter_count(init_model(cfg)) == 121729

    def test_config_validation(self):
        with pytest.raises(InputError, match="feature_count must be >= 1"):
            ModelConfig(feature_count=0)
        with pytest.raises(InputError, match=r"dropout_rate must lie in \[0, 1\)"):
            ModelConfig(feature_count=2, dropout_rate=1.0)
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            init_model(tiny_config(), seed=-1)
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("field, value", [("gru_units", 4.0), ("gru_units", True), ("lookback", 3.0)])
    def test_sizes_must_be_integers(self, field, value):
        with pytest.raises(InputError, match=field):
            ModelConfig(feature_count=3, **{field: value})


class TestDropout:
    def test_zero_rate_yields_no_masks(self):
        cfg = tiny_config(dropout=0.0)
        assert draw_dropout_masks(cfg, 4, np.random.default_rng(0)) is None

    def test_masks_are_inverted_scale(self):
        cfg = tiny_config(dropout=0.25)
        seq, state = draw_dropout_masks(cfg, 64, np.random.default_rng(1))
        keep = 1.0 / 0.75
        assert set(np.unique(seq)) <= {0.0, keep}
        assert abs(seq.mean() - 1.0) < 0.05
        assert state.shape == (64, cfg.lstm_units)

    def test_eval_mode_is_deterministic(self):
        cfg = tiny_config(dropout=0.5)
        model = jittered_model(cfg, 7)
        x = np.random.default_rng(8).standard_normal((3, 4, 2))
        np.testing.assert_array_equal(model_forward(model, x), model_forward(model, x))

    def test_train_mode_reproducible_by_seed(self):
        cfg = tiny_config(dropout=0.5)
        model = jittered_model(cfg, 9)
        x = np.random.default_rng(10).standard_normal((3, 4, 2))
        a = model_forward(model, x, dropout_rng=np.random.default_rng(3))
        b = model_forward(model, x, dropout_rng=np.random.default_rng(3))
        c = model_forward(model, x, dropout_rng=np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestGradients:
    def _fd_check(self, dropout, seed, B=2):
        cfg = tiny_config(dropout=dropout)
        model = jittered_model(cfg, seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((B, cfg.lookback, cfg.feature_count))
        y = rng.standard_normal(B)
        mask_seed = seed + 1
        masks = draw_dropout_masks(cfg, B, np.random.default_rng(mask_seed))
        grads, _ = backward(model, x, y, masks)

        def loss():
            drng = np.random.default_rng(mask_seed) if masks is not None else None
            r = model_forward(model, x, dropout_rng=drng)[:, 0] - y
            return float(r @ r) / B

        eps = 1e-5
        worst = 0.0
        for key, p in model.params.items():
            flat = p.reshape(-1)
            gflat = grads[key].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                up = loss()
                flat[j] = orig - eps
                down = loss()
                flat[j] = orig
                fd = (up - down) / (2 * eps)
                worst = max(worst, abs(fd - gflat[j]) / (abs(gflat[j]) + 1e-8))
        return worst

    def test_finite_differences_eval_mode(self):
        assert self._fd_check(dropout=0.0, seed=0) < 1e-4

    def test_finite_differences_with_dropout(self):
        assert self._fd_check(dropout=0.3, seed=1) < 1e-4

    def test_finite_differences_single_window(self):
        # one window: every batch-last block is a single column
        assert self._fd_check(dropout=0.3, seed=2, B=1) < 1e-4

    def test_gradients_fill_the_given_buffer(self):
        cfg = tiny_config(dropout=0.3)
        model = jittered_model(cfg, 17)
        rng = np.random.default_rng(18)
        x = rng.standard_normal((3, cfg.lookback, cfg.feature_count))
        y = rng.standard_normal(3)
        masks = draw_dropout_masks(cfg, 3, np.random.default_rng(19))
        keyed, loss = backward(model, x, y, masks)
        out = np.full(parameter_count(model), np.nan)
        grads, loss_out = backward(model, x, y, masks, out=out)
        assert list(grads) == list(model.params)
        assert all(grads[k].base is out and grads[k].shape == p.shape
                   for k, p in model.params.items())
        want = np.concatenate([keyed[k].reshape(-1) for k in model.params])
        np.testing.assert_array_equal(out, want)
        assert loss_out == loss
        with pytest.raises(CausalcastError, match=r"gradient buffer of shape \(209,\) for 210 parameters"):
            backward(model, x, y, masks, out=out[:-1])

    @pytest.mark.parametrize("shape", EDGE_IDS.values(), ids=list(EDGE_IDS))
    def test_reused_step_buffers_give_the_allocating_gradients(self, shape):
        # train's one arena, carved for a full and a final partial batch and
        # for 40 validation windows, filled with NaN and reused across steps
        # in either order: the dropout draws, the step, Adam's float64
        # gradient and scratch and the validation pass all match fresh
        # buffers
        model = jittered_model(shape, 41)
        single = RecurrentModel(shape, {k: v.astype(np.float32) for k, v in model.params.items()})
        size = parameter_count(model)
        rng = np.random.default_rng(42)
        steps, validation = nn._train_buffers(shape, 64 + 19, 40, 64, size)
        assert steps.keys() == {64, 19} and validation.keys() == {40}
        arena = steps[64]["x"].base
        assert all(view.base is arena for views in (*steps.values(), *validation.values())
                   for view in arrays_of(views))
        arena.fill(0xFF)  # all-ones bytes are a NaN in float32 and in float64
        out = np.empty(size, dtype=np.float32)
        flat = np.concatenate([p.reshape(-1) for p in model.params.values()])
        moments = [np.zeros_like(flat) for _ in range(4)]
        val = rng.standard_normal((40, shape.lookback, shape.feature_count))
        for t, B in enumerate((64, 19, 64, 19), start=1):
            x = rng.standard_normal((B, shape.lookback, shape.feature_count)).astype(np.float32)
            y = rng.standard_normal(B).astype(np.float32)
            buffers = steps[B]
            masks = draw_dropout_masks(shape, B, np.random.default_rng(t),
                                       (buffers["seq_draw"], buffers["state_draw"]))
            fresh = draw_dropout_masks(shape, B, np.random.default_rng(t))
            for mask, want in zip(masks, fresh):
                np.testing.assert_array_equal(mask, want)
            want, want_loss = backward(single, x, y, fresh)
            grads, loss = backward(single, x, y, masks, out, buffers)
            assert loss == want_loss
            for k in want:
                np.testing.assert_array_equal(grads[k], want[k])
            got_p, want_p = flat.copy(), flat.copy()
            np.copyto(buffers["grad"], out)
            nn._adam_update(got_p, buffers["grad"], *moments[:2], t, 1e-3,
                            buffers["adam_scratch"])
            nn._adam_update(want_p, out.astype(np.float64), *moments[2:], t, 1e-3,
                            np.empty_like(flat))
            np.testing.assert_array_equal(got_p, want_p)
            for got_m, want_m in zip(moments[:2], moments[2:]):
                np.testing.assert_array_equal(got_m, want_m)
            np.testing.assert_array_equal(predict(model, val, validation), predict(model, val))

    @pytest.mark.parametrize("shape", EDGE_IDS.values(), ids=list(EDGE_IDS))
    def test_step_views_are_the_slices_they_stand_for(self, shape):
        # train's full and partial batch widths and its validation width:
        # each view made once is the slice the kernels indexed at each step
        steps, validation = nn._train_buffers(shape, 64 + 19, 40, 64, 1000)
        arena = steps[64]["x"].base
        for views in (steps[64], steps[19], validation[40]):
            want = step_slices(views)
            assert ("gru_back" in views) == ("seq" in views)
            for name, wanted in want.items():
                if not isinstance(wanted, list):
                    assert_is_slice(views[name], wanted, arena)
                    continue
                assert len(views[name]) == len(wanted) == shape.lookback
                for got_step, want_step in zip(views[name], wanted, strict=True):
                    for got, want_view in zip(got_step, want_step, strict=True):
                        assert_is_slice(got, want_view, arena)

    def test_zero_residual_gives_zero_gradients(self):
        cfg = tiny_config()
        model = jittered_model(cfg, 11)
        x = np.random.default_rng(12).standard_normal((4, 4, 2))
        y = model_forward(model, x)[:, 0]
        grads, loss = backward(model, x, y)
        assert loss == 0.0
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_doubled_residuals_double_gradients(self):
        cfg = tiny_config()
        model = jittered_model(cfg, 13)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 4, 2))
        pred = model_forward(model, x)[:, 0]
        r = rng.standard_normal(4)
        g1, _ = backward(model, x, pred - r)
        g2, _ = backward(model, x, pred - 2.0 * r)
        for key in ("head_W", "head_b"):
            np.testing.assert_allclose(g2[key], 2.0 * g1[key], rtol=1e-12)

    def test_loss_is_mean_squared_residual(self):
        cfg = tiny_config()
        model = jittered_model(cfg, 15)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((8, 4, 2))
        y = rng.standard_normal(8)
        _, loss = backward(model, x, y)
        r = model_forward(model, x)[:, 0] - y
        assert loss == pytest.approx(float(r @ r) / 8, rel=1e-15)

    def test_kernels_compute_in_the_parameters_dtype(self):
        cfg = tiny_config(dropout=0.3)
        model = jittered_model(cfg, 19)
        single = RecurrentModel(
            cfg, {k: v.astype(np.float32) for k, v in model.params.items()}
        )
        rng = np.random.default_rng(20)
        x = rng.standard_normal((5, cfg.lookback, cfg.feature_count))
        y = rng.standard_normal(5)
        masks = draw_dropout_masks(cfg, 5, np.random.default_rng(21))

        found = []
        for m, dtype in ((model, np.float64), (single, np.float32)):
            cache = nn._buffers(cfg, [5], dtype, kept=True)[5]
            pred = nn._forward(m, x, masks, cache)
            grads, _ = backward(m, x, y, masks)
            arrays = [pred, *arrays_of(cache), *grads.values()]
            assert all(a.dtype == dtype for a in arrays), {a.dtype for a in arrays}
            found.append(grads)
        # the float32 step approximates the float64 one
        g64, g32 = found
        for k, g in g64.items():
            big = np.abs(g) > 1e-4
            np.testing.assert_allclose(g32[k][big], g[big], rtol=1e-3)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0])}
        state = adam_init(params)
        adam_step(state, params, {"w": np.zeros(2)})
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_first_step_hand_evaluated(self):
        params = {"w": np.array([1.0])}
        state = adam_init(params, learning_rate=0.001)
        adam_step(state, params, {"w": np.array([0.5])})
        m_hat = 0.5          # (0.1 * 0.5) / (1 - 0.9)
        v_hat = 0.25         # (0.001 * 0.25) / (1 - 0.999)
        expected = 1.0 - 0.001 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert params["w"][0] == pytest.approx(expected, abs=1e-16)

    def test_minimizes_quadratic(self):
        params = {"w": np.array([1.0])}
        state = adam_init(params, learning_rate=0.01)
        for _ in range(1000):
            adam_step(state, params, {"w": params["w"].copy()})
        assert abs(params["w"][0]) < 1e-3

    def test_bias_correction_scales_early_steps(self):
        # first update should be ~lr in magnitude despite tiny raw moments
        params = {"w": np.array([0.0])}
        state = adam_init(params, learning_rate=0.001)
        adam_step(state, params, {"w": np.array([1e-3])})
        assert abs(params["w"][0]) == pytest.approx(0.001, rel=1e-4)


class TestEarlyStopping:
    """``train``'s stopping rule, on a scripted validation curve."""

    def _run(self, monkeypatch, curve, patience):
        snapshots = []

        def scripted(model, inputs, targets, buffers=None):
            snapshots.append({k: v.copy() for k, v in model.params.items()})
            return curve[len(snapshots) - 1]

        monkeypatch.setattr(nn, "evaluate_mse", scripted)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 4, 2))
        y = rng.standard_normal(16)
        model, hist = train(
            jittered_model(tiny_config(), 0), windows(x[:8], y[:8]), windows(x[8:], y[8:]),
            TrainConfig(batch_size=4, max_epochs=10, patience=patience),
        )
        assert hist.validation_loss == tuple(curve[: hist.stopped_epoch])
        # the returned weights are the ones validated at the best epoch
        for k, v in snapshots[hist.best_epoch - 1].items():
            np.testing.assert_array_equal(model.params[k], v)
        return hist.stopped_epoch, hist.best_epoch

    def test_stops_one_epoch_after_best_with_patience_one(self, monkeypatch):
        assert self._run(monkeypatch, [1.0, 0.9, 0.95], patience=1) == (3, 2)

    def test_plateau_counts_as_no_improvement(self, monkeypatch):
        assert self._run(monkeypatch, [1.0, 1.0, 1.0], patience=2) == (3, 1)

    def test_counter_resets_on_improvement(self, monkeypatch):
        assert self._run(monkeypatch, [1.0, 1.1, 0.5, 0.6, 0.7], patience=2) == (5, 3)

    def test_invalid_patience(self):
        with pytest.raises(InputError, match="patience"):
            TrainConfig(patience=0)


class TestTraining:
    def _task(self, seed=0, S=320):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((S, 4, 1))
        y = x[:, -1, 0]
        return windows(x[:256], y[:256]), windows(x[256:], y[256:])

    def test_learns_identity_task(self):
        tr, va = self._task()
        cfg = ModelConfig(feature_count=1, lookback=4, gru_units=4, lstm_units=8,
                          dense_units=4, dropout_rate=0.0)
        model = init_model(cfg, seed=0)
        initial = evaluate_mse(model, va.inputs, va.targets)
        model, _ = train(
            model, tr, va,
            TrainConfig(batch_size=32, max_epochs=150, patience=150, learning_rate=0.01),
        )
        assert evaluate_mse(model, va.inputs, va.targets) < 0.01 * initial

    def test_restores_best_epoch_weights(self):
        tr, va = self._task(seed=1)
        cfg = ModelConfig(feature_count=1, lookback=4, gru_units=3, lstm_units=4,
                          dense_units=3, dropout_rate=0.3)
        model = init_model(cfg, seed=1)
        model, hist = train(
            model, tr, va,
            TrainConfig(batch_size=32, max_epochs=30, patience=5, learning_rate=0.02),
        )
        assert evaluate_mse(model, va.inputs, va.targets) == pytest.approx(
            min(hist.validation_loss), rel=1e-12
        )
        assert hist.best_epoch == 1 + int(np.argmin(hist.validation_loss))

    def test_early_stop_bounds_epochs(self):
        tr, va = self._task(seed=2)
        cfg = ModelConfig(feature_count=1, lookback=4, gru_units=3, lstm_units=4,
                          dense_units=3, dropout_rate=0.0)
        model = init_model(cfg, seed=2)
        _, hist = train(
            model, tr, va,
            TrainConfig(batch_size=64, max_epochs=100, patience=3, learning_rate=0.05),
        )
        assert hist.stopped_epoch <= hist.best_epoch + 3

    def test_seed_determinism(self):
        tr, va = self._task(seed=3)
        cfg = ModelConfig(feature_count=1, lookback=4, gru_units=3, lstm_units=4,
                          dense_units=3, dropout_rate=0.2)
        runs = []
        for _ in range(2):
            model = init_model(cfg, seed=3)
            model, hist = train(
                model, tr, va,
                TrainConfig(batch_size=32, max_epochs=10, patience=10,
                            learning_rate=0.01, seed=5),
            )
            runs.append((hist.validation_loss, {k: v.copy() for k, v in model.params.items()}))
        assert runs[0][0] == runs[1][0]
        for k in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][k], runs[1][1][k])

    def test_steps_in_float32_and_returns_float64(self, monkeypatch):
        step_dtypes = []
        step = nn._backward

        def recording(model, *args):
            step_dtypes.append(model.params["gru_W"].dtype)
            return step(model, *args)

        monkeypatch.setattr(nn, "_backward", recording)
        tr, va = self._task(seed=7)
        cfg = ModelConfig(feature_count=1, lookback=4, gru_units=3, lstm_units=4,
                          dense_units=3, dropout_rate=0.2)
        model, hist = train(init_model(cfg, seed=7), tr, va,
                            TrainConfig(batch_size=64, max_epochs=2, patience=2))
        assert step_dtypes == [np.float32] * 4 * hist.stopped_epoch
        buffer = model.params["gru_W"].base
        assert buffer is not None and buffer.dtype == np.float64
        for p in model.params.values():
            assert p.dtype == np.float64 and p.base is buffer

    def test_different_seeds_differ(self):
        tr, va = self._task(seed=4)
        cfg = ModelConfig(feature_count=1, lookback=4, gru_units=3, lstm_units=4,
                          dense_units=3, dropout_rate=0.2)
        losses = []
        for seed in (0, 1):
            model = init_model(cfg, seed=4)
            _, hist = train(
                model, tr, va,
                TrainConfig(batch_size=32, max_epochs=5, patience=5,
                            learning_rate=0.01, seed=seed),
            )
            losses.append(hist.validation_loss)
        assert losses[0] != losses[1]

    def test_nan_weight_names_the_epoch(self):
        tr, va = self._task(seed=5)
        cfg = ModelConfig(feature_count=1, lookback=4, gru_units=3, lstm_units=4,
                          dense_units=3, dropout_rate=0.0)
        model = init_model(cfg, seed=5)
        model.params["gru_U"][1, 2] = np.nan
        with pytest.raises(NumericalError, match="epoch 1: GRU"):
            train(model, tr, va, TrainConfig(batch_size=32, max_epochs=3))

    def test_validation_failure_names_the_epoch(self):
        # one step per epoch; the step itself is finite, but it throws the
        # weights so far that the validation pass overflows
        rng = np.random.default_rng(5)
        x = rng.standard_normal((64, 4, 1))
        y = x[:, -1, 0]
        cfg = ModelConfig(feature_count=1, lookback=4, gru_units=3, lstm_units=4,
                          dense_units=3, dropout_rate=0.0)
        model = init_model(cfg, seed=5)
        with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match="epoch 1: non-finite prediction"
        ):
            train(model, windows(x[:32], y[:32]), windows(x[32:], y[32:]),
                  TrainConfig(batch_size=64, max_epochs=3, learning_rate=1e300))

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(InputError, match="learning_rate"):
            TrainConfig(learning_rate=rate)

    def test_trained_model_round_trips_and_trains_again(self, tmp_path):
        tr, va = self._task(seed=6)
        cfg = ModelConfig(feature_count=1, lookback=4, gru_units=3, lstm_units=4,
                          dense_units=3, dropout_rate=0.1)
        model, hist = train(init_model(cfg, seed=6), tr, va,
                            TrainConfig(batch_size=64, max_epochs=3))
        assert (hist.n_train, hist.n_val) == (256, 64)
        path = tmp_path / "m.json"
        save_checkpoint(path, Checkpoint(model=model))
        back = load_checkpoint(path).model
        assert back.params.keys() == model.params.keys()
        for k, v in model.params.items():
            assert back.params[k].shape == v.shape
            np.testing.assert_array_equal(back.params[k], v)
        np.testing.assert_array_equal(predict(back, va.inputs), predict(model, va.inputs))

        # training the returned model again starts from its weights
        model, hist = train(model, tr, va, TrainConfig(batch_size=64, max_epochs=2))
        assert hist.stopped_epoch == 2
        assert not np.array_equal(model.params["gru_U"], back.params["gru_U"])

        # each key owns its values: writing or replacing one moves no other
        others = {k: v.copy() for k, v in model.params.items() if k != "gru_U"}
        model.params["gru_U"][...] = 7.0
        model.params["gru_U"] = np.zeros((3, 9))
        for k, v in others.items():
            np.testing.assert_array_equal(model.params[k], v)

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("shape, n", [("smoke", 64), ("smoke", 70), ("smoke", 10),
                                          ("smoke", 49), ("lookback1", 70)],
                             ids=["multiple", "remainder", "one-batch", "one-window",
                                  "lookback1"])
    def test_matches_a_reference_loop_on_fresh_buffers(self, monkeypatch, dropout, shape, n):
        # train shares one arena among the step, the dropout draws, Adam's
        # scratch and validation (in chunks of 8, 8 and 4 here); a loop
        # that allocates each afresh must give the same bits.  A last
        # batch of one window (49 at 16) and lookback 1 show a miscarved
        # per-step view first
        monkeypatch.setattr(nn, "PREDICT_BATCH", 8)
        cfg = dataclasses.replace(EDGE_IDS[shape], dropout_rate=dropout)
        rng = np.random.default_rng(n)
        ds_values = rng.standard_normal((n + 20 + cfg.lookback, cfg.feature_count))
        all_w = build_lag_windows(make_dataset(ds_values),
                                  [f"v{i}" for i in range(cfg.feature_count)], cfg.lookback, 1)
        tr, va = all_w.subset(slice(n)), all_w.subset(slice(n, None))
        config = TrainConfig(batch_size=16, max_epochs=4, patience=2,
                             learning_rate=0.02, seed=3)
        model, hist = train(init_model(cfg, seed=n), tr, va, config)
        want, want_hist = reference_train(init_model(cfg, seed=n), tr, va, config)
        assert hist == want_hist
        for k, p in want.params.items():
            np.testing.assert_array_equal(model.params[k], p)

    def test_predict_reads_window_views_as_copies(self):
        shape = SHAPES_IDS["smoke"]
        values = np.random.default_rng(25).standard_normal((700, shape.feature_count))
        w = build_lag_windows(make_dataset(values), ["v0", "v1", "v2", "v3"],
                              shape.lookback, 1)
        model = jittered_model(shape, 26)
        assert not w.inputs.flags.c_contiguous and w.n_samples > nn.PREDICT_BATCH
        np.testing.assert_array_equal(
            predict(model, w.inputs), predict(model, np.ascontiguousarray(w.inputs))
        )

    def test_predict_chunking_matches_single_batch(self):
        cfg = tiny_config()
        model = jittered_model(cfg, 17)
        x = np.random.default_rng(18).standard_normal((1100, 4, 2))
        np.testing.assert_array_equal(
            predict(model, x), model_forward(model, x)[:, 0]
        )

    @pytest.mark.parametrize("shape", SHAPES, ids=list(SHAPES_IDS))
    def test_predict_is_identical_across_chunk_sizes(self, monkeypatch, shape):
        model = jittered_model(shape, 23)
        x = np.random.default_rng(24).standard_normal(
            (1200, shape.lookback, shape.feature_count))
        want = predict(model, x)
        # widths that are multiples of 16 (tails included): OpenBLAS may
        # round the edge columns of other widths differently, e.g. 300
        for chunk in (32, 64, 128, 256):
            monkeypatch.setattr(nn, "PREDICT_BATCH", chunk)
            np.testing.assert_array_equal(predict(model, x), want)


def reference_train(model, tr, va, config):
    """``train``'s loop from its parts, every buffer allocated afresh:
    masks from ``draw_dropout_masks``, gradients from ``backward`` with no
    buffers, ``_adam_update`` on a fresh gradient and scratch, and
    validation by ``evaluate_mse``."""
    cfg, rng = model.config, np.random.default_rng(config.seed)
    flat = np.concatenate([p.reshape(-1) for p in model.params.values()])
    model.params = nn._flat_views(flat, {k: p.shape for k, p in model.params.items()})
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    best, best_loss, best_epoch, losses, step = flat.copy(), math.inf, 0, [], 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(tr.n_samples)
        for start in range(0, tr.n_samples, config.batch_size):
            idx = order[start : start + config.batch_size]
            work = RecurrentModel(cfg, {k: p.astype(np.float32) for k, p in model.params.items()})
            masks = draw_dropout_masks(cfg, idx.size, rng)
            grads, _ = backward(work, tr.inputs[idx], tr.targets[idx], masks, out=None, cache=None)
            grad = np.concatenate([g.reshape(-1) for g in grads.values()]).astype(np.float64)
            step += 1
            nn._adam_update(flat, grad, m, v, step, config.learning_rate, np.empty_like(flat))
        losses.append(evaluate_mse(model, va.inputs, va.targets))
        if losses[-1] < best_loss:
            best_loss, best_epoch = losses[-1], epoch
            best = flat.copy()
        elif epoch - best_epoch >= config.patience:
            break
    flat[...] = best
    return model, TrainHistory(tuple(losses), best_epoch, len(losses), tr.n_samples, va.n_samples)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        cfg = tiny_config(dropout=0.2)
        model = jittered_model(cfg, 19)
        ck = Checkpoint(
            model=model,
            features=("a", "b"),
            target="a",
            lead=2,
            lead_steps=2,
            method="gc",
            train_config=TrainConfig(batch_size=16),
        )
        path = tmp_path / "m.json"
        save_checkpoint(path, ck)
        back = load_checkpoint(path)
        assert back.features == ("a", "b")
        assert back.lead == 2
        assert back.method == "gc"
        for k, v in model.params.items():
            np.testing.assert_array_equal(back.model.params[k], v)
        x = np.random.default_rng(20).standard_normal((7, 4, 2))
        np.testing.assert_array_equal(
            model_forward(back.model, x), model_forward(model, x)
        )

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "something-else", "version": 1}')
        from causalcast.errors import ParseError
        with pytest.raises(ParseError):
            load_checkpoint(path)


class TestMemory:
    """Traced allocation bounds at paper shape."""

    def test_predict_holds_one_step_of_state(self):
        # a cached forward over 512 windows would hold about 83 MB
        model = init_model(SHAPES_IDS["paper"], seed=0)
        x = np.random.default_rng(0).standard_normal((512, 21, 11))
        assert traced_peak(predict, model, x) <= 20e6

    def test_training_holds_no_copy_of_its_windows(self):
        # train reads its windows where they are: four times the windows
        # must not hold a quarter more (a float32 copy of them would)
        cfg = SHAPES_IDS["paper"]
        n, n_val = 128, 40
        values = np.random.default_rng(3).standard_normal((4 * n + n_val + 21, 11))
        w = build_lag_windows(make_dataset(values), [f"v{i}" for i in range(11)], 21, 1)
        va = w.subset(slice(4 * n, None))
        config = TrainConfig(batch_size=64, max_epochs=1, patience=1)
        peaks = [traced_peak(train, init_model(cfg, seed=4), w.subset(slice(k)), va, config)
                 for k in (n, 4 * n)]
        extra = 3 * n * 21 * 11 * np.dtype(np.float32).itemsize
        assert peaks[1] - peaks[0] < extra / 10, (peaks, extra)

    def test_training_step_reuses_its_buffers(self, monkeypatch):
        # after the first step, a step allocates only small temporaries;
        # allocating its buffers afresh held 14.6 MB at once
        cfg = SHAPES_IDS["paper"]
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 21, 11))
        y = rng.standard_normal(200)
        tr, va = windows(x[:180], y[:180]), windows(x[180:], y[180:])
        marks = []
        draw = nn.draw_dropout_masks

        def marked(config, batch_size, rng, *out):
            if rng is not None:  # a training step, not validation
                marks.append(tracemalloc.get_traced_memory())
                tracemalloc.reset_peak()
            return draw(config, batch_size, rng, *out)

        monkeypatch.setattr(nn, "draw_dropout_masks", marked)
        tracemalloc.start()
        try:
            train(init_model(cfg, seed=2), tr, va,
                  TrainConfig(batch_size=64, max_epochs=1, patience=1))
        finally:
            tracemalloc.stop()
        assert len(marks) == 3
        # the second step runs between the second and the third mark
        assert marks[2][1] - marks[1][0] <= 1e6
