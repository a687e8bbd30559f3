"""MLP forward/backward against straight-line and finite-difference oracles."""

import tracemalloc

import numpy as np
import pytest

import oracles
from wavescat.errors import DataError, NumericError
from wavescat.formats import load_model, save_model
from wavescat.mlp import (
    MlpModel,
    TrainConfig,
    cross_entropy,
    init_model,
    mlp_backward,
    mlp_forward,
    models_equal,
    predict,
    softmax,
    split_train_test,
    train,
)


def _zero_model(dims):
    return MlpModel(tuple(dims),
                    [np.zeros((dims[j], dims[j + 1])) for j in range(len(dims) - 1)],
                    [np.zeros(dims[j + 1]) for j in range(len(dims) - 1)])


def _toy_blobs(seed=21, per_class=20, classes=3, spread=0.25):
    """Fixed seeded, linearly separable 2D blobs."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0]])[:classes]
    x = np.concatenate([c + spread * rng.standard_normal((per_class, 2)) for c in centers])
    y = np.repeat(np.arange(classes), per_class)
    return x, y


# ---------------------------------------------------------------------------
# forward


def test_forward_matches_straight_line_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model = init_model((8, 4, 3, 2), seed=seed)
        x = rng.standard_normal(8)
        got = mlp_forward(model, x)
        want = oracles.brute_mlp_forward(model.weights, model.biases, x)
        assert got.shape == (2,)
        assert oracles.rel_err(got, want) <= 1e-12


def test_forward_zero_model_gives_zero_scores():
    model = _zero_model((6, 4, 3, 5))
    scores = mlp_forward(model, np.random.default_rng(0).standard_normal(6))
    assert np.array_equal(scores, np.zeros(5))


def test_forward_identity_chain_passes_positive_input():
    model = MlpModel((1, 1, 1, 1), [np.ones((1, 1))] * 3, [np.zeros(1)] * 3)
    x = 0.7243
    assert mlp_forward(model, [x])[0] == x


def test_forward_dimension_mismatch_names_lengths():
    model = init_model((8, 4, 2), seed=0)
    with pytest.raises(DataError, match="feature length 7 does not match model input 8"):
        mlp_forward(model, np.zeros(7))
    with pytest.raises(DataError, match="1D"):
        mlp_forward(model, np.zeros((2, 8)))


def test_forward_is_pure_and_bitwise_repeatable():
    model = init_model((10, 64, 16, 5), seed=3)
    x = np.random.default_rng(4).random(10)
    assert np.array_equal(mlp_forward(model, x), mlp_forward(model, x))


def test_float32_features_keep_scores_within_1e_minus3():
    # inference consumes float32 feature files; the round-trip must not move
    # scores by more than the documented 1e-3
    model = init_model((64, 32, 16, 5), seed=8)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.random(64)
        full = mlp_forward(model, x)
        narrowed = mlp_forward(model, x.astype(np.float32).astype(np.float64))
        assert oracles.rel_err(narrowed, full) <= 1e-3


def _forward_peak(model, x):
    """(scores, tracemalloc's peak over one mlp_forward call after a warm-up call)."""
    mlp_forward(model, x)  # first-call set-up stays outside the trace
    tracemalloc.start()
    try:
        scores = mlp_forward(model, x)
        return scores, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_on_a_float32_layer0_never_widens_it():
    # formats.load_model's inference head: each layer casts its input to its
    # weights' dtype, so W0 is read as float32 and never copied to float64
    base = init_model((65536, 64, 16, 5), seed=9)
    model = MlpModel(base.dims, [base.weights[0].astype(np.float32), *base.weights[1:]],
                     base.biases)
    x = np.random.default_rng(9).random(65536)
    scores, peak = _forward_peak(model, x)
    assert peak < model.weights[0].nbytes / 4
    assert scores.dtype == np.float64
    assert (np.abs(scores - mlp_forward(base, x))
            <= oracles.float32_head_score_bound(base, x)).all()


def test_forward_on_the_loaded_column_major_layer0_never_copies_it(tmp_path):
    # load_model holds W0 column-major so BLAS runs its dot-product GEMV; numpy
    # hands that operand over with a transpose flag, and a copy would add a W0
    base = init_model((65536, 64, 16, 5), seed=9)
    save_model(base, tmp_path / "m.bin")
    model = load_model(tmp_path / "m.bin")
    assert model.weights[0].flags.f_contiguous
    x = np.random.default_rng(9).random(65536)
    scores, peak = _forward_peak(model, x)
    assert peak < model.weights[0].nbytes / 4
    assert (np.abs(scores - mlp_forward(base, x))
            <= oracles.float32_head_score_bound(base, x)).all()


def test_predict_takes_first_max_on_ties():
    model = _zero_model((4, 3, 3))
    assert predict(model, np.ones((2, 4))).tolist() == [0, 0]


# ---------------------------------------------------------------------------
# loss and softmax


def test_cross_entropy_matches_brute():
    rng = np.random.default_rng(5)
    for _ in range(50):
        scores = rng.standard_normal(5) * rng.uniform(0.1, 50)
        t = int(rng.integers(0, 5))
        assert abs(cross_entropy(scores, t) - oracles.brute_cross_entropy(list(scores), t)) <= 1e-12


def test_cross_entropy_uniform_scores_is_log_classes():
    for k in (2, 5, 16):
        assert abs(cross_entropy(np.zeros(k), 0) - np.log(k)) <= 1e-12


def test_cross_entropy_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(200):
        scores = rng.standard_normal(4) * 10
        assert cross_entropy(scores, int(rng.integers(0, 4))) >= 0.0


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    s = softmax(rng.standard_normal((8, 5)) * 30)
    assert np.allclose(s.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert (s >= 0).all()


# ---------------------------------------------------------------------------
# gradients


def sample_kink_free_pair(seed, dims=(6, 5, 4, 3), margin=1e-3):
    """Random (model, input, target) with every hidden pre-activation at
    least `margin` away from the ReLU kink, so central differences with a
    1e-5 step never straddle the non-differentiable point."""
    rng = np.random.default_rng(seed)
    model = init_model(dims, seed=seed)
    for b in model.biases:
        b[:] = rng.uniform(-0.5, 0.5, size=b.shape)
    while True:
        x = rng.standard_normal(dims[0])
        a, clear = x, True
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            z = a @ w + b
            clear = clear and float(np.min(np.abs(z))) > margin
            a = np.maximum(z, 0.0)
        if clear:
            return model, x, int(rng.integers(0, dims[-1]))


def gradcheck_worst_rel(model, x, t, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.
    Denominators are floored at 1e-6: the FD noise floor is ~1e-11, so
    entries below the floor are effectively compared absolutely."""
    dws, dbs = mlp_backward(model, x, t)
    loss = lambda: cross_entropy(mlp_forward(model, x), t)
    fd = oracles.fd_gradients(loss, model.weights + model.biases, eps)
    worst = 0.0
    for a, f in zip(dws + dbs, fd):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def _gradcheck_once(seed, dims=(6, 5, 4, 3), eps=1e-5, tol=1e-4):
    model, x, t = sample_kink_free_pair(seed, dims)
    worst = gradcheck_worst_rel(model, x, t, eps)
    assert worst <= tol, f"seed {seed}: relative error {worst}"


def test_gradients_match_finite_differences():
    for seed in range(10):
        _gradcheck_once(seed)


def test_zero_input_zero_biases_first_layer_weight_grad_zero():
    model = init_model((5, 4, 3), seed=9)
    dws, dbs = mlp_backward(model, np.zeros(5), 1)
    assert np.array_equal(dws[0], np.zeros((5, 4)))
    assert not np.array_equal(dbs[-1], np.zeros(3))


def test_backward_rejects_bad_target():
    model = init_model((4, 3, 2), seed=0)
    with pytest.raises(DataError, match="target class 2 out of range 0..1"):
        mlp_backward(model, np.zeros(4), 2)


def test_loss_decreases_on_separable_toy_set():
    # one full-batch step per epoch; plain SGD on the committed seeded blobs
    x, y = _toy_blobs()
    model = init_model((2, 8, 4, 3), seed=1)
    cfg = TrainConfig(learning_rate=0.2, momentum=0.0, epochs=10, batch_size=len(x), seed=1)
    _, history = train(model, x, y, cfg)
    assert len(history) == 10
    assert all(b < a for a, b in zip(history, history[1:]))


# ---------------------------------------------------------------------------
# training


def test_lr_zero_leaves_model_bitwise_unchanged():
    x, y = _toy_blobs()
    model = init_model((2, 8, 4, 3), seed=2)
    twin = init_model((2, 8, 4, 3), seed=2)
    train(model, x, y, TrainConfig(learning_rate=0.0, epochs=3, batch_size=16, seed=5))
    assert models_equal(model, twin)


def test_momentum_zero_equals_independent_plain_sgd():
    x, y = _toy_blobs(seed=22)
    x = np.asarray(x, dtype=np.float64)
    model = init_model((2, 8, 4, 3), seed=4)
    want_w, want_b = oracles.plain_sgd(model.weights, model.biases, x, y.astype(np.int64),
                                       lr=0.05, epochs=4, batch_size=16, seed=11)
    cfg = TrainConfig(learning_rate=0.05, momentum=0.0, epochs=4, batch_size=16, seed=11)
    train(model, x, y, cfg)
    for got, want in zip(model.weights + model.biases, want_w + want_b):
        assert np.array_equal(got, want)


def test_training_is_bitwise_deterministic():
    x, y = _toy_blobs(seed=23)
    runs = []
    for _ in range(2):
        model = init_model((2, 8, 4, 3), seed=6)
        _, history = train(model, x, y, TrainConfig(epochs=5, batch_size=16, seed=6))
        runs.append((model, history))
    assert models_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_train_rejects_bad_datasets():
    model = init_model((2, 4, 3), seed=0)
    cfg = TrainConfig(epochs=1)
    with pytest.raises(DataError, match="labels must be integers"):
        train(model, np.zeros((4, 2)), np.zeros(4), cfg)
    with pytest.raises(DataError, match="empty dataset"):
        train(model, np.zeros((0, 2)), np.zeros(0, dtype=np.int64), cfg)
    with pytest.raises(DataError, match="labels must be in 0..2"):
        train(model, np.zeros((2, 2)), np.array([0, 3]), cfg)
    with pytest.raises(DataError, match="matching 2D features"):
        train(model, np.zeros((4, 2)), np.zeros(3, dtype=np.int64), cfg)
    with pytest.raises(DataError, match="feature length 5"):
        train(model, np.zeros((4, 5)), np.zeros(4, dtype=np.int64), cfg)


def test_non_finite_loss_aborts_with_step_index():
    # all-ones weights push 1e308 inputs to inf scores -> nan loss
    model = MlpModel((2, 4, 3), [np.ones((2, 4)), np.ones((4, 3))],
                     [np.zeros(4), np.zeros(3)])
    huge = np.full((8, 2), 1e308)
    cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=8, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="non-finite loss at step 0"):
            train(model, huge, np.zeros(8, dtype=np.int64), cfg)


def test_train_config_guards():
    with pytest.raises(DataError, match="learning_rate"):
        TrainConfig(learning_rate=-0.1)
    TrainConfig(learning_rate=0.0)  # explicitly allowed: no-op baseline
    with pytest.raises(DataError, match="momentum"):
        TrainConfig(momentum=1.0)
    with pytest.raises(DataError, match="momentum"):
        TrainConfig(momentum=-0.5)
    with pytest.raises(DataError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(DataError, match="batch_size"):
        TrainConfig(batch_size=0)


# ---------------------------------------------------------------------------
# init and split


def test_init_model_glorot_bounds_and_zero_biases():
    dims = (20, 8, 5)
    model = init_model(dims, seed=13)
    for j, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = np.sqrt(6.0 / (dims[j] + dims[j + 1]))
        assert np.abs(w).max() <= a
        assert np.array_equal(b, np.zeros(dims[j + 1]))
    assert model.dims == dims


def test_init_model_seed_controls_weights():
    a = init_model((6, 4, 2), seed=1)
    b = init_model((6, 4, 2), seed=1)
    c = init_model((6, 4, 2), seed=2)
    assert models_equal(a, b)
    assert not models_equal(a, c)


def test_model_validation():
    with pytest.raises(DataError, match="at least input and output"):
        MlpModel((4,), [], [])
    with pytest.raises(DataError, match="do not chain"):
        MlpModel((4, 3), [np.zeros((4, 2))], [np.zeros(3)])
    with pytest.raises(DataError, match="non-finite"):
        MlpModel((2, 2), [np.full((2, 2), np.inf)], [np.zeros(2)])


def test_split_train_test_partitions_each_class():
    y = np.array([0] * 10 + [1] * 5 + [2] * 7)
    tr, te = split_train_test(y, seed=3)
    assert np.array_equal(np.sort(np.concatenate([tr, te])), np.arange(len(y)))
    assert len(np.intersect1d(tr, te)) == 0
    for cls, n in ((0, 10), (1, 5), (2, 7)):
        assert (y[tr] == cls).sum() == int(0.8 * n)
    tr2, te2 = split_train_test(y, seed=3)
    assert np.array_equal(tr, tr2) and np.array_equal(te, te2)
    assert np.array_equal(tr, np.sort(tr))


def test_models_equal_compares_parameters_bitwise():
    a = init_model((3, 2), seed=7)
    b = MlpModel(a.dims, [w.copy() for w in a.weights], [v.copy() for v in a.biases])
    assert models_equal(a, b)
    b.biases[0][0] = np.nextafter(0.0, 1.0)
    assert not models_equal(a, b)
