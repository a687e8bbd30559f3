"""Small fully-connected classifier: forward, backprop, SGD with momentum.

Row-vector convention throughout: Y = XW + b with W stored (inputs, outputs),
so a batch is (B, inputs) @ (inputs, outputs).  Training runs in float64;
the loss is softmax cross-entropy, computed with the usual logsumexp shift.
Each layer casts its input to its weights' dtype: the model file stores layer 0
in float32, so a loaded head runs that layer in float32.

RNG streams are split by purpose so results never depend on call order:
default_rng([seed, 0]) for the train/test split, [seed, 1] for weight init,
[seed, 2] for the per-epoch shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError

# Hidden widths of the head between the scattering features and the class scores.
HIDDEN = (64, 16)


@dataclass(eq=False)
class MlpModel:
    """Layer dims [input_len, h1, ..., classes], weight matrices (in, out),
    bias vectors, and the model file's index of the first layer, which error
    messages name (1 for the layers after a streamed layer 0)."""

    dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    first_layer: int = 0

    def __post_init__(self):
        if len(self.dims) < 2:
            raise DataError("model needs at least input and output dims")
        if len(self.weights) != len(self.dims) - 1 or len(self.biases) != len(self.dims) - 1:
            raise DataError("weights/biases must have one entry per layer")
        for j, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.dims[j], self.dims[j + 1]) or b.shape != (self.dims[j + 1],):
                raise DataError(
                    f"layer {self.first_layer + j}: weight {w.shape} / bias {b.shape} do not chain "
                    f"{self.dims[j]}->{self.dims[j + 1]}")
            # Load-bearing for frame speed after load_model: freeing this 19 MB (720p) temporary
            # lifts glibc's dynamic mmap threshold, so later frame planes skip page faults.
            check_finite(self.first_layer + j, w, b)

    @property
    def classes(self) -> int:
        return self.dims[-1]


@dataclass(frozen=True)
class TrainConfig:
    """SGD-with-momentum hyperparameters.  learning_rate 0 is allowed and
    leaves the model untouched (useful as a no-op baseline)."""

    learning_rate: float = 0.001
    momentum: float = 0.9
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.learning_rate < float("inf"):
            raise DataError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise DataError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.epochs < 1 or self.batch_size < 1:
            raise DataError("epochs and batch_size must be >= 1")


def init_model(dims, seed: int = 0) -> MlpModel:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng([seed, 1])
    weights, biases = [], []
    for j in range(len(dims) - 1):
        a = np.sqrt(6.0 / (dims[j] + dims[j + 1]))
        weights.append(rng.uniform(-a, a, size=(dims[j], dims[j + 1])))
        biases.append(np.zeros(dims[j + 1]))
    return MlpModel(dims, weights, biases)


def check_finite(j: int, *arrays):  # j is the layer's index in the model file
    if not all(np.isfinite(a).all() for a in arrays):
        raise DataError(f"layer {j}: non-finite parameters")


def _check_features(model: MlpModel, x: np.ndarray):
    if x.shape[-1] != model.dims[0]:
        raise DataError(f"feature length {x.shape[-1]} does not match model input {model.dims[0]}")


def _one_row(model: MlpModel, features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1:
        raise DataError(f"expected a 1D feature vector, got shape {x.shape}")
    _check_features(model, x)
    return x[None, :]


def _forward_batch(model: MlpModel, x: np.ndarray):
    """Returns (score matrix, list of post-ReLU activations per layer input)."""
    acts = [x]
    a = x
    for j, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a.astype(w.dtype, copy=False) @ w + b
        if j < len(model.weights) - 1:
            a = np.maximum(z, 0.0)
            acts.append(a)
        else:
            a = z
    return a, acts


def mlp_forward(model: MlpModel, features) -> np.ndarray:
    """Class scores FC(ReLU(FC(ReLU(FC(x))))) for one feature vector."""
    scores, _ = _forward_batch(model, _one_row(model, features))
    return scores[0]


def softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(scores: np.ndarray, target: int) -> float:
    """Softmax cross-entropy of one score vector; logsumexp-stable."""
    m = scores.max()
    return float(np.log(np.exp(scores - m).sum()) + m - scores[target])


def _batch_loss_grads(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """Mean loss over the batch and gradients of that mean."""
    scores, acts = _forward_batch(model, x)
    m = scores.max(axis=1, keepdims=True)
    lse = np.log(np.exp(scores - m).sum(axis=1, keepdims=True)) + m
    loss = float(np.mean(lse[:, 0] - scores[np.arange(len(y)), y]))
    dz = softmax(scores)
    dz[np.arange(len(y)), y] -= 1.0
    dz /= len(y)
    dws, dbs = [None] * len(model.weights), [None] * len(model.weights)
    for j in range(len(model.weights) - 1, -1, -1):
        dws[j] = acts[j].T @ dz
        dbs[j] = dz.sum(axis=0)
        if j > 0:
            dz = (dz @ model.weights[j].T) * (acts[j] > 0)
    return loss, dws, dbs


def mlp_backward(model: MlpModel, features, target_class: int):
    """Gradients of the softmax-cross-entropy loss for one example.

    Returns (dweights, dbiases), matching model.weights/biases shapes.
    """
    x = _one_row(model, features)
    if not 0 <= target_class < model.classes:
        raise DataError(f"target class {target_class} out of range 0..{model.classes - 1}")
    _, dws, dbs = _batch_loss_grads(model, x, np.array([target_class]))
    return dws, dbs


def train(model: MlpModel, features, labels, config: TrainConfig):
    """SGD with momentum: v <- momentum*v - lr*grad, param += v.

    Runs epochs full passes in shuffled mini-batches; deterministic for a
    fixed seed.  Returns (model, per-epoch mean loss history); the model is
    updated in place and also returned.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if not np.issubdtype(y.dtype, np.integer):
        raise DataError(f"labels must be integers, got dtype {y.dtype}")
    y = y.astype(np.int64)
    if x.ndim != 2 or len(x) != len(y):
        raise DataError(f"need matching 2D features and labels, got {x.shape} / {y.shape}")
    if len(x) == 0:
        raise DataError("empty dataset")
    _check_features(model, x)
    if y.min() < 0 or y.max() >= model.classes:
        raise DataError(f"labels must be in 0..{model.classes - 1}")
    rng = np.random.default_rng([config.seed, 2])
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    history = []
    step = 0
    for _ in range(config.epochs):
        perm = rng.permutation(len(x))
        total, seen = 0.0, 0
        for start in range(0, len(x), config.batch_size):
            batch = perm[start:start + config.batch_size]
            loss, dws, dbs = _batch_loss_grads(model, x[batch], y[batch])
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at step {step}")
            for j in range(len(model.weights)):
                vel_w[j] = config.momentum * vel_w[j] - config.learning_rate * dws[j]
                vel_b[j] = config.momentum * vel_b[j] - config.learning_rate * dbs[j]
                model.weights[j] += vel_w[j]
                model.biases[j] += vel_b[j]
            total += loss * len(batch)
            seen += len(batch)
            step += 1
        history.append(total / seen)
    return model, history


def predict(model: MlpModel, features) -> np.ndarray:
    """Argmax class index per row (first maximal index on ties)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    _check_features(model, x)
    scores, _ = _forward_batch(model, x)
    return np.argmax(scores, axis=1)


def split_train_test(labels, seed: int = 0):
    """Per-class shuffled split; floor(0.8*n) of each class goes to train."""
    y = np.asarray(labels)
    rng = np.random.default_rng([seed, 0])
    train_idx, test_idx = [], []
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(len(idx))]
        cut = int(0.8 * len(idx))
        train_idx.extend(idx[:cut])
        test_idx.extend(idx[cut:])
    return np.sort(np.array(train_idx, dtype=np.int64)), np.sort(np.array(test_idx, dtype=np.int64))


def models_equal(a: MlpModel, b: MlpModel) -> bool:
    """Bitwise parameter equality."""
    return (a.dims == b.dims
            and all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
            and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases)))
