"""Multi-head MLP with manual backprop.

Trunk weights are stored input-major, shape (n_in, n_out), so each column of
a weight gradient lies in the span of the layer's input activations.  Each
task gets its own linear head; heads of other tasks are never touched while
training.  Biases are off by default.

One parameter order holds everywhere: the trunk is every layer, then every
layer bias (``trunk_params``); what a task trains is the trunk, then the
task's head and head bias (``task_params``, the order of the gradient list
``loss_and_grad`` returns); the whole model is the trunk, then every head
and head bias by task id (``param_arrays``, the layout of
``flatten_params``).

A model may carry leading axes in front of every array (``lead``): a stack
of N agents holds trunk layers of shape (N, n_in, n_out) and heads of shape
(N, d, c), and ``forward``, ``backward`` and ``loss_and_grad`` treat each
leading index as an independent model with its own batch.

A trunk layer may be held factored (``Mlp.factor``) as ``x0 + o c``: ``x0``
and an orthonormal ``o`` (n_in, k) shared by a stack, and each model's
coefficients ``c`` (k, n_out) in ``layers``, which is what trains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ForwardTrace:
    """Per-layer input activations captured during a forward pass."""

    inputs: list[np.ndarray]  # one (*lead, batch, n_l) array per trunk layer
    coords: list[np.ndarray]  # the inputs in each layer's coordinates: X or X o
    head_input: np.ndarray  # (*lead, batch, dims[-1])
    logits: np.ndarray  # (*lead, batch, classes)


class Mlp:
    """ReLU trunk defined by a width list plus one linear head per task."""

    def __init__(self, dims: list[int], use_bias: bool = False):
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise ValueError(f"bad width list {dims}")
        self.dims = list(dims)
        self.use_bias = use_bias
        self.lead: tuple[int, ...] = ()
        self.layers: list[np.ndarray] = [
            np.zeros((dims[l], dims[l + 1])) for l in range(len(dims) - 1)
        ]
        self.layer_biases: list[np.ndarray] | None = (
            [np.zeros(dims[l + 1]) for l in range(len(dims) - 1)]
            if use_bias
            else None
        )
        self.heads: dict[int, np.ndarray] = {}
        self.head_biases: dict[int, np.ndarray] = {}
        # (x0, o) while layer l is held as x0 + o layers[l] (``factor``)
        self.bases: list[tuple | None] = [None] * len(self.layers)

    def _map(self, fn, lead: tuple[int, ...]) -> "Mlp":
        other = Mlp(self.dims, self.use_bias)
        other.lead = lead
        other.layers = [fn(w) for w in self.layers]
        if self.layer_biases is not None:
            other.layer_biases = [fn(b) for b in self.layer_biases]
        other.heads = {t: fn(w) for t, w in self.heads.items()}
        other.head_biases = {t: fn(b) for t, b in self.head_biases.items()}
        other.bases = list(self.bases)
        return other

    def stacked(self, n: int) -> "Mlp":
        """n copies of this model along a new leading axis."""
        return self._map(lambda a: np.repeat(a[np.newaxis], n, axis=0), (n, *self.lead))

    def view(self, i: int) -> "Mlp":
        """Model i of a stack; its arrays are views that write through."""
        return self._map(lambda a: a[i], self.lead[1:])

    def add_head(self, task: int, classes: int, rng: np.random.Generator) -> None:
        """One fresh head for the task, the same for every model of a stack."""
        if task in self.heads:
            raise ValueError(f"head for task {task} already exists")
        head = _glorot(self.dims[-1], classes, rng)
        self.heads[task] = np.broadcast_to(head, (*self.lead, *head.shape)).copy()
        if self.use_bias:
            self.head_biases[task] = np.zeros((*self.lead, classes))

    def factor(self, l: int, o: np.ndarray) -> None:
        """Hold trunk layer l as ``x0 + o c``: ``x0`` is the first model's
        layer, which every model must share, and each ``c`` starts at 0."""
        x0 = self.layers[l][(0,) * len(self.lead)].copy()
        self.bases[l] = (x0, o)
        self.layers[l] = np.zeros((*self.lead, o.shape[1], x0.shape[1]))

    def fold(self) -> None:
        """Hold every layer plain again, as the first model's ``x0 + o c``,
        which every model must share."""
        for l, base in enumerate(self.bases):
            if base is not None:
                x = base[0] + base[1] @ self.layers[l][(0,) * len(self.lead)]
                self.layers[l] = np.broadcast_to(x, (*self.lead, *x.shape)).copy()
        self.bases = [None] * len(self.layers)


def _glorot(n_in: int, n_out: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-bound, bound, size=(n_in, n_out))


def init_mlp(dims: list[int], rng: np.random.Generator, use_bias: bool = False) -> Mlp:
    """Fresh trunk with Glorot-uniform weights drawn in layer order."""
    model = Mlp(dims, use_bias)
    model.layers = [
        _glorot(dims[l], dims[l + 1], rng) for l in range(len(dims) - 1)
    ]
    return model


def _t(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def forward(model: Mlp, batch: np.ndarray, task: int) -> ForwardTrace:
    """Run the trunk plus the given task's head, recording layer inputs."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.shape[:-2] != model.lead or batch.ndim != len(model.lead) + 2 or (
        batch.shape[-1] != model.dims[0]
    ):
        raise ValueError(
            f"batch shape {batch.shape} does not match input width "
            f"{model.dims[0]} on leading axes {model.lead}"
        )
    if task not in model.heads:
        raise ValueError(f"no head for task {task}")
    inputs, coords = [], []
    act = batch
    for l, (w, base) in enumerate(zip(model.layers, model.bases)):
        inputs.append(act)
        coords.append(act if base is None else act @ base[1])
        z = coords[-1] @ w
        if base is not None:
            z += act @ base[0]
        if model.layer_biases is not None:
            z += model.layer_biases[l][..., np.newaxis, :]
        act = np.maximum(z, 0.0, out=z)
    logits = act @ model.heads[task]
    if model.use_bias:
        logits += model.head_biases[task][..., np.newaxis, :]
    return ForwardTrace(inputs=inputs, coords=coords, head_input=act, logits=logits)


def _output_delta(
    model: Mlp, batch: np.ndarray, labels: np.ndarray, task: int
) -> tuple[ForwardTrace, np.ndarray, np.ndarray]:
    """Forward pass, mean cross-entropy, and per-sample ``softmax - onehot``.

    The loss is ``log sum exp(z) - z[label]`` on max-shifted logits, finite
    however far apart the logits are.
    """
    labels = np.asarray(labels)
    if labels.shape != np.shape(batch)[:-1]:
        raise ValueError("labels must match the batch shape without its last axis")
    if labels.shape[-1] == 0:
        raise ValueError("empty batch")
    trace = forward(model, batch, task)
    classes = trace.logits.shape[-1]
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(
            f"labels must lie in 0..{classes - 1}, got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    shifted = trace.logits - trace.logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(shifted, labels[..., np.newaxis], axis=-1)[..., 0]
    loss = np.mean(np.log(total[..., 0]) - picked, axis=-1)
    d = e / total - (labels[..., np.newaxis] == np.arange(classes))
    return trace, loss, d


def _layer_deltas(model: Mlp, trace: ForwardTrace, d: np.ndarray, task: int):
    """Backpropagate an output delta to each trunk layer's pre-activation."""
    dzs: list[np.ndarray] = [np.empty(0)] * len(model.layers)
    upstream = d @ _t(model.heads[task])
    for l in range(len(model.layers) - 1, -1, -1):
        post = trace.head_input if l == len(model.layers) - 1 else trace.inputs[l + 1]
        dzs[l] = np.multiply(upstream, post > 0.0, out=upstream)
        if l:
            upstream = dzs[l] @ _t(model.layers[l])
            base = model.bases[l]
            if base is not None:  # dz (x0 + o c)^T
                upstream = upstream @ base[1].T + dzs[l] @ base[0].T
    return dzs


def backward(
    model: Mlp, batch: np.ndarray, labels: np.ndarray, task: int
) -> tuple[float | np.ndarray, ForwardTrace, list[np.ndarray], list[np.ndarray]]:
    """Mean cross-entropy over the batch, and its gradients left factored.

    Returns the loss, the forward trace, each trunk layer's pre-activation
    delta ``dz_l`` (*lead, batch, n_out) of the mean loss, and the gradients
    of the arrays that follow the trunk layers in ``task_params(model,
    task)``: the layer biases, the head and the head bias.  The gradient of
    trunk layer l's stored array is ``trace.coords[l]^T dz_l``: ``X_l^T
    dz_l`` for a plain layer, whose columns lie in the span of the batch's
    layer inputs, and ``(X_l o)^T dz_l`` for a factored one.
    """
    trace, loss, d = _output_delta(model, batch, labels, task)
    d /= d.shape[-2]
    dzs = _layer_deltas(model, trace, d, task)
    rest = [dz.sum(axis=-2) for dz in dzs] if model.use_bias else []
    rest.append(_t(trace.head_input) @ d)
    if model.use_bias:
        rest.append(d.sum(axis=-2))
    return loss, trace, dzs, rest


def loss_and_grad(
    model: Mlp, batch: np.ndarray, labels: np.ndarray, task: int
) -> tuple[float | np.ndarray, list[np.ndarray]]:
    """Mean cross-entropy over the batch and its exact gradients, one per
    array of ``task_params(model, task)`` and in that order.

    For a stacked model the loss is an array over the leading axes.
    """
    loss, trace, dzs, rest = backward(model, batch, labels, task)
    return loss, [_t(x) @ dz for x, dz in zip(trace.coords, dzs)] + rest


def sample_deltas(
    model: Mlp, batch: np.ndarray, labels: np.ndarray, task: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-sample layer inputs and pre-activation deltas, one row per sample.

    The loss gradient of sample i alone is ``outer(inputs[l][i], deltas[l][i])``
    for trunk layer l, and ``deltas[l][i]`` for its bias.
    """
    trace, _, d = _output_delta(model, batch, labels, task)
    return trace.inputs, _layer_deltas(model, trace, d, task)


def capture_representation(
    model: Mlp, samples: np.ndarray, task: int
) -> list[np.ndarray]:
    """Layer-input matrices, one (n_l, n_samples) array per trunk layer.

    Columns are samples; the first entry is just the sample batch transposed.
    """
    trace = forward(model, samples, task)
    return [a.T.copy() for a in trace.inputs]


def trunk_params(model: Mlp) -> list[np.ndarray]:
    """Every trunk layer, then every layer bias."""
    return [*model.layers, *(model.layer_biases or [])]


def _head_params(model: Mlp, task: int) -> list[np.ndarray]:
    if model.use_bias:
        return [model.heads[task], model.head_biases[task]]
    return [model.heads[task]]


def task_params(model: Mlp, task: int) -> list[np.ndarray]:
    """What training on a task changes: the trunk, then its head and head bias."""
    return trunk_params(model) + _head_params(model, task)


def param_arrays(model: Mlp) -> list[np.ndarray]:
    """Every parameter array: the trunk, then each head and head bias by task id."""
    arrays = trunk_params(model)
    for task in sorted(model.heads):
        arrays += _head_params(model, task)
    return arrays


def flatten_params(model: Mlp) -> np.ndarray:
    """Flat copy of all parameters, laid out as ``param_arrays``."""
    arrays = param_arrays(model)
    if not arrays:
        return np.zeros(0)
    return np.concatenate([a.reshape(-1) for a in arrays])


def unflatten_params(model: Mlp, flat: np.ndarray) -> None:
    """Write a flat vector produced by ``flatten_params`` back in place."""
    flat = np.asarray(flat, dtype=np.float64)
    total = sum(a.size for a in param_arrays(model))
    if flat.shape != (total,):
        raise ValueError(f"expected a flat vector of length {total}, got {flat.shape}")
    offset = 0
    for a in param_arrays(model):
        a[...] = flat[offset : offset + a.size].reshape(a.shape)
        offset += a.size
