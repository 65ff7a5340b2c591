"""CoDeC's local step (``local_step``): a multi-head MLP with manual
backprop whose trunk gradients are projected off the memory as in GPM (Saha,
Garg & Roy, ICLR 2021), by training each layer held over its complement.

Trunk weights are stored input-major, shape (n_in, n_out), so each column of
a weight gradient lies in the span of the layer's input activations.  Each
task gets its own linear head; heads of other tasks are never touched while
training.  There are no biases: a bias gradient lies in no layer's input
span, so the memory could not protect it nor the codec compress it.

One parameter order holds everywhere: what a task trains is every trunk
layer, then the task's head (``task_params``, the order of the gradient
list ``loss_and_grad`` returns); the whole model is every trunk layer, then
every head by task id (``param_arrays``, the layout of ``flatten_params``).

A model may carry leading axes in front of every array (``lead``): a stack
of N agents holds trunk layers of shape (N, n_in, n_out) and heads of shape
(N, d, c), and ``forward``, ``backward`` and ``loss_and_grad`` treat each
leading index as an independent model with its own batch.

A trunk layer may be held factored (``Mlp.factor``) as ``x0 + o c``: ``x0``
and an orthonormal ``o`` (n_in, k) shared by a stack, and each model's
coefficients ``c`` (k, n_out) in ``layers``, which is what trains.  A held
layer keeps these shared factors with C-contiguous copies of their
transposes (``Factor``), which the backward pass multiplies by.

The loss reduces over the class axis one class at a time (``_over_classes``)
while there are fewer than 8 classes, and with numpy's reductions from 8 on,
with the same bits either way.

A training loop may pass a workspace, a dict that holds the pass's
layer-sized products across calls of the same shapes (``_matmul``), and
one scratch buffer for the products that are used at once (``scratch``,
the gossip round's block buffer too), so that a step after the first
allocates none; without one (``None``) every product is a fresh array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gpm import GpmState


class InvariantError(RuntimeError):
    """A ``debug_checks`` invariant failed: descent, mu, norm split or tracking."""


def require(ok: np.ndarray, what: str, *values: np.ndarray) -> None:
    """Raise ``InvariantError`` at the first agent where ``ok`` is false,
    ``what`` formatted with that agent's entries of ``values``."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = int(bad[0])
        raise InvariantError(f"agent {i} " + what.format(*(v[i] for v in values)))


@dataclass
class ForwardTrace:
    """Per-layer input activations captured during a forward pass."""

    inputs: list[np.ndarray]  # one (*lead, batch, n_l) array per trunk layer
    coords: list[np.ndarray]  # the inputs in each layer's coordinates: X or X o
    head_input: np.ndarray  # (*lead, batch, dims[-1])
    logits: np.ndarray  # (*lead, batch, classes)


class Factor(NamedTuple):
    """The shared factors of a layer held as ``x0 + o c``, with C-contiguous
    copies of their transposes: a batched matmul by a shared transposed
    view runs 2-3x slower than by a contiguous array."""

    x0: np.ndarray  # (n_in, n_out)
    o: np.ndarray  # (n_in, k), orthonormal columns
    x0_t: np.ndarray  # x0^T
    o_t: np.ndarray  # o^T


class Mlp:
    """ReLU trunk defined by a width list plus one linear head per task."""

    def __init__(self, dims: list[int]):
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise ValueError(f"dims must list widths of at least 1, got {dims}")
        self.dims = list(dims)
        self.lead: tuple[int, ...] = ()
        self.layers: list[np.ndarray] = [
            np.zeros((dims[l], dims[l + 1])) for l in range(len(dims) - 1)
        ]
        self.heads: dict[int, np.ndarray] = {}
        # while layer l is held as x0 + o layers[l] (``factor``)
        self.bases: list[Factor | None] = [None] * len(self.layers)

    def _map(self, fn, lead: tuple[int, ...]) -> "Mlp":
        other = Mlp(self.dims)
        other.lead = lead
        other.layers = [fn(w) for w in self.layers]
        other.heads = {t: fn(w) for t, w in self.heads.items()}
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

    def factor(self, l: int, o: np.ndarray) -> None:
        """Hold trunk layer l as ``x0 + o c``: ``x0`` is the first model's
        layer, which every model must share, and each ``c`` starts at 0."""
        x0 = self.layers[l][(0,) * len(self.lead)].copy()
        t = np.ascontiguousarray
        self.bases[l] = Factor(x0, o, t(x0.T), t(o.T))
        self.layers[l] = np.zeros((*self.lead, o.shape[1], x0.shape[1]))

    def fold(self) -> None:
        """Hold every layer plain again, as the first model's ``x0 + o c``,
        which every model must share."""
        for l, base in enumerate(self.bases):
            if base is not None:
                x = base.x0 + base.o @ self.layers[l][(0,) * len(self.lead)]
                self.layers[l] = np.broadcast_to(x, (*self.lead, *x.shape)).copy()
        self.bases = [None] * len(self.layers)


def _glorot(n_in: int, n_out: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-bound, bound, size=(n_in, n_out))


def init_mlp(dims: list[int], rng: np.random.Generator) -> Mlp:
    """Fresh trunk with Glorot-uniform weights drawn in layer order."""
    model = Mlp(dims)
    model.layers = [
        _glorot(dims[l], dims[l + 1], rng) for l in range(len(dims) - 1)
    ]
    return model


def _t(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _matmul(a: np.ndarray, b: np.ndarray, ws: dict | None, key) -> np.ndarray:
    """``a @ b``, written into the workspace's buffer ``key`` if there is a
    workspace: the first call makes the buffer, later calls reuse it."""
    if ws is None:
        return a @ b
    out = ws.get(key)
    if out is None:
        out = ws[key] = a @ b
        return out
    return np.matmul(a, b, out=out)


def scratch(ws: dict | None, shape: tuple[int, ...]) -> np.ndarray:
    """An array of ``shape``, dead by the next call on the same workspace: a
    view of the workspace's scratch buffer, grown to fit, or a fresh array
    without a workspace."""
    if ws is None:
        return np.empty(shape)
    size = math.prod(shape)
    buf = ws.get("scratch")
    if buf is None or buf.size < size:
        buf = ws["scratch"] = np.empty(size)
    return buf[:size].reshape(shape)


def forward(
    model: Mlp, batch: np.ndarray, task: int, ws: dict | None = None
) -> ForwardTrace:
    """Run the trunk plus the given task's head, recording layer inputs;
    ``ws`` is an optional workspace (see the module docstring)."""
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
        coords.append(act if base is None else _matmul(act, base.o, ws, ("xo", l)))
        z = _matmul(coords[-1], w, ws, ("z", l))
        if base is not None:
            z += np.matmul(act, base.x0, out=scratch(ws, z.shape))
        act = np.maximum(z, 0.0, out=z)
    logits = act @ model.heads[task]
    return ForwardTrace(inputs=inputs, coords=coords, head_input=act, logits=logits)


def _output_delta(
    model: Mlp, batch: np.ndarray, labels: np.ndarray, task: int, ws: dict | None
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
    trace = forward(model, batch, task, ws)
    classes = trace.logits.shape[-1]
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(
            f"labels must lie in 0..{classes - 1}, got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    shifted = trace.logits - _over_classes(np.maximum, trace.logits)[..., np.newaxis]
    d = np.exp(shifted)
    total = _over_classes(np.add, d)
    # each sample's label entry as a flat index into the C-ordered logits
    hot = np.arange(0, labels.size * classes, classes) + labels.reshape(-1)
    picked = shifted.reshape(-1).take(hot).reshape(labels.shape)
    # np.mean's own two steps, without its Python wrapper
    loss = np.add.reduce(np.log(total) - picked, axis=-1) / labels.shape[-1]
    d /= total[..., np.newaxis]
    d.reshape(-1)[hot] -= 1.0
    return trace, loss, d


def _over_classes(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)``, bit for bit.  Below 8 classes it is one
    call per class, left to right: numpy reduces so short an axis ~10x
    slower, and sums it in the same order; from 8 on its sum is pairwise."""
    if a.shape[-1] >= 8:
        return ufunc.reduce(a, axis=-1)
    out = a[..., 0].copy()
    for k in range(1, a.shape[-1]):
        ufunc(out, a[..., k], out=out)
    return out


def _layer_deltas(
    model: Mlp, trace: ForwardTrace, d: np.ndarray, task: int, ws: dict | None
):
    """Backpropagate an output delta to each trunk layer's pre-activation."""
    last = len(model.layers) - 1
    dzs: list[np.ndarray] = [np.empty(0)] * len(model.layers)
    upstream = _matmul(d, _t(model.heads[task]), ws, ("up", last))
    for l in range(last, -1, -1):
        post = trace.head_input if l == last else trace.inputs[l + 1]
        # the ReLU's derivative, 1 where post > 0, else 0, as floats: post is
        # a ReLU output, so ceil(min(post, 1)); a bool mask is cast through a
        # 64 KiB buffer
        mask = np.minimum(post, 1.0, out=scratch(ws, post.shape))
        dzs[l] = np.multiply(upstream, np.ceil(mask, out=mask), out=upstream)
        if not l:
            break
        base = model.bases[l]
        if base is None:
            upstream = _matmul(dzs[l], _t(model.layers[l]), ws, ("up", l - 1))
        else:  # dz (x0 + o c)^T
            c = model.layers[l]
            dz_c = scratch(ws, (*d.shape[:-1], c.shape[-2]))
            np.matmul(dzs[l], _t(c), out=dz_c)
            upstream = _matmul(dz_c, base.o_t, ws, ("up", l - 1))
            x0_term = scratch(ws, upstream.shape)
            upstream += np.matmul(dzs[l], base.x0_t, out=x0_term)
    return dzs


def backward(
    model: Mlp,
    batch: np.ndarray,
    labels: np.ndarray,
    task: int,
    ws: dict | None = None,
) -> tuple[float | np.ndarray, ForwardTrace, list[np.ndarray], np.ndarray]:
    """Mean cross-entropy over the batch, and its gradients left factored.

    Returns the loss, the forward trace, each trunk layer's pre-activation
    delta ``dz_l`` (*lead, batch, n_out) of the mean loss, and the gradient
    of the task's head.  The gradient of
    trunk layer l's stored array is ``trace.coords[l]^T dz_l``: ``X_l^T
    dz_l`` for a plain layer, whose columns lie in the span of the batch's
    layer inputs, and ``(X_l o)^T dz_l`` for a factored one.  With a
    workspace ``ws`` the trace and the deltas live in its buffers.
    """
    trace, loss, d = _output_delta(model, batch, labels, task, ws)
    d /= d.shape[-2]
    dzs = _layer_deltas(model, trace, d, task, ws)
    return loss, trace, dzs, _t(trace.head_input) @ d


def loss_and_grad(
    model: Mlp, batch: np.ndarray, labels: np.ndarray, task: int
) -> tuple[float | np.ndarray, list[np.ndarray]]:
    """Mean cross-entropy over the batch and its exact gradients, one per
    array of ``task_params(model, task)`` and in that order.

    For a stacked model the loss is an array over the leading axes.
    """
    loss, trace, dzs, head = backward(model, batch, labels, task)
    return loss, [*(_t(x) @ dz for x, dz in zip(trace.coords, dzs)), head]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each agent's arrays, with no temporary of their size."""
    n = len(a)
    return (a.reshape(n, 1, -1) @ b.reshape(n, -1, 1)).reshape(n)


def _check_descent(g: np.ndarray, gt: np.ndarray, lost: np.ndarray, layer: int) -> None:
    ip = _dots(g, gt)
    gsq, tsq = _dots(g, g), _dots(gt, gt)
    slack = 1e-8 * gsq + 1e-300
    at = f"layer {layer}: "
    require(ip >= -1e-12, at + "descent check failed: <g, g~> = {}", ip)
    identity = np.abs(ip - tsq) <= slack
    require(identity, at + "projection identity violated: {} vs {}", ip, tsq)
    split = np.abs(gsq - tsq - lost) <= slack
    require(split, at + "norm split violated: {} vs {} + {}", gsq, tsq, lost)


def _factored(c: np.ndarray, dz: np.ndarray) -> bool:
    """Whether the product ``c^T dz`` of a (batch, k) ``c`` and a (batch,
    n_out) ``dz`` per agent is larger than its two factors."""
    k, (batch, n_out) = c.shape[-1], dz.shape[-2:]
    return k * n_out > batch * (k + n_out)


def _dz_gram(dz: np.ndarray, ws: dict | None) -> np.ndarray:
    """``dz dz^T`` per agent, in the workspace's scratch buffer: it stays
    valid through the Gram norms of its layer, which take no scratch."""
    shape = (*dz.shape[:-1], dz.shape[-2])
    return np.matmul(dz, dz.swapaxes(-1, -2), out=scratch(ws, shape))


def _gram_sq(c: np.ndarray, dz_dz: np.ndarray, ws: dict | None, key) -> np.ndarray:
    """``||c^T dz||^2`` per agent from the batch-sized Grams ``<c c^T, dz
    dz^T>``, given ``dz_dz = dz dz^T``: no temporary of the product's size."""
    return _dots(_matmul(c, c.swapaxes(-1, -2), ws, key), dz_dz)


def _lost_sq(
    x: np.ndarray,
    m: np.ndarray,
    dz: np.ndarray,
    dz_dz: np.ndarray | None,
    ws: dict | None,
    l: int,
) -> np.ndarray:
    """``||(X m)^T dz||^2`` per agent, formed directly while ``(X m)^T dz``
    is no larger than its factors, else from their Grams (``_gram_sq``),
    with ``dz dz^T`` formed here unless ``dz_dz`` already holds it."""
    xm = _matmul(x, m, ws, ("xm", l))
    if _factored(xm, dz):
        if dz_dz is None:
            dz_dz = _dz_gram(dz, ws)
        return _gram_sq(xm, dz_dz, ws, ("xm_xm", l))
    xm_dz = scratch(ws, (*xm.shape[:-2], xm.shape[-1], dz.shape[-1]))
    np.matmul(xm.swapaxes(-1, -2), dz, out=xm_dz)
    return _dots(xm_dz, xm_dz)


class Outer:
    """A stack of trunk gradients ``coords^T dz`` held as their batch-sized
    factors, ``coords`` (N, batch, k) and ``dz`` (N, batch, n_out).

    ``gossip_round`` forms it a block of whole rows at a time (``form``),
    in cache; ``np.asarray`` forms it whole."""

    def __init__(self, coords: np.ndarray, dz: np.ndarray):
        self.coords, self.dz = coords, dz
        self.shape = (*dz.shape[:-2], coords.shape[-1], dz.shape[-1])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.matmul(self.coords.swapaxes(-1, -2), self.dz)

    def form(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Every agent's flat columns ``start:stop``, which span whole rows,
        written into ``out`` (N, stop - start) and returned."""
        n_out = self.shape[-1]
        rows = self.coords[..., start // n_out : stop // n_out].swapaxes(-1, -2)
        np.matmul(rows, self.dz, out=out.reshape(rows.shape[:-1] + (n_out,)))
        return out


def local_step(
    model: Mlp,
    gpm: GpmState,
    bx: np.ndarray,
    by: np.ndarray,
    task: int,
    *,
    projection: bool,
    debug: bool = False,
    ws: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, list]:
    """One batched forward/backward pass at every agent of a stacked model.

    Returns loss, mu and the (projected) gradients ``g~`` lined up with
    ``task_params(model, task)``, unscaled; the model is not changed, and
    ``gossip_round`` forms the steps from the gradients and consumes them.
    A trunk array's gradient is ``coords^T dz`` (``backward``).  Where that
    product is larger than its factors, ``k n_out > batch (k + n_out)`` for
    ``k`` coordinates, the array's entry is the factor pair (``Outer``),
    which the round forms a block of rows at a time; other trunk arrays and
    the head get their gradients whole.  So a task holds two
    model-sized stacks, the parameters and the aggregates, and at the
    benchmark's batches of 16 the 16-32-16 layers are held whole and the
    64-256-128 ones as pairs.  With a workspace ``ws``, a dict kept for one
    task (whose shapes do not change), the pass's layer-sized products, the
    factors and the whole trunk gradients live in its buffers, which the
    next call overwrites; without one they are fresh arrays.

    A trunk layer that the model holds factored over its memory's
    complement, ``x0 + o c``, has the coefficient gradient ``(X o)^T dz``:
    the projected gradient ``project(X^T dz, m)`` in ``o`` coordinates, of
    width 0 for a saturated memory.  The raw ``g = X^T dz`` is formed only
    by the ``debug`` checks, which form every gradient they check whole.
    With projection on, ``mu`` is the projected-to-raw trunk gradient norm
    ratio per agent, with ``||g||^2 = ||g~||^2 + ||(X m)^T dz||^2``; a
    pair's ``||g~||^2`` comes from the batch Grams ``<C C^T, dz dz^T>``, as
    the lost norm does past the same size rule, both from one ``dz dz^T``
    per layer (``_dz_gram``): against the whole gradient's norm that moves
    mu by at most 4.4e-16 relative in the cases measured, 4.0e-16 on the
    ``wide`` benchmark's runs.
    """
    loss, trace, deltas, head = backward(model, bx, by, task, ws)
    kept_sq = np.zeros(len(loss))  # ||g~||^2 over the trunk
    lost_sq = np.zeros(len(loss))  # ||m^T g||^2 over the trunk
    grads: list = []
    for l, (x, c, dz) in enumerate(zip(trace.inputs, trace.coords, deltas)):
        dz_dz = None  # dz dz^T, formed once for both norms where both take Grams
        if _factored(c, dz):
            g = Outer(c, dz)
            if projection:
                dz_dz = _dz_gram(dz, ws)
                kept_sq += _gram_sq(c, dz_dz, ws, ("cc", l))
        else:
            g = _matmul(c.swapaxes(-1, -2), dz, ws, ("g", l))
            if projection:
                kept_sq += _dots(g, g)
        if model.bases[l] is not None:
            lost = _lost_sq(x, gpm.layers[l].m, dz, dz_dz, ws, l)
            if debug:
                gt = gpm.layers[l].o @ np.asarray(g)
                _check_descent(x.swapaxes(-1, -2) @ dz, gt, lost, l)
            lost_sq += lost
        grads.append(g)
    mu = np.ones(len(loss))
    if projection:
        raw_sq = kept_sq + lost_sq
        nonzero = raw_sq != 0.0
        mu[nonzero] = np.sqrt(kept_sq[nonzero]) / np.sqrt(raw_sq[nonzero])
        if debug:
            require(mu <= 1.0 + 1e-10, "has mu = {} above 1", mu)
    grads.append(head)
    return loss, mu, grads


def sample_deltas(
    model: Mlp, batch: np.ndarray, labels: np.ndarray, task: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-sample layer inputs and pre-activation deltas, one row per sample.

    The loss gradient of sample i alone is ``outer(inputs[l][i], deltas[l][i])``
    for trunk layer l.
    """
    trace, _, d = _output_delta(model, batch, labels, task, None)
    return trace.inputs, _layer_deltas(model, trace, d, task, None)


def capture_representation(
    model: Mlp, samples: np.ndarray, task: int
) -> list[np.ndarray]:
    """Layer-input matrices, one (n_l, n_samples) array per trunk layer.

    Columns are samples; the first entry is just the sample batch transposed.
    """
    trace = forward(model, samples, task)
    return [a.T.copy() for a in trace.inputs]


def task_params(model: Mlp, task: int) -> list[np.ndarray]:
    """What training on a task changes: every trunk layer, then its head."""
    return [*model.layers, model.heads[task]]


def param_arrays(model: Mlp) -> list[np.ndarray]:
    """Every parameter array: every trunk layer, then each head by task id."""
    return [*model.layers, *(model.heads[t] for t in sorted(model.heads))]


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
