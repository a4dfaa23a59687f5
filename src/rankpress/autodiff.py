"""Minimal reverse-mode automatic differentiation on numpy arrays.

Define-by-run: every operation builds its output through ``_node``, which
records the inputs and one gradient rule (vjp) per input. Calling
:func:`backward` on a scalar output replays the recorded tape in reverse
topological order and accumulates gradients into every tensor created with
``requires_grad=True``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "backward",
    "add",
    "sub",
    "mul",
    "conv2d",
    "dense",
    "leaky_relu",
    "sigmoid",
    "log",
    "clip",
    "avg_pool2",
    "global_avg_pool",
    "reshape",
    "tsum",
    "tmean",
    "gradient_check",
]

_counter = itertools.count()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """An n-dimensional array with an optional gradient slot.

    Non-leaf tensors remember their parents and the backward rule of the
    operation that produced them; leaves (parameters, inputs) have none.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_id")

    # make ndarray <op> Tensor dispatch to our reflected operators
    __array_ufunc__ = None

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ):
        self.data = np.asarray(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = tuple(_parents)
        self._backward = _backward
        self._id = next(_counter)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


def _as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype)
    return Tensor(arr)


def _accumulate(t: Tensor, g: np.ndarray):
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape the operand had before broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _topological_order(out: Tensor) -> list[Tensor]:
    """The tensors below ``out``, each once, every parent before its children."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node._id in seen:
            continue
        seen.add(node._id)
        stack.append((node, True))
        for p in node._parents:
            if p._id not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Populate ``grad`` on every requires-grad tensor reachable from a scalar loss."""
    if loss.data.ndim != 0:
        raise ShapeError(f"backward requires a scalar, got shape {loss.data.shape}")
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(_topological_order(loss)):
        if node._backward is not None and node.grad is not None and node.requires_grad:
            node._backward(node.grad)


def _node(data, parents: tuple[Tensor, ...], vjps: tuple[Callable, ...]) -> Tensor:
    """The output of an op: ``vjps[i](g)`` is the gradient that reaches ``parents[i]``.

    Backward runs a vjp only for a parent that requires a gradient.
    """

    def bw(g):
        for parent, vjp in zip(parents, vjps):
            if parent.requires_grad:
                _accumulate(parent, vjp(g))

    return Tensor(data, _parents=parents, _backward=bw)


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    return _node(a.data + b.data, (a, b), (lambda g: _unbroadcast(g, a.data.shape),
                                           lambda g: _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    return _node(a.data - b.data, (a, b), (lambda g: _unbroadcast(g, a.data.shape),
                                           lambda g: _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    return _node(a.data * b.data, (a, b), (lambda g: _unbroadcast(g * b.data, a.data.shape),
                                           lambda g: _unbroadcast(g * a.data, b.data.shape)))


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _node(np.log(a.data), (a,), (lambda g: g / a.data,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient is zero where the clamp is active."""
    a = _as_tensor(a)
    mask = (a.data > lo) & (a.data < hi)
    return _node(np.clip(a.data, lo, hi), (a,), (lambda g: g * mask,))


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    a = _as_tensor(a)
    return _node(np.where(a.data > 0, a.data, slope * a.data), (a,),
                 (lambda g: g * np.where(a.data > 0, 1.0, slope).astype(a.data.dtype),))


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)
    return _node(out_data, (a,), (lambda g: g * out_data * (1.0 - out_data),))


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    return _node(a.data.reshape(shape), (a,), (lambda g: g.reshape(a.data.shape),))


def tsum(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _node(a.data.sum(), (a,), (lambda g: np.broadcast_to(g, a.data.shape),))


def tmean(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    return _node(a.data.mean(), (a,), (lambda g: np.broadcast_to(g / n, a.data.shape),))


# ---------------------------------------------------------------------------
# network layers


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map per row: out[n] = weight @ x[n] + bias."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError("dense expects 2-d input and weight")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(
            f"dense dimension mismatch: input features {x.data.shape[1]} "
            f"vs weight fan-in {weight.data.shape[1]}"
        )
    if bias.data.shape != (weight.data.shape[0],):
        raise ShapeError(f"dense bias shape {bias.data.shape} != ({weight.data.shape[0]},)")
    return _node(x.data @ weight.data.T + bias.data, (x, weight, bias),
                 (lambda g: g @ weight.data, lambda g: g.T @ x.data, lambda g: g.sum(axis=0)))


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross-correlation over NCHW input with an OIHW kernel."""
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("conv2d expects 4-d input and kernel")
    n, c_in, h, w = x.data.shape
    c_out, kc_in, kh, kw = kernel.data.shape
    if c_in != kc_in:
        raise ShapeError(f"conv2d channel mismatch: input has {c_in}, kernel expects {kc_in}")
    if bias.data.shape != (c_out,):
        raise ShapeError(f"conv2d bias shape {bias.data.shape} != ({c_out},)")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeError(
            f"conv2d kernel {kh}x{kw} exceeds padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1

    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x.data, pad) if padding else x.data
    # (i, j, the input window that tap (i, j) of the kernel sees at every output position)
    taps = [(i, j, np.s_[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride])
            for i in range(kh) for j in range(kw)]
    out_data = np.zeros((n, c_out, h_out, w_out), dtype=x.data.dtype)
    for i, j, window in taps:
        out_data += np.einsum("nchw,oc->nohw", xp[window], kernel.data[:, :, i, j])
    out_data += bias.data.reshape(1, -1, 1, 1)

    def grad_x(g):
        gxp = np.zeros_like(xp)
        for i, j, window in taps:
            gxp[window] += np.einsum("nohw,oc->nchw", g, kernel.data[:, :, i, j])
        return gxp[:, :, padding : padding + h, padding : padding + w]

    def grad_kernel(g):
        gk = np.zeros_like(kernel.data)
        for i, j, window in taps:
            gk[:, :, i, j] = np.einsum("nohw,nchw->oc", g, xp[window])
        return gk

    return _node(out_data, (x, kernel, bias),
                 (grad_x, grad_kernel, lambda g: g.sum(axis=(0, 2, 3))))


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2 (trailing odd row/column dropped)."""
    x = _as_tensor(x)
    n, c, h, w = x.data.shape
    h2, w2 = h // 2, w // 2
    cropped = x.data[:, :, : h2 * 2, : w2 * 2]

    def grad_x(g):
        gx = np.zeros_like(x.data)
        gx[:, :, : h2 * 2, : w2 * 2] = np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) / 4.0
        return gx

    return _node(cropped.reshape(n, c, h2, 2, w2, 2).mean(axis=(3, 5)), (x,), (grad_x,))


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over spatial axes: NCHW -> NC."""
    x = _as_tensor(x)
    n, c, h, w = x.data.shape
    return _node(x.data.mean(axis=(2, 3)), (x,),
                 (lambda g: np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape),))


# ---------------------------------------------------------------------------
# verification


def gradient_check(
    forward_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    n_coords: int = 20,
    step: float = 1e-5,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Compare analytic gradients with central finite differences.

    Returns the maximum relative error over ``n_coords`` sampled coordinates
    per parameter tensor. The forward function must be deterministic and the
    parameters 64-bit for the comparison to be meaningful.
    """
    rng = rng or np.random.default_rng(0)
    for p in params.values():
        p.zero_grad()
    loss = forward_fn()
    backward(loss)
    # anything below the central-difference resolution is indistinguishable
    # from an exact zero
    fd_floor = 64.0 * np.finfo(np.float64).eps * max(abs(float(loss.data)), 1.0) / (2.0 * step)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        k = min(n_coords, flat.size)
        idxs = rng.choice(flat.size, size=k, replace=False)
        for idx in idxs:
            orig = flat[idx]
            # central differences at a few step sizes; keep the best-agreeing
            # pair so an activation kink inside the largest step cannot bias
            # the estimate (still fully independent of the analytic value)
            estimates = []
            for h in (step, step / 8.0, step / 64.0):
                flat[idx] = orig + h
                up = float(forward_fn().data)
                flat[idx] = orig - h
                down = float(forward_fn().data)
                flat[idx] = orig
                estimates.append((up - down) / (2.0 * h))
            # prefer the largest step (least roundoff); drop to a smaller one
            # only when adjacent estimates disagree grossly, i.e. a kink sits
            # inside the larger step
            numeric = estimates[-1]
            for i in range(len(estimates) - 1):
                scale = max(abs(estimates[i]), abs(estimates[i + 1]), 1e-6)
                if abs(estimates[i] - estimates[i + 1]) <= 1e-3 * scale:
                    numeric = estimates[i]
                    break
            a = float(analytic[name].reshape(-1)[idx])
            if not np.isfinite(a) or not np.isfinite(numeric):
                raise FloatingPointError(
                    f"non-finite gradient at {name}[{idx}]: analytic={a}, numeric={numeric}"
                )
            if abs(numeric) <= fd_floor and abs(a) <= fd_floor:
                continue
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
