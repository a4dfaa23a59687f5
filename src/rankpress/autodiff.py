"""Minimal reverse-mode automatic differentiation on numpy arrays.

Define-by-run: every operation builds its output through ``_node``, which
records the inputs and one gradient rule (vjp) per input. Calling
:func:`backward` on a scalar output replays the recorded tape in reverse
topological order and accumulates gradients into every tensor created with
``requires_grad=True``. Inside :func:`no_grad` no tape is recorded, in the
thread that entered it.

The image layers (``conv2d``, ``avg_pool2``, ``global_avg_pool``) take
height-major (H, C, W, N) activations, batch innermost, so that their copies
move long contiguous runs; ``conv2d`` says why.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "backward",
    "no_grad",
    "add",
    "sub",
    "half_difference",
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

# the im2col columns a forward-only ``conv2d`` gathers and multiplies at a time
_BLOCK_BYTES = 1 << 20


class _Mode(threading.local):
    recording = True  # False inside ``no_grad``, in the thread that entered it


_mode = _Mode()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """An n-dimensional array with an optional gradient slot.

    Non-leaf tensors remember their parents and the backward rule of the
    operation that produced them; leaves (parameters, inputs) have none.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

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
        self.requires_grad = requires_grad
        self._parents = tuple(_parents)
        self._backward = _backward

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
    """Add ``g`` into ``t.grad``. A first gradient that owns its memory, in ``t``'s dtype,
    becomes ``t.grad`` as it is. A view, which ``_unbroadcast`` (``add``, ``sub``, ``mul``),
    ``reshape`` and the broadcasts of ``tsum``, ``tmean`` and ``global_avg_pool`` hand on, is
    copied: a later ``+=`` would write through it into another tensor's gradient."""
    if t.grad is not None:
        t.grad += g
    elif g.base is None and g.dtype == t.data.dtype:
        t.grad = g
    else:
        t.grad = g.astype(t.data.dtype, copy=True)


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
    seen: set[int] = set()  # id()s: ``out`` keeps every node below it alive, so none is reused
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
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


@contextlib.contextmanager
def no_grad():
    """Run a forward-only pass: every op output inside is a leaf without a backward rule.

    No gradient flows from such an output back to its inputs, and no op keeps
    its inputs alive for a backward pass. The mode is the calling thread's own:
    other threads keep recording. Leaving restores the previous mode.
    """
    previous, _mode.recording = _mode.recording, False
    try:
        yield
    finally:
        _mode.recording = previous


def _node(data, parents: tuple[Tensor, ...], vjps: tuple[Callable, ...]) -> Tensor:
    """The output of an op: ``vjps[i](g)`` is the gradient that reaches ``parents[i]``.

    The output requires a gradient when a parent does, and backward runs a vjp
    only for a parent that requires one. Without such a parent, or inside
    :func:`no_grad`, the output is a leaf that keeps neither.
    """
    if _mode.recording:
        for parent in parents:
            if parent.requires_grad:
                break
        else:
            return Tensor(data)

        def bw(g):
            for parent, vjp in zip(parents, vjps):
                if parent.requires_grad:
                    _accumulate(parent, vjp(g))

        return Tensor(data, True, parents, bw)
    return Tensor(data)


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


def half_difference(a: Tensor) -> Tensor:
    """``a[:n] - a[n:]`` for a 1-d ``a`` of 2n values: each of the first n minus its
    partner in the second half."""
    a = _as_tensor(a)
    if a.data.ndim != 1 or a.data.shape[0] % 2:
        raise ShapeError(f"half_difference needs a 1-d tensor of even length, got {a.data.shape}")
    n = a.data.shape[0] // 2
    return _node(a.data[:n] - a.data[n:], (a,), (lambda g: np.concatenate((g, -g)),))


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


def leaky_relu(a: Tensor) -> Tensor:
    """max(x, 0.01 * x): the same bits as where(x > 0, x, 0.01 * x), since 0 < 0.01 < 1.

    The gradient is g times the multiplier fmax(sign(x), 0.01), built in g's
    dtype: sign gives 1 where x > 0 and -1, ±0 or NaN elsewhere, and fmax
    takes 0.01 over each of those. That is [0.01, 1][x > 0], so the bits are
    those of where(x > 0, g, 0.01 * g), with no branch and no gather.
    """
    a = _as_tensor(a)
    out = np.asarray(a.data * 0.01)  # a 0-d input multiplies to a scalar
    np.maximum(a.data, out, out=out)

    def grad_a(g):
        m = np.sign(a.data, out=np.empty(a.data.shape, g.dtype))
        np.fmax(m, 0.01, out=m)
        m *= g
        return m

    return _node(out, (a,), (grad_a,))


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
    """2-d cross-correlation over (H, C, W, N) input with an OIHW kernel.

    Activations are height-major: rows, channels, columns, batch. With the
    batch innermost, the im2col gather, and each scatter-add of the input
    gradient, moves contiguous runs of W*N values rather than one image row.
    The columns of an output row are (kh*kw*C, W_out*N): row ``t*C + c``
    holds channel c as kernel tap t sees it, taps in row-major order. They
    are copied from one strided window view of the padded input, a block of
    output rows at a time, and the kernel, laid out as (O, kh*kw*C) in the
    same order, multiplies each row's columns in one GEMM into its rows of
    the (H_out, O, W_out, N) output. A recorded forward gathers every row in
    one block and keeps it for the kernel gradient; a forward-only pass
    gathers as many rows as fit ``_BLOCK_BYTES``, so that a block stays in
    cache for its GEMM. Each row's product is the same call either way, so
    the two passes give the same bytes. With the taps outermost, rather than
    the channels, each input gradient element is summed over the taps in the
    order of a per-tap loop.
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("conv2d expects 4-d input and kernel")
    h, c_in, w, n = x.data.shape
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

    if padding:
        xp = np.zeros((h + 2 * padding, c_in, w + 2 * padding, n), dtype=x.data.dtype)
        xp[padding : padding + h, :, padding : padding + w] = x.data
    else:
        xp = np.ascontiguousarray(x.data)
    # windows[y, i, j, c, z, m] = xp[stride*y + i, c, stride*z + j, m]: an ndarray over
    # xp's buffer costs a fraction of what ``as_strided`` does
    sh, sc, sw, sn = xp.strides
    windows = np.ndarray((h_out, kh, kw, c_in, w_out, n), xp.dtype, xp,
                         strides=(stride * sh, sh, sw, sc, stride * sw, sn))
    k_len, m = kh * kw * c_in, w_out * n
    kmat = kernel.data.transpose(0, 2, 3, 1).reshape(c_out, k_len)
    row_bytes = max(1, k_len * m * xp.itemsize)
    block = h_out if _mode.recording else max(1, min(h_out, _BLOCK_BYTES // row_bytes))
    cols = np.empty((block, kh, kw, c_in, w_out, n), dtype=xp.dtype)
    out_data = np.empty((h_out, c_out, m), dtype=np.result_type(kmat, xp))
    for y in range(0, h_out, block):
        rows = min(block, h_out - y)
        np.copyto(cols[:rows], windows[y : y + rows])
        np.matmul(kmat, cols[:rows].reshape(rows, k_len, m), out=out_data[y : y + rows])
    cols = cols.reshape(block, k_len, m)
    out_data += bias.data[:, None]
    out_data = out_data.reshape(h_out, c_out, w_out, n)

    def grad_x(g):
        g_cols = (kmat.T @ g.reshape(h_out, c_out, w_out * n)).reshape(
            h_out, kh * kw, c_in, w_out, n)
        # each tap adds only the output positions whose window element lies in the
        # unpadded input: every element gets the same adds, in the same tap order, as
        # a scatter into a zeroed padded array would give it
        row_spans = [_unpadded(i, h, h_out, stride, padding) for i in range(kh)]
        column_spans = [_unpadded(j, w, w_out, stride, padding) for j in range(kw)]
        gx = np.zeros((h, c_in, w, n), dtype=g_cols.dtype)
        for tap, (i, j) in enumerate(itertools.product(range(kh), range(kw))):
            if row_spans[i] and column_spans[j]:
                (ys, rows), (zs, columns) = row_spans[i], column_spans[j]
                gx[rows, :, columns] += g_cols[ys, tap, :, zs]
        return gx

    def grad_kernel(g):
        # a transposed view: a transposed copy of ``cols`` costs more than the GEMM saves
        gk = (g.reshape(h_out, c_out, w_out * n) @ cols.transpose(0, 2, 1)).sum(axis=0)
        return np.ascontiguousarray(gk.reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2))

    return _node(out_data, (x, kernel, bias),
                 (grad_x, grad_kernel, lambda g: g.sum(axis=(0, 2, 3))))


def _unpadded(offset: int, extent: int, n_out: int, stride: int, padding: int):
    """For a tap at ``offset`` along one axis of a convolution's padded input: the
    output positions whose window element lies in the unpadded extent, and the
    input positions they land on, as two slices; None when no output does."""
    first = max(0, -((offset - padding) // stride))  # ceil((padding - offset) / stride)
    stop = min(n_out, (padding + extent - 1 - offset) // stride + 1)
    if first >= stop:
        return None
    start = offset + stride * first - padding
    return np.s_[first:stop], np.s_[start : start + stride * (stop - first - 1) + 1 : stride]


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2 over (H, C, W, N) maps (trailing odd row/column dropped).

    Each output is the sum of its window's four inputs, in row-major order,
    times 0.25.
    """
    x = _as_tensor(x)
    h2, w2 = x.data.shape[0] // 2, x.data.shape[2] // 2
    corners = [np.s_[i : 2 * h2 : 2, :, j : 2 * w2 : 2] for i in (0, 1) for j in (0, 1)]
    a = x.data
    out = a[corners[0]] + a[corners[1]]
    out += a[corners[2]]
    out += a[corners[3]]
    out *= 0.25

    def grad_x(g):
        # the corners cover every element but a trailing odd row and column, which get 0
        gx = np.empty_like(a)
        if a.shape[0] % 2:
            gx[-1] = 0
        if a.shape[2] % 2:
            gx[:, :, -1] = 0
        quarter = g * 0.25
        for corner in corners:
            gx[corner] = quarter
        return gx

    return _node(out, (x,), (grad_x,))


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes: (H, C, W, N) -> a contiguous (N, C)."""
    x = _as_tensor(x)
    h, c, w, n = x.data.shape
    # rows, then columns: two reductions over contiguous planes take about half the time
    # of one mean over axes (0, 2)
    pooled = np.ascontiguousarray(x.data.sum(axis=0).sum(axis=1).T) / (h * w)
    return _node(pooled, (x,),
                 (lambda g: np.broadcast_to(g.T[None, :, None, :] / (h * w), x.data.shape),))


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
