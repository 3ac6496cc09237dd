"""Dense float tensors with reverse-mode automatic differentiation.

Everything runs on numpy arrays. Every op is a module function (`add`,
`matmul`, `sum_`, ...); only indexing has operator syntax (`t[key]` is
`slice_`), and it is the one gather: it takes any numpy key, and the
gradient of a repeated advanced index accumulates. Ops record onto an
explicit tape (a context manager); nothing is recorded unless a tape is
active and at least one input requires grad, so inference is plain numpy
with zero autodiff overhead.

Shape rules are deliberately narrow: elementwise ops accept equal shapes,
0-d scalars, or a right-aligned suffix operand (bias style, broadcast over
leading batch dims). Anything else raises ShapeMismatch naming the op.

A tape owns its graph: `backward` runs once, adds gradients to leaf tensors
only (so they accumulate across tapes) and frees each node once the reverse
sweep has passed it; leaving the `with` block, also by an exception, frees
the rest. A non-finite gradient raises GradientNaN naming the op that
produced it; multi-head attention is one op (`attention`), so a non-finite
gradient inside the block is named `attention`.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)


class _DefaultDtype(threading.local):
    # a thread that never entered a scope reads this class attribute, which
    # is faster than a miss on a plain threading.local
    value = np.float64


_DEFAULT = _DefaultDtype()


def default_dtype():
    return _DEFAULT.value


@contextlib.contextmanager
def dtype_scope(dtype):
    """Make dtype (float32 or float64) the default new tensors are created
    with for the body; the previous default is restored on exit, also when
    the body raises. The scope is per thread: it sets the calling thread's
    default only, and a new thread starts at float64."""
    dtype = np.dtype(dtype).type
    if dtype not in _FLOAT_DTYPES:
        raise ValueError(f"unsupported default dtype {dtype}")
    prev, _DEFAULT.value = _DEFAULT.value, dtype
    try:
        yield
    finally:
        _DEFAULT.value = prev


class TensorError(Exception):
    """Base class for tensor engine errors."""


class ShapeMismatch(TensorError):
    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = shapes
        pretty = " vs ".join(str(tuple(s)) for s in shapes)
        super().__init__(f"{op}: incompatible shapes {pretty}")


class GradientNaN(TensorError):
    """A backward closure produced a non-finite gradient."""

    def __init__(self, op: str):
        self.op = op
        super().__init__(f"non-finite gradient produced by '{op}'")


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_producer")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _DEFAULT.value)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._producer: Optional["Tape"] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __getitem__(self, key):
        return slice_(self, key)


_ACTIVE_TAPE: Optional["Tape"] = None


class Tape:
    """Ordered record of primitive ops, each a node (name, output, parents,
    backward closure); replayed in reverse for backward.

    Execution order is a topological order by construction, so the reverse
    sweep visits every node after all of its consumers. The tape owns its
    graph: backward runs once and frees each node as the sweep passes it, and
    leaving the `with` block frees the nodes still held. One tape per worker;
    a live tape must not be shared across workers.
    """

    def __init__(self):
        self._nodes: list[tuple] = []
        self._open = True  # until backward starts or the block is left

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise TensorError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        self._open = False
        self._nodes.clear()

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, root: Tensor) -> None:
        """Accumulate d(root)/d(leaf) into every reachable leaf's .grad; no
        other tensor gets a gradient.

        The root must be a scalar recorded on this tape, and backward runs
        once per tape, inside its `with` block. Non-finite values in any
        produced gradient raise GradientNaN naming the primitive.
        """
        if not self._open:
            raise TensorError("backward runs once per tape, inside its with block")
        if root.data.size != 1:
            raise ShapeMismatch("backward(root must be scalar)", root.shape)
        if root._producer is not self:
            raise TensorError("backward root is not recorded on this tape")
        self._open = False
        upstream: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
        while self._nodes:
            name, out, parents, backward = self._nodes.pop()
            g = upstream.pop(id(out), None)
            if g is None:
                continue
            for parent, pg in zip(parents, backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if not np.isfinite(pg).all():
                    raise GradientNaN(name)
                if parent._producer is self:
                    acc = upstream.get(id(parent))
                    upstream[id(parent)] = pg if acc is None else acc + pg
                else:
                    # leaf: accumulate across tapes
                    parent.grad = pg.copy() if parent.grad is None else parent.grad + pg


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=_DEFAULT.value))


def _record(name: str, out_arr: np.ndarray, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(out_arr, dtype=out_arr.dtype)
    tape = _ACTIVE_TAPE
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._producer = tape
        tape._nodes.append((name, out, tuple(parents), backward))
    return out


# ---------------------------------------------------------------------------
# shape checking for elementwise binaries


def _is_suffix(small: tuple, big: tuple) -> bool:
    k = len(big) - len(small)
    return k >= 0 and small == big[k:]


def _check_elementwise(name: str, sa: tuple, sb: tuple) -> None:
    if sa == sb:
        return
    if _is_suffix(sa, sb) or _is_suffix(sb, sa):
        return
    raise ShapeMismatch(name, sa, sb)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to a suffix operand's shape (sum leading dims)."""
    if g.shape == shape:
        return g
    k = g.ndim - len(shape)
    return g.sum(axis=tuple(range(k)))


def _binary(name, a, b, fwd, da, db) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise(name, a.shape, b.shape)
    out = fwd(a.data, b.data)

    def backward(g):
        ga = _unbroadcast(da(g, a.data, b.data), a.shape) if a.requires_grad else None
        gb = _unbroadcast(db(g, a.data, b.data), b.shape) if b.requires_grad else None
        return ga, gb

    return _record(name, out, (a, b), backward)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary("div", a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _record("neg", -a.data, (a,), lambda g: (-g,))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)
    return _record("sqrt", out, (a,), lambda g: (g / (2.0 * out),))


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    if a.ndim < 2 or b.ndim < 2 or sa[-1] != sb[-2]:
        raise ShapeMismatch("matmul", sa, sb)
    if not (_is_suffix(sa[:-2], sb[:-2]) or _is_suffix(sb[:-2], sa[:-2])):
        raise ShapeMismatch("matmul", sa, sb)
    out = a.data @ b.data

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), sa)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, sb)
        return ga, gb

    return _record("matmul", out, (a, b), backward)


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def log(a) -> Tensor:
    a = _as_tensor(a)
    return _record("log", np.log(a.data), (a,), lambda g: (g / a.data,))


def log1p(a) -> Tensor:
    a = _as_tensor(a)
    return _record("log1p", np.log1p(a.data), (a,), lambda g: (g / (1.0 + a.data),))


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)
    return _record("tanh", out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out = _sigmoid_arr(a.data)
    return _record("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def _sigmoid_arr(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e)
    # below and for NaN; np.minimum returns x itself for a NaN, keeping its sign
    ex = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0, ex)
    out /= 1.0 + ex
    return out


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    return _record("relu", np.where(mask, a.data, 0.0), (a,),
                   lambda g: (g * mask,))


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_CK = 0.044715 * _GELU_C
# |x| beyond which tanh(u) is exactly +-1 in float32 and float64 (u(10) = 43.7)
_GELU_SATURATED = 10.0


def gelu(a) -> Tensor:
    """GELU in its tanh form (Hendrycks & Gimpel, 2016),
    0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))), which differs from the
    exact x Phi(x) by at most 4.73e-4 (at |x| = 2.70). The output keeps the
    input's dtype, and the backward reuses the forward's t = tanh(u)."""
    a = _as_tensor(a)
    x = a.data
    # u = sqrt(2/pi) (x + 0.044715 x^3), in one buffer (an array even for 0-d
    # x); the cube overflows to +-inf only where tanh is +-1 anyway
    with np.errstate(over="ignore"):
        u = np.multiply(x, x, out=np.empty_like(x))
        u *= _GELU_CK
        u += _GELU_C
        u *= x
    t = np.tanh(u, out=u)
    out = t + 1.0
    out *= 0.5
    out *= x

    def backward(g):
        # d/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) du/dx, built negated in place as
        # -0.5 (x du/dx (t^2 - 1) - t - 1). Past the clip t^2 - 1 is exactly 0,
        # so the clip keeps x du/dx finite without moving a bit
        xc = np.clip(x, -_GELU_SATURATED, _GELU_SATURATED)
        d = xc * xc
        d *= 3.0 * _GELU_CK
        d += _GELU_C
        d *= xc
        t2m1 = t * t
        t2m1 -= 1.0
        d *= t2m1
        d -= t
        d -= 1.0
        d *= -0.5
        d *= g
        return (d,)

    return _record("gelu", out, (a,), backward)


def softplus(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    out = np.maximum(ad, 0.0) + np.log1p(np.exp(-np.abs(ad)))
    return _record("softplus", out, (a,), lambda g: (g * _sigmoid_arr(ad),))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient is identity inside the range, zero outside."""
    a = _as_tensor(a)
    mask = (a.data >= lo) & (a.data <= hi)
    return _record("clip", np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# reductions: over all elements (axis None) or over one integer axis


def _expand_reduced(g: np.ndarray, shape: tuple, axis) -> np.ndarray:
    return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape)


def sum_(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis)
    return _record("sum", np.asarray(out), (a,),
                   lambda g: (_expand_reduced(g, a.shape, axis),))


def mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size if axis is None else a.shape[axis]
    out = a.data.mean(axis=axis)
    return _record("mean", np.asarray(out), (a,),
                   lambda g: (_expand_reduced(g, a.shape, axis) / n,))


def variance(a, axis=None) -> Tensor:
    """Population variance (1/n normalization)."""
    a = _as_tensor(a)
    n = a.data.size if axis is None else a.shape[axis]
    mu = a.data.mean(axis=axis, keepdims=True)
    out = a.data.var(axis=axis)

    def backward(g):
        gg = _expand_reduced(g, a.shape, axis)
        return (gg * 2.0 * (a.data - mu) / n,)

    return _record("variance", np.asarray(out), (a,), backward)


# ---------------------------------------------------------------------------
# normalizing ops


def _inplace(ufunc, a: np.ndarray, b) -> np.ndarray:
    """ufunc(a, b), written into a's buffer when that keeps the result dtype."""
    return ufunc(a, b, out=a if np.result_type(a, b) == a.dtype else None)


def _softmax_grad(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """Backward of softmax output out: (g - sum(g * out)) * out, the product
    written into the difference's fresh buffer."""
    grad = g - (g * out).sum(axis=axis, keepdims=True)
    grad *= out
    return grad


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax along axis in one fresh buffer, which the max-shift, exp and
    normalization all reuse."""
    a = _as_tensor(a)
    out = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return _record("softmax", out, (a,), lambda g: (_softmax_grad(g, out, axis),))


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch("layer_norm", x.shape, gain.shape, bias.shape)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = gain.data * xhat + bias.data

    def backward(g):
        gx = ggain = gbias = None
        if gain.requires_grad:
            ggain = (g * xhat).reshape(-1, d).sum(axis=0)
        if bias.requires_grad:
            gbias = g.reshape(-1, d).sum(axis=0)
        if x.requires_grad:
            gh = g * gain.data
            gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                        - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        return gx, ggain, gbias

    return _record("layer_norm", out, (x, gain, bias), backward)


# scores at most this in magnitude need no max-shift before exp: in float32
# a row sum of e^30 = 1.1e13 terms overflows only past 3e25 keys, and each
# row's largest entry is at least e^-30, a normal number
_EXP_BOUND = 30.0


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(B, m, d) -> (B, heads, m, d / heads) view."""
    B, m, d = a.shape
    return a.reshape(B, m, heads, d // heads).transpose(0, 2, 1, 3)


def attention_kv(keys: np.ndarray, wk: np.ndarray, wv: np.ndarray,
                 heads: int) -> tuple[np.ndarray, np.ndarray]:
    """The head-split keys and values (B, heads, m, d / heads) of the key
    rows (B, m, d), as attention computes and returns them."""
    return _split_heads(keys @ wk, heads), _split_heads(keys @ wv, heads)


def _max_norm(a: np.ndarray) -> np.ndarray:
    """The largest row norm of (B, heads, m, dh) per (B, heads); 0 for no rows."""
    return np.sqrt(np.einsum("bhmd,bhmd->bhm", a, a).max(axis=-1, initial=0.0))


def attention(h, wq, wk, wv, wo, heads: int, key_count: int,
              kv: Optional[tuple] = None) -> tuple[Tensor, tuple]:
    """Multi-head attention of every row of h (B, n, d) over its first
    key_count rows, or over cached head-split keys and values kv, projected
    out by wo. Returns the output and the (k, v) arrays, each (B, heads,
    keys, d / heads), as attention_kv computes them.

    One op per call, equal within rounding to the composition matmul /
    reshape / permute / mul / softmax, with the work on the scores buffer
    cut to exp and a row sum. The 1/sqrt(d / heads) scale is folded into the
    queries before the score GEMM, and the output rows are divided by the
    exp rows' sums after the value GEMM, as FlashAttention (Dao et al.,
    2022) normalizes output rows rather than the probability matrix:
    ctx = (e v) / sum(e) with e = exp(q k^T). The max-shift that guards exp
    against overflow (e = exp(q k^T - rowmax)) runs only when the
    Cauchy-Schwarz bound |q_i . k_j| <= max |q| max |k| exceeds _EXP_BOUND
    for some (batch, head) pair. The backward forms the probabilities once,
    in place in e. Cached keys and values have no gradient path to wk and
    wv, so kv under a recording tape is refused.
    """
    h, wq, wk, wv, wo = parents = tuple(_as_tensor(t) for t in (h, wq, wk, wv, wo))
    d = h.shape[-1]
    if h.ndim != 3 or any(w.shape != (d, d) for w in parents[1:]):
        raise ShapeMismatch("attention", *(t.shape for t in parents))
    if heads < 1 or d % heads:
        raise ShapeMismatch(f"attention({heads} heads)", h.shape)
    if kv is not None and _ACTIVE_TAPE is not None \
            and any(t.requires_grad for t in parents):
        raise TensorError("attention: cached keys and values have no gradient "
                          "path to wk and wv; refused under a recording tape")
    B, n, dh = h.shape[0], h.shape[1], d // heads

    def merge(a):  # (B, heads, m, dh) -> (B, m, d) copy
        return a.transpose(0, 2, 1, 3).reshape(B, a.shape[2], d)

    keys = h.data[:, :key_count]
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=_DEFAULT.value)
    q = _split_heads(_inplace(np.multiply, h.data @ wq.data, scale), heads)
    if kv is None:
        k, v = attention_kv(keys, wk.data, wv.data, heads)
    else:
        k, v = kv
        if k.shape != v.shape or k.shape[:2] + k.shape[3:] != (B, heads, dh):
            raise ShapeMismatch("attention(kv)", h.shape, k.shape, v.shape)
    e = q @ np.swapaxes(k, -1, -2)
    if not (_max_norm(q) * _max_norm(k) <= _EXP_BOUND).all():
        e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    rowsum = e.sum(axis=-1, keepdims=True)
    ctx = e @ v
    ctx /= rowsum
    ctx = merge(ctx)
    out = ctx @ wo.data

    def backward(g):
        probs = np.divide(e, rowsum, out=e)
        gwo = (np.swapaxes(ctx, -1, -2) @ g).sum(axis=0) if wo.requires_grad else None
        gctx = _split_heads(g @ np.swapaxes(wo.data, -1, -2), heads)
        gs = _softmax_grad(gctx @ np.swapaxes(v, -1, -2), probs, -1)

        def project(x, w, gy):  # input and weight gradients of x @ w, split as gy
            gy = merge(gy)
            gx = gy @ np.swapaxes(w.data, -1, -2) if h.requires_grad else None
            gw = (np.swapaxes(x, -1, -2) @ gy).sum(axis=0) if w.requires_grad else None
            return gx, gw

        gkeys_v, gwv = project(keys, wv, np.swapaxes(probs, -1, -2) @ gctx)
        gkeys_k, gwk = project(keys, wk, np.swapaxes(np.swapaxes(q, -1, -2) @ gs, -1, -2))
        gh_q, gwq = project(h.data, wq, _inplace(np.multiply, gs @ k, scale))
        gh = None
        if h.requires_grad:
            gkeys = gkeys_v + gkeys_k
            if key_count < n:  # rows past the keys get no key gradient
                padded = np.zeros_like(h.data)
                padded[:, :key_count] = gkeys
                gkeys = padded
            gh = gh_q + gkeys
        return gh, gwq, gwk, gwv, gwo

    return _record("attention", out, parents, backward), (k, v)


# ---------------------------------------------------------------------------
# structural ops


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)
    return _record("reshape", out, (a,), lambda g: (g.reshape(a.shape),))


def permute(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _record("permute", a.data.transpose(axes), (a,),
                   lambda g: (g.transpose(inv),))


def slice_(a, key) -> Tensor:
    """a[key] for any numpy key; the engine's one gather. A basic key (ints,
    slices, Ellipsis, None) gives a view. A key with an array or list part is
    advanced: it gives a C-ordered copy, and repeated indices accumulate in
    the backward."""
    a = _as_tensor(a)
    advanced = any(isinstance(k, (list, np.ndarray))
                   for k in (key if isinstance(key, tuple) else (key,)))
    out = np.asarray(a.data[key], order="C" if advanced else "K")

    def backward(g):
        z = np.zeros_like(a.data)
        if advanced:
            np.add.at(z, key, g)
        else:
            z[key] = g
        return (z,)

    return _record("slice", out, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, offsets, axis=axis)
        return tuple(p if t.requires_grad else None for p, t in zip(pieces, ts))

    return _record("concat", out, ts, backward)


def stack(tensors, axis: int = 0) -> Tensor:
    expanded = [reshape(t, t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors]
    return concat(expanded, axis=axis)


# ---------------------------------------------------------------------------
# scatter


def scatter_add(values, indices, num_segments: int) -> Tensor:
    """Batched segment-sum over the last axis: values (B, ..., k) and index
    (B, k) give out[b, ..., c] = sum of values[b, ..., j] where
    index[b, j] == c, computed as one batched GEMM against the (B, k, C)
    one-hot of index. Backward gathers the upstream gradient back to each
    source position exactly.
    """
    v = _as_tensor(values)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 2 or v.ndim < 2 or v.shape[0] != idx.shape[0] \
            or v.shape[-1] != idx.shape[1]:
        raise ShapeMismatch("scatter_add", v.shape, idx.shape)
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= num_segments):
        raise ShapeMismatch("scatter_add(index out of range)", idx.shape, (num_segments,))
    B, k = idx.shape
    onehot = np.eye(num_segments, dtype=v.data.dtype)[idx]  # (B, k, C)
    rows = v.data.reshape(B, math.prod(v.shape[1:-1]), k)
    out = (rows @ onehot).reshape(v.shape[:-1] + (num_segments,))

    def backward(g):
        gather = np.expand_dims(idx, tuple(range(1, g.ndim - 1)))  # (B, 1.., k)
        return (np.take_along_axis(g, gather, axis=-1),)

    return _record("scatter_add", out, (v,), backward)


# ---------------------------------------------------------------------------
# gradients


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
