"""Finite-difference gradient oracle shared by the test modules.

The oracle is independent of the tape: it re-runs the forward function with
perturbed raw arrays and takes central differences. Non-scalar outputs are
reduced to a scalar through a fixed random projection so a single backward
checks the full Jacobian action.
"""

import numpy as np

from priorfit import tensor as T


def finite_diff(f, arrays, wrt, h=1e-5):
    """Central-difference gradient of scalar f(arrays) w.r.t. arrays[wrt]."""
    base = [np.array(a, dtype=np.float64) for a in arrays]
    g = np.zeros_like(base[wrt])
    flat = base[wrt].reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(*base)
        flat[i] = orig - h
        lo = f(*base)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return g


def rel_err(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / denom)


def check_op(op, arrays, rng, h=1e-5, rtol=1e-4, wrt=None):
    """Compare tape gradients of `op` against finite differences.

    `op` takes Tensors and returns one Tensor; the output is projected onto a
    fixed random direction to form the scalar loss. Returns the worst relative
    error across the checked inputs.
    """
    tensors = [T.Tensor(np.array(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    with T.Tape() as tape:
        out = op(*tensors)
        proj = rng.standard_normal(out.shape)
        loss = T.sum_(T.mul(out, T.Tensor(proj)))
        tape.backward(loss)

    def scalar_f(*raw):
        ts = [T.Tensor(r) for r in raw]
        return float(np.sum(op(*ts).data * proj))

    worst = 0.0
    targets = range(len(arrays)) if wrt is None else wrt
    for i in targets:
        fd = finite_diff(scalar_f, arrays, i, h=h)
        got = tensors[i].grad
        assert got is not None, f"input {i} received no gradient"
        err = rel_err(got, fd)
        assert err <= rtol, f"input {i}: rel err {err:.3e} > {rtol}"
        worst = max(worst, err)
    return worst
