"""Minimal reverse-mode autodiff over numpy float64 arrays.

Only the operations the transformer needs. The model itself runs on plain
arrays with hand-derived backward passes (``blocks``); this tape is the
gradient oracle the tests build the same transformer from. Its softmax and
layer norm compute their forward with the row reductions of ``blocks``
(``softmax_rows``, ``normalize``), so the two forwards agree bit for bit;
their backward formulas are derived here independently.
"""

from __future__ import annotations

import numpy as np

from . import blocks


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def backward(self):
        if self.data.ndim != 0:
            raise ValueError("backward() requires a scalar output")
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = g.copy()  # g may be shared with another input
        else:
            self.grad += g


def _result(data, parents, backward):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))
    return _result(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))
    return _result(a.data * b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        a._accumulate(g * s)
    return _result(a.data * s, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b``. With a 2-D ``b`` the leading axes of ``a`` are folded into
    rows, so forward and both gradients are single 2-D GEMMs."""
    if b.data.ndim == 2:
        return _matmul_flat(a, b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))
    return _result(a.data @ b.data, (a, b), backward)


def _matmul_flat(a: Tensor, b: Tensor) -> Tensor:
    rows = a.data.reshape(-1, a.shape[-1])
    out_shape = a.shape[:-1] + b.shape[-1:]

    def backward(g):
        g = g.reshape(-1, b.shape[-1])
        if a.requires_grad:
            a._accumulate((g @ b.data.T).reshape(a.shape))
        if b.requires_grad:
            b._accumulate(rows.T @ g)
    return _result((rows @ b.data).reshape(out_shape), (a, b), backward)


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)

    def backward(g):
        a._accumulate(g.transpose(inv))
    return _result(a.data.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape

    def backward(g):
        a._accumulate(g.reshape(old))
    return _result(a.data.reshape(shape), (a,), backward)


def concat(tensors, axis: int) -> Tensor:
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])
    return _result(np.concatenate([t.data for t in tensors], axis=axis),
                   tuple(tensors), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        a._accumulate(g * mask)
    return _result(a.data * mask, (a,), backward)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    s = blocks.softmax_rows(a.data.copy())

    def backward(g):
        a._accumulate(s * (g - (g * s).sum(axis=-1, keepdims=True)))
    return _result(s, (a,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis, then scale and shift."""
    xhat, inv = blocks.normalize(x.data, blocks.LN_EPS)
    out = xhat * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(g * xhat, gamma.shape))
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(g, beta.shape))
        if x.requires_grad:
            gx = g * gamma.data
            dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                        - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
            x._accumulate(dx)
    return _result(out, (x, gamma, beta), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
        table._accumulate(gt)
    return _result(table.data[ids], (table,), backward)


def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Add a constant array (e.g. position table or attention mask bias)."""
    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
    return _result(a.data + c, (a,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean token cross-entropy over positions where ``mask`` is true.

    logits: (..., V); targets: integer array matching logits[...,0] shape.
    """
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("cross_entropy needs at least one unmasked position")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    loss = -(picked * mask).sum() / count

    def backward(g):
        p = np.exp(logp)
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
        grad = (p - onehot) * mask[..., None] * (g / count)
        logits._accumulate(grad)
    return _result(np.asarray(loss), (logits,), backward)
