"""Small flat-parameter neural nets with hand-written backprop.

All trainable weights live in one contiguous float64 vector so optimizers,
checkpoints, and finite-difference checks can treat a model as a plain point
in R^n.  A model describes its layout as a list of tensor shapes; the
vector holds those tensors back to back, in that order.  Layers are
functional: forward returns whatever the matching backward needs.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from . import files
from .errors import ConfigError, DataIOError

CHECKPOINT_MAGIC_KEY = "format"
CHECKPOINT_FORMAT = "flat-f64-v1"


def glorot_limit(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def _sizes(shapes) -> list[int]:
    return [math.prod(shape) for shape in shapes]


def init_params(shapes, rng: np.random.Generator) -> np.ndarray:
    """Flat vector for ``shapes``: Glorot-uniform weights, zero biases.

    Draws happen in shape order, one per weight tensor.  A 1-D shape is a
    bias.  A 2-D shape is an (in, out) matrix; a 4-D shape is an
    (out, in, kh, kw) kernel whose fans include the kernel area.
    """
    sizes = _sizes(shapes)
    params = np.zeros(sum(sizes))
    offset = 0
    for shape, size in zip(shapes, sizes):
        if len(shape) > 1:
            area = int(np.prod(shape[2:]))
            fan_in, fan_out = (shape[1] * area, shape[0] * area) if len(shape) == 4 else shape
            lim = glorot_limit(fan_in, fan_out)
            params[offset : offset + size] = rng.uniform(-lim, lim, size)
        offset += size
    return params


def param_views(params: np.ndarray, shapes) -> list[np.ndarray]:
    """Reshaped views into ``params``, one per shape, in order."""
    sizes = _sizes(shapes)
    ends = np.cumsum(sizes)
    return [params[end - size : end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, ends)]


def dtanh(y: np.ndarray) -> np.ndarray:
    # derivative expressed through the activation output
    return 1.0 - y * y


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def dsigmoid(y: np.ndarray) -> np.ndarray:
    return y * (1.0 - y)


def linear_backward(
    x: np.ndarray, w: np.ndarray, grad_out: np.ndarray, grad_w: np.ndarray, grad_b: np.ndarray
) -> np.ndarray:
    """Input gradient; the weight and bias gradients are written into ``grad_w`` and ``grad_b``."""
    np.matmul(x.T, grad_out, out=grad_w)
    grad_out.sum(axis=0, out=grad_b)
    return grad_out @ w.T


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    b, c, h, w = x.shape
    hp = (h + 2 * pad - kh) // stride + 1
    wp = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    cols = np.empty((b, c, kh, kw, hp, wp), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * hp : stride, j : j + stride * wp : stride]
    return cols.reshape(b, c * kh * kw, hp * wp)


def _col2im(
    cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    b, c, h, w = x_shape
    hp = (h + 2 * pad - kh) // stride + 1
    wp = (w + 2 * pad - kw) // stride + 1
    cols = cols.reshape(b, c, kh, kw, hp, wp)
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * hp : stride, j : j + stride * wp : stride] += cols[
                :, :, i, j
            ]
    return xp[:, :, pad : pad + h, pad : pad + w]


def conv2d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, pad: int = 1
) -> tuple[np.ndarray, tuple]:
    """x (B,C,H,W), w (Cout,Cin,kh,kw), b (Cout,) -> out (B,Cout,H',W') plus cache."""
    cout, cin, kh, kw = w.shape
    cols = _im2col(x, kh, kw, stride, pad)
    out = np.einsum("ok,bkp->bop", w.reshape(cout, -1), cols) + b[None, :, None]
    bsz = x.shape[0]
    hp = (x.shape[2] + 2 * pad - kh) // stride + 1
    wp = (x.shape[3] + 2 * pad - kw) // stride + 1
    return out.reshape(bsz, cout, hp, wp), (cols, x.shape, w.shape, stride, pad)


def conv2d_backward(
    cache: tuple, w: np.ndarray, grad_out: np.ndarray, grad_w: np.ndarray, grad_b: np.ndarray
) -> np.ndarray:
    """Input gradient; the kernel and bias gradients are written into ``grad_w`` and
    ``grad_b``, which must be C-contiguous, as ``param_views`` gives them."""
    cols, x_shape, w_shape, stride, pad = cache
    cout, cin, kh, kw = w_shape
    bsz = grad_out.shape[0]
    gmat = grad_out.reshape(bsz, cout, -1)
    np.einsum("bop,bkp->ok", gmat, cols, out=grad_w.reshape(cout, -1))
    gmat.sum(axis=(0, 2), out=grad_b)
    grad_cols = np.einsum("ok,bop->bkp", w.reshape(cout, -1), gmat)
    return _col2im(grad_cols, x_shape, kh, kw, stride, pad)


class Adam:
    """Standard Adam on a flat parameter vector.

    ``update`` works in place, in ``m``, ``v``, ``params`` and two work
    buffers, with the operations and their order of the plain expression.
    It walks the vector in blocks of ``BLOCK`` values, so the work buffers
    hold one block, not a copy of the parameters; the gradient is only read.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    # a block's six slices (768 KiB) stay in a 2 MiB L2 cache; 2**12 values
    # ran slower, and 2**16 kept under 60 % of the memory saved
    BLOCK = 2**14

    def __init__(self, size: int, lr: float = 1e-3):
        if not lr > 0:
            raise ConfigError(f"the learning rate must be positive, got {lr!r}")
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._step = np.empty(min(size, self.BLOCK))
        self._denom = np.empty(min(size, self.BLOCK))

    def update(self, params: np.ndarray, grad: np.ndarray) -> None:
        size = self.m.size
        for name, array in (("params", params), ("grad", grad)):
            if array.shape != (size,):
                raise ConfigError(f"Adam over {size} values got {name} of shape {array.shape}")
        self.t += 1
        mscale = 1.0 - self.beta1**self.t
        vscale = 1.0 - self.beta2**self.t
        for start in range(0, size, self.BLOCK):
            block = slice(start, start + self.BLOCK)
            m, v, g, p = self.m[block], self.v[block], grad[block], params[block]
            step, denom = self._step[: m.size], self._denom[: m.size]
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=step)
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=step)
            v += np.multiply(step, g, out=step)
            # params -= lr * mhat / (sqrt(vhat) + eps)
            np.divide(m, mscale, out=step)
            np.multiply(self.lr, step, out=step)
            np.divide(v, vscale, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            p -= np.divide(step, denom, out=step)


def save_checkpoint(path, arch: dict, params: np.ndarray) -> None:
    """Length-prefixed UTF-8 JSON architecture header, then little-endian f64 weights."""
    header = dict(arch)
    header[CHECKPOINT_MAGIC_KEY] = CHECKPOINT_FORMAT
    header["param_count"] = int(params.size)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    # joining a view of the weights makes the written bytes their only copy
    weights = memoryview(np.ascontiguousarray(params, dtype="<f8"))
    files.write_bytes(path, b"".join([struct.pack("<I", len(blob)), blob, weights]))


def load_checkpoint(path) -> tuple[dict, np.ndarray]:
    raw = files.read_bytes(path)
    if len(raw) < 4:
        raise DataIOError(f"checkpoint {path} too short for a header")
    (hlen,) = struct.unpack("<I", raw[:4])
    if len(raw) < 4 + hlen:
        raise DataIOError(f"checkpoint {path} truncated inside the header")
    try:
        header = json.loads(raw[4 : 4 + hlen].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer too long to convert
        raise DataIOError(f"checkpoint {path} has a malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataIOError(f"checkpoint {path} header is not a JSON object")
    if header.get(CHECKPOINT_MAGIC_KEY) != CHECKPOINT_FORMAT:
        raise DataIOError(f"checkpoint {path} has unknown format {header.get(CHECKPOINT_MAGIC_KEY)!r}")
    body = raw[4 + hlen :]
    if len(body) % 8:
        raise DataIOError(f"checkpoint {path} weight section is not a whole number of f64s")
    params = np.frombuffer(body, dtype="<f8").astype(np.float64)
    expected = header.get("param_count")
    if expected is not None and params.size != expected:
        raise DataIOError(
            f"checkpoint {path} holds {params.size} weights, header promises {expected}"
        )
    return header, params


def _positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def load_model(path, kind: str, keys: tuple[str, ...], shapes,
               lists: dict[str, int | None] | None = None) -> tuple[dict, np.ndarray]:
    """Architecture and weights of a ``kind`` checkpoint.

    The architecture is ``kind`` plus ``keys`` read from the header; other
    header keys are ignored.  Each key holds one positive int, except those
    in ``lists``, which hold a list of positive ints of the mapped length
    (None: any length).  ``shapes`` maps the architecture to its parameter
    shapes, whose total size the weights must match.
    """
    header, params = load_checkpoint(path)
    if header.get("kind") != kind:
        raise ConfigError(f"checkpoint at {path} holds a {header.get('kind')!r}, not a {kind}")
    missing = [k for k in keys if k not in header]
    if missing:
        raise DataIOError(f"checkpoint {path} lacks architecture keys {', '.join(missing)}")
    lists = lists or {}
    for key in keys:
        value = header[key]
        if key not in lists:
            ok, want = _positive_int(value), "a positive integer"
        else:
            length = lists[key]
            ok = (isinstance(value, list) and length in (None, len(value))
                  and all(map(_positive_int, value)))
            want = f"a list of {length or 'any number of'} positive integers"
        if not ok:
            raise DataIOError(f"checkpoint {path} architecture key {key} must be {want}, "
                              f"got {value!r:.40}")
    arch = {"kind": kind, **{k: header[k] for k in keys}}
    if params.size != sum(_sizes(shapes(arch))):
        raise ConfigError("checkpoint weight count does not match its architecture")
    return arch, params
