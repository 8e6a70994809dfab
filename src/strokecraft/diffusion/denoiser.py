"""Step-conditioned regression net that predicts the training target τ.

A plain tanh MLP over [flattened state, sinusoidal step features].  Weights
are one flat float64 vector; gradients come from hand-written backprop so
they can be cross-checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..errors import ConfigError

DEFAULT_TIME_DIM = 16
DEFAULT_HIDDEN = (128, 128)
ARCH_KEYS = ("data_dim", "hidden", "time_dim")


def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal features of the integer step index, shape (..., dim)."""
    if dim % 2:
        raise ConfigError(f"time embedding dim must be even, got {dim}")
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = np.asarray(t, dtype=np.float64)[..., None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


def _param_shapes(arch: dict) -> list[tuple[int, ...]]:
    """Weight (in, out) and bias (out,) of each layer, input to output."""
    widths = [arch["data_dim"] + arch["time_dim"], *arch["hidden"], arch["data_dim"]]
    shapes = []
    for nin, nout in zip(widths[:-1], widths[1:]):
        shapes += [(nin, nout), (nout,)]
    return shapes


@dataclass
class Denoiser:
    """τ-prediction MLP with a flat parameter vector."""

    arch: dict
    params: np.ndarray

    @classmethod
    def create(cls, data_dim: int, hidden: tuple[int, ...] = DEFAULT_HIDDEN,
               time_dim: int = DEFAULT_TIME_DIM, *, rng: np.random.Generator) -> "Denoiser":
        arch = {
            "kind": "tau_mlp",
            "data_dim": int(data_dim),
            "hidden": [int(h) for h in hidden],
            "time_dim": int(time_dim),
        }
        return cls(arch=arch, params=nn.init_params(_param_shapes(arch), rng))

    def _layers(self, flat: np.ndarray | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views into ``flat`` (the parameters by default), per layer."""
        views = nn.param_views(self.params if flat is None else flat, _param_shapes(self.arch))
        return list(zip(views[0::2], views[1::2]))

    def _features(self, x: np.ndarray, t) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.arch["data_dim"]:
            raise ConfigError(
                f"state dim {x.shape[1]} != architecture data_dim {self.arch['data_dim']}"
            )
        t_vec = np.broadcast_to(np.asarray(t, dtype=np.float64), (x.shape[0],))
        return np.concatenate([x, time_embedding(t_vec, self.arch["time_dim"])], axis=1)

    def predict(self, x: np.ndarray, t) -> np.ndarray:
        """τ estimate for a batch of flattened states, shape (B, data_dim)."""
        out, _ = self._forward(self._features(x, t))
        return out

    def _forward(self, feats: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        layers = self._layers()
        acts = [feats]
        h = feats
        for i, (w, b) in enumerate(layers):
            h = h @ w + b
            if i < len(layers) - 1:
                h = np.tanh(h)
            acts.append(h)
        return h, acts

    def loss_and_grad(self, x: np.ndarray, t, target: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean squared error against τ targets and its gradient in θ."""
        feats = self._features(x, t)
        if len(feats) == 0:
            raise ConfigError("loss_and_grad needs at least one state, got an empty batch")
        target = np.atleast_2d(np.asarray(target, dtype=np.float64))
        out, acts = self._forward(feats)
        if out.shape != target.shape:
            raise ConfigError(f"target shape {target.shape} != output shape {out.shape}")
        diff = out - target
        loss = float(np.mean(diff * diff))

        layers = self._layers()
        # each layer's gradient goes straight into its slice of one flat vector
        grad = np.empty_like(self.params)
        grad_layers = self._layers(grad)
        grad_h = 2.0 * diff / diff.size
        for i in range(len(layers) - 1, -1, -1):
            w, _ = layers[i]
            grad_x = nn.linear_backward(acts[i], w, grad_h, *grad_layers[i])
            if i > 0:
                grad_h = grad_x * nn.dtanh(acts[i])
        return loss, grad

    def save(self, path) -> None:
        nn.save_checkpoint(path, self.arch, self.params)

    @classmethod
    def load(cls, path) -> "Denoiser":
        arch, params = nn.load_model(path, "tau_mlp", ARCH_KEYS, _param_shapes,
                                     lists={"hidden": None})
        return cls(arch=arch, params=params)
