"""Convolutional stroke predictor over (current, target) canvas pairs.

Two stride-2 convolutions, a tanh hidden layer, and a sigmoid head emitting
max_strokes slots of 17 values: 13 range-normalized stroke parameters, two
placement shifts, a ranking score, and a presence confidence.  Weights are
one flat float64 vector with hand-written backprop, like the other nets here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..errors import ConfigError
from ..strokes.canvas import Canvas
from ..strokes.model import PARAM_COUNT, SPATIAL_DIMS, ParamRanges
from .losses import MatchConfig, StrokePrediction, total_predictor_loss

DEFAULT_INPUT_SIDE = 32
DEFAULT_CONV_CHANNELS = (8, 16)
DEFAULT_HIDDEN = 128
OUT_PER_STROKE = PARAM_COUNT + 4


def _param_shapes(arch: dict) -> list[tuple[int, ...]]:
    c1, c2 = arch["conv_channels"]
    cin = 2 * arch["canvas_channels"]
    quarter = arch["input_side"] // 4
    flat = c2 * quarter * quarter
    out = arch["max_strokes"] * OUT_PER_STROKE
    return [
        (c1, cin, 3, 3), (c1,),
        (c2, c1, 3, 3), (c2,),
        (flat, arch["fc_hidden"]), (arch["fc_hidden"],),
        (arch["fc_hidden"], out), (out,),
    ]


def param_count(arch: dict) -> int:
    return sum(int(np.prod(shape)) for shape in _param_shapes(arch))


def _p_minus_affine(side: float) -> tuple[np.ndarray, np.ndarray]:
    """Slope and intercept taking range-normalized parameters to P-minus scale."""
    ranges = ParamRanges.for_canvas(side)
    scale = np.where(SPATIAL_DIMS, float(side), 1.0)
    scale[8:11] = 255.0
    return ranges.span / scale, ranges.lo / scale


@dataclass
class StrokePredictor:
    """Fixed-budget set predictor with a flat parameter vector."""

    arch: dict
    params: np.ndarray

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        input_side: int = DEFAULT_INPUT_SIDE,
        canvas_channels: int = 3,
        conv_channels: tuple[int, int] = DEFAULT_CONV_CHANNELS,
        fc_hidden: int = DEFAULT_HIDDEN,
        max_strokes: int = 8,
    ) -> "StrokePredictor":
        if input_side % 4 or input_side < 4:
            raise ConfigError(f"input side must be a positive multiple of 4, got {input_side}")
        if canvas_channels not in (1, 3):
            raise ConfigError(f"canvas channels must be 1 or 3, got {canvas_channels}")
        if max_strokes < 1:
            raise ConfigError(f"max_strokes must be at least 1, got {max_strokes}")
        arch = {
            "kind": "stroke_conv",
            "input_side": int(input_side),
            "canvas_channels": int(canvas_channels),
            "conv_channels": [int(c) for c in conv_channels],
            "fc_hidden": int(fc_hidden),
            "max_strokes": int(max_strokes),
        }
        params = np.empty(param_count(arch))
        offset = 0
        for shape in _param_shapes(arch):
            size = int(np.prod(shape))
            if len(shape) == 1:
                params[offset : offset + size] = 0.0
            else:
                if len(shape) == 4:
                    fan_in = shape[1] * shape[2] * shape[3]
                    fan_out = shape[0] * shape[2] * shape[3]
                else:
                    fan_in, fan_out = shape
                lim = nn.glorot_limit(fan_in, fan_out)
                params[offset : offset + size] = rng.uniform(-lim, lim, size)
            offset += size
        return cls(arch=arch, params=params)

    def _views(self) -> list[np.ndarray]:
        views = []
        offset = 0
        for shape in _param_shapes(self.arch):
            size = int(np.prod(shape))
            views.append(self.params[offset : offset + size].reshape(shape))
            offset += size
        return views

    def _stack(self, current: Canvas, target: Canvas) -> np.ndarray:
        side = self.arch["input_side"]
        for name, canvas in (("current", current), ("target", target)):
            if canvas.height != side or canvas.width != side:
                raise ConfigError(
                    f"{name} canvas is {canvas.height}x{canvas.width}, predictor wants {side}x{side}"
                )
            if canvas.channels != self.arch["canvas_channels"]:
                raise ConfigError(
                    f"{name} canvas has {canvas.channels} channels, "
                    f"predictor wants {self.arch['canvas_channels']}"
                )
        stacked = np.concatenate([current.pixels, target.pixels], axis=2)
        return stacked.transpose(2, 0, 1)[None]

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        w1, b1, w2, b2, w3, b3, w4, b4 = self._views()
        h1, cache1 = nn.conv2d_forward(x, w1, b1, stride=2, pad=1)
        a1 = nn.tanh(h1)
        h2, cache2 = nn.conv2d_forward(a1, w2, b2, stride=2, pad=1)
        a2 = nn.tanh(h2)
        flat = a2.reshape(x.shape[0], -1)
        a3 = nn.tanh(nn.linear_forward(flat, w3, b3))
        raw = nn.linear_forward(a3, w4, b4)
        u = nn.sigmoid(raw)
        cache = {"cache1": cache1, "a1": a1, "cache2": cache2, "a2": a2,
                 "flat": flat, "a3": a3, "u": u}
        return u.reshape(self.arch["max_strokes"], OUT_PER_STROKE), cache

    def _backward(self, grad_u: np.ndarray, cache: dict) -> np.ndarray:
        w1, b1, w2, b2, w3, b3, w4, b4 = self._views()
        grad_raw = grad_u.reshape(cache["u"].shape) * nn.dsigmoid(cache["u"])
        grad_a3, gw4, gb4 = nn.linear_backward(cache["a3"], w4, grad_raw)
        grad_h3 = grad_a3 * nn.dtanh(cache["a3"])
        grad_flat, gw3, gb3 = nn.linear_backward(cache["flat"], w3, grad_h3)
        grad_h2 = grad_flat.reshape(cache["a2"].shape) * nn.dtanh(cache["a2"])
        grad_a1, gw2, gb2 = nn.conv2d_backward(cache["cache2"], w2, grad_h2)
        grad_h1 = grad_a1 * nn.dtanh(cache["a1"])
        _, gw1, gb1 = nn.conv2d_backward(cache["cache1"], w1, grad_h1)
        return np.concatenate([g.ravel() for g in (gw1, gb1, gw2, gb2, gw3, gb3, gw4, gb4)])

    def save(self, path) -> None:
        nn.save_checkpoint(path, self.arch, self.params)

    @classmethod
    def load(cls, path) -> "StrokePredictor":
        header, params = nn.load_checkpoint(path)
        if header.get("kind") != "stroke_conv":
            raise ConfigError(f"checkpoint at {path} holds a {header.get('kind')!r}, not a stroke_conv")
        arch = {k: header[k] for k in ("kind", "input_side", "canvas_channels",
                                       "conv_channels", "fc_hidden", "max_strokes")}
        if params.size != param_count(arch):
            raise ConfigError("checkpoint weight count does not match its architecture")
        return cls(arch=arch, params=params)


def predict_strokes(predictor: StrokePredictor, current: Canvas, target: Canvas,
                    *, patch_side: float | None = None) -> list[StrokePrediction]:
    """All prediction slots for one canvas pair, in slot order.

    Stroke parameters are denormalized for patch_side (the true patch the
    resized inputs stand for; defaults to the input side), so the returned
    strokes are directly renderable there.
    """
    u, _ = predictor._forward(predictor._stack(current, target))
    side = float(patch_side if patch_side is not None else predictor.arch["input_side"])
    ranges = ParamRanges.for_canvas(side)
    return [
        StrokePrediction(
            params=ranges.denormalize(row[:PARAM_COUNT]),
            x_shift=float(row[PARAM_COUNT]),
            y_shift=float(row[PARAM_COUNT + 1]),
            scr_r=float(row[PARAM_COUNT + 2]),
            d=float(row[PARAM_COUNT + 3]),
        )
        for row in u
    ]


def forward_loss(predictor: StrokePredictor, current: Canvas, target: Canvas,
                 gts: list, cfg: MatchConfig,
                 ) -> tuple[np.ndarray, dict, float, np.ndarray, np.ndarray]:
    """One forward pass, the matching-plus-ranking loss and its gradient in the slots.

    Only ground-truth strokes flagged present take part in the matching.
    Returns (slot outputs u, forward cache, loss, d loss/d u, matched
    prediction index per present ground truth); the ranking score of slot
    j is u[j, PARAM_COUNT + 2].
    """
    present = [g for g in gts if g.d == 1.0]
    side = float(predictor.arch["input_side"])
    u, cache = predictor._forward(predictor._stack(current, target))
    slope, intercept = _p_minus_affine(side)
    pred_p = np.concatenate(
        [intercept + slope * u[:, :PARAM_COUNT], u[:, PARAM_COUNT:PARAM_COUNT + 2]], axis=1
    )
    pred_scr = u[:, PARAM_COUNT + 2]
    pred_d = u[:, PARAM_COUNT + 3]
    gt_p = np.array([g.p_minus(side) for g in present]).reshape(len(present), pred_p.shape[1])
    gt_order = np.array([g.order_index for g in present])
    loss, grad_p, grad_d, grad_scr, assignment = total_predictor_loss(
        pred_p, pred_d, pred_scr, gt_p, gt_order, cfg
    )
    grad_u = np.empty_like(u)
    grad_u[:, :PARAM_COUNT] = grad_p[:, :PARAM_COUNT] * slope
    grad_u[:, PARAM_COUNT:PARAM_COUNT + 2] = grad_p[:, PARAM_COUNT:]
    grad_u[:, PARAM_COUNT + 2] = grad_scr
    grad_u[:, PARAM_COUNT + 3] = grad_d
    return u, cache, loss, grad_u, assignment


def loss_and_grad(predictor: StrokePredictor, current: Canvas, target: Canvas,
                  gts: list, cfg: MatchConfig,
                  ) -> tuple[float, np.ndarray, np.ndarray]:
    """Total matching-plus-ranking loss and its gradient in the weights.

    Returns (loss, flat gradient, matched prediction index per present
    ground truth); see forward_loss.
    """
    _, cache, loss, grad_u, assignment = forward_loss(predictor, current, target, gts, cfg)
    return loss, predictor._backward(grad_u, cache), assignment


@dataclass
class ConditionProjector:
    """Linear map sending the concatenated [stroke parameters; context] to an embedding."""

    weight: np.ndarray

    def __post_init__(self) -> None:
        weight = np.asarray(self.weight, dtype=np.float64)
        if weight.ndim != 2 or weight.shape[1] <= PARAM_COUNT:
            raise ConfigError(
                f"projector weight must be (embed, {PARAM_COUNT}+context), got {weight.shape}"
            )
        self.weight = weight

    @classmethod
    def create(cls, rng: np.random.Generator, embed_dim: int,
               context_dim: int) -> "ConditionProjector":
        if embed_dim < 1 or context_dim < 1:
            raise ConfigError("embedding and context dimensions must be positive")
        lim = nn.glorot_limit(PARAM_COUNT + context_dim, embed_dim)
        return cls(rng.uniform(-lim, lim, (embed_dim, PARAM_COUNT + context_dim)))

    @property
    def embed_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def context_dim(self) -> int:
        return self.weight.shape[1] - PARAM_COUNT

    def project(self, stroke_params: np.ndarray, context: np.ndarray) -> np.ndarray:
        """Embedding of one (or a batch of) parameter/context concatenations."""
        stroke_params = np.atleast_2d(np.asarray(stroke_params, dtype=np.float64))
        context = np.atleast_2d(np.asarray(context, dtype=np.float64))
        if stroke_params.shape[1] != PARAM_COUNT:
            raise ConfigError(f"expected {PARAM_COUNT} stroke parameters, got {stroke_params.shape}")
        if context.shape[1] != self.context_dim:
            raise ConfigError(f"expected context dim {self.context_dim}, got {context.shape}")
        if stroke_params.shape[0] != context.shape[0]:
            raise ConfigError("stroke parameter and context batches differ in length")
        out = np.concatenate([stroke_params, context], axis=1) @ self.weight.T
        return out[0] if out.shape[0] == 1 else out

    def save(self, path) -> None:
        arch = {"kind": "condition_projector", "embed_dim": self.embed_dim,
                "context_dim": self.context_dim}
        nn.save_checkpoint(path, arch, self.weight.ravel())

    @classmethod
    def load(cls, path) -> "ConditionProjector":
        header, params = nn.load_checkpoint(path)
        if header.get("kind") != "condition_projector":
            raise ConfigError(
                f"checkpoint at {path} holds a {header.get('kind')!r}, not a condition_projector"
            )
        shape = (header["embed_dim"], PARAM_COUNT + header["context_dim"])
        if params.size != shape[0] * shape[1]:
            raise ConfigError("checkpoint weight count does not match its architecture")
        return cls(params.reshape(shape))
