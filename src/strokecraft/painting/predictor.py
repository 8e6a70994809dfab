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
from ..errors import ConfigError, NumericalError
from ..strokes.canvas import Canvas
from ..strokes.model import PARAM_COUNT, ParamRanges
from .losses import (MatchConfig, StrokePrediction, match_assignment, p_minus_scale,
                     total_predictor_loss)

DEFAULT_INPUT_SIDE = 32
DEFAULT_CONV_CHANNELS = (8, 16)
DEFAULT_HIDDEN = 128
OUT_PER_STROKE = PARAM_COUNT + 4
ARCH_KEYS = ("input_side", "canvas_channels", "conv_channels", "fc_hidden", "max_strokes")
# The sigmoid rounds to exactly 0 or 1 for large logits; a rank score must
# lie strictly inside (0, 1).
_SCORE_RANGE = (np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


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
        return cls(arch=arch, params=nn.init_params(_param_shapes(arch), rng))

    def _views(self, flat: np.ndarray | None = None) -> list[np.ndarray]:
        """Per-tensor views into ``flat`` (the parameters by default)."""
        return nn.param_views(self.params if flat is None else flat, _param_shapes(self.arch))

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
        a1 = np.tanh(h1)
        h2, cache2 = nn.conv2d_forward(a1, w2, b2, stride=2, pad=1)
        a2 = np.tanh(h2)
        flat = a2.reshape(x.shape[0], -1)
        a3 = np.tanh(flat @ w3 + b3)
        raw = a3 @ w4 + b4
        u = nn.sigmoid(raw)
        cache = {"cache1": cache1, "a1": a1, "cache2": cache2, "a2": a2,
                 "flat": flat, "a3": a3, "u": u}
        return u.reshape(self.arch["max_strokes"], OUT_PER_STROKE), cache

    def _backward(self, grad_u: np.ndarray, cache: dict) -> np.ndarray:
        w1, _, w2, _, w3, _, w4, _ = self._views()
        # each tensor's gradient goes straight into its slice of one flat vector
        grad = np.empty_like(self.params)
        gw1, gb1, gw2, gb2, gw3, gb3, gw4, gb4 = self._views(grad)
        grad_raw = grad_u.reshape(cache["u"].shape) * nn.dsigmoid(cache["u"])
        grad_a3 = nn.linear_backward(cache["a3"], w4, grad_raw, gw4, gb4)
        grad_h3 = grad_a3 * nn.dtanh(cache["a3"])
        grad_flat = nn.linear_backward(cache["flat"], w3, grad_h3, gw3, gb3)
        grad_h2 = grad_flat.reshape(cache["a2"].shape) * nn.dtanh(cache["a2"])
        grad_a1 = nn.conv2d_backward(cache["cache2"], w2, grad_h2, gw2, gb2)
        grad_h1 = grad_a1 * nn.dtanh(cache["a1"])
        nn.conv2d_backward(cache["cache1"], w1, grad_h1, gw1, gb1)
        return grad

    def save(self, path) -> None:
        nn.save_checkpoint(path, self.arch, self.params)

    @classmethod
    def load(cls, path) -> "StrokePredictor":
        arch, params = nn.load_model(path, "stroke_conv", ARCH_KEYS, _param_shapes,
                                     lists={"conv_channels": 2})
        return cls(arch=arch, params=params)


def predict_strokes(predictor: StrokePredictor, current: Canvas, target: Canvas,
                    *, patch_side: float) -> list[StrokePrediction]:
    """All prediction slots for one canvas pair, in slot order.

    Stroke parameters are denormalized for patch_side (the true patch the
    resized inputs stand for), so the returned strokes are directly
    renderable there. Non-finite slot outputs, as a checkpoint with a NaN
    weight gives, raise NumericalError.
    """
    u, _ = predictor._forward(predictor._stack(current, target))
    if not np.all(np.isfinite(u)):
        raise NumericalError(f"predictor slot outputs are not finite "
                             f"({np.count_nonzero(~np.isfinite(u))} of {u.size} values)")
    ranges = ParamRanges.for_canvas(patch_side)
    return [
        StrokePrediction(
            params=ranges.denormalize(row[:PARAM_COUNT]),
            x_shift=float(row[PARAM_COUNT]),
            y_shift=float(row[PARAM_COUNT + 1]),
            scr_r=float(np.clip(row[PARAM_COUNT + 2], *_SCORE_RANGE)),
            d=float(row[PARAM_COUNT + 3]),
        )
        for row in u
    ]


def _match_inputs(u: np.ndarray, gts: list, side: float,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Slot outputs and ground truths as the losses take them.

    Returns (P-minus slot vectors, presence confidences, P-minus
    ground-truth stack, the slope taking normalized parameters to P-minus).
    """
    ranges = ParamRanges.for_canvas(side)
    scale = p_minus_scale(side)
    slope = ranges.span / scale
    pred_p = np.concatenate(
        [ranges.lo / scale + slope * u[:, :PARAM_COUNT], u[:, PARAM_COUNT:PARAM_COUNT + 2]],
        axis=1,
    )
    gt_p = np.array([g.p_minus(side) for g in gts]).reshape(len(gts), pred_p.shape[1])
    return pred_p, u[:, PARAM_COUNT + 3], gt_p, slope


def forward_assignment(predictor: StrokePredictor, current: Canvas, target: Canvas,
                       gts: list, cfg: MatchConfig) -> tuple[np.ndarray, np.ndarray]:
    """One forward pass and the matching, without the loss or its gradient.

    Returns (slot outputs u, matched prediction index per ground truth),
    the same bits as the forward pass and loss_and_grad give them.
    """
    u, _ = predictor._forward(predictor._stack(current, target))
    pred_p, pred_d, gt_p, _ = _match_inputs(u, gts, float(predictor.arch["input_side"]))
    return u, match_assignment(pred_p, pred_d, gt_p, cfg)


def loss_and_grad(predictor: StrokePredictor, current: Canvas, target: Canvas,
                  gts: list, cfg: MatchConfig,
                  ) -> tuple[float, np.ndarray, np.ndarray]:
    """Total matching-plus-ranking loss and its gradient in the weights.

    Returns (loss, flat gradient, matched prediction index per ground
    truth).
    """
    u, cache = predictor._forward(predictor._stack(current, target))
    pred_p, pred_d, gt_p, slope = _match_inputs(u, gts, float(predictor.arch["input_side"]))
    gt_order = np.array([g.order_index for g in gts])
    loss, grad_p, grad_d, grad_scr, assignment = total_predictor_loss(
        pred_p, pred_d, u[:, PARAM_COUNT + 2], gt_p, gt_order, cfg
    )
    grad_u = np.empty_like(u)
    grad_u[:, :PARAM_COUNT] = grad_p[:, :PARAM_COUNT] * slope
    grad_u[:, PARAM_COUNT:PARAM_COUNT + 2] = grad_p[:, PARAM_COUNT:]
    grad_u[:, PARAM_COUNT + 2] = grad_scr
    grad_u[:, PARAM_COUNT + 3] = grad_d
    return loss, predictor._backward(grad_u, cache), assignment
