"""Stroke set prediction: matching and ranking losses, compositing, layered painting."""

from .compose import (
    PaintResult,
    PlacedStroke,
    composite,
    layered_paint,
    order_strokes,
    place_predictions,
    padded_side,
    realize_stroke,
    resize_canvas,
)
from .losses import (
    GroundTruthStroke,
    MatchConfig,
    StrokePrediction,
    hungarian_assignment,
    match_assignment,
    matching_loss,
    p_minus,
    ranking_loss,
    total_predictor_loss,
)
from .predictor import (
    StrokePredictor,
    loss_and_grad,
    predict_strokes,
)
from .training import (
    PredictorTraining,
    ground_truth_from_stroke,
    make_scene,
    pairwise_rank_error,
    stroke_centroid,
    train_predictor,
)

__all__ = [
    "GroundTruthStroke",
    "MatchConfig",
    "PaintResult",
    "PlacedStroke",
    "PredictorTraining",
    "StrokePrediction",
    "StrokePredictor",
    "composite",
    "ground_truth_from_stroke",
    "hungarian_assignment",
    "layered_paint",
    "loss_and_grad",
    "make_scene",
    "match_assignment",
    "matching_loss",
    "order_strokes",
    "p_minus",
    "padded_side",
    "pairwise_rank_error",
    "place_predictions",
    "predict_strokes",
    "ranking_loss",
    "realize_stroke",
    "resize_canvas",
    "stroke_centroid",
    "total_predictor_loss",
    "train_predictor",
]
