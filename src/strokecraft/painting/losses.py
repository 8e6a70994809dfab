"""Set-matching, ranking, and combined objectives for stroke prediction."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb, inf

import numpy as np

from ..errors import ConfigError
from ..strokes.model import PARAM_COUNT, SPATIAL_DIMS

PROB_FLOOR = 1e-7


@dataclass(frozen=True)
class MatchConfig:
    """Weights of the matching/ranking objective and the prediction budget.

    lambda_l1, lambda_cos and lambda_presence form the matching weight
    vector; lambda_rank scales the ranking term in the total objective.
    """

    lambda_l1: float = 5.0
    lambda_cos: float = 10.0
    lambda_presence: float = 10.0
    lambda_rank: float = 5.0
    margin: float = 0.125
    max_strokes: int = 8

    def __post_init__(self) -> None:
        weights = (self.lambda_l1, self.lambda_cos, self.lambda_presence, self.lambda_rank)
        if not all(0 <= w < inf for w in weights):
            raise ConfigError("loss weights must be finite and nonnegative")
        if not 0 < self.margin < inf:
            raise ConfigError(f"margin must be finite and positive, got {self.margin}")
        if self.max_strokes < 1:
            raise ConfigError(f"max_strokes must be at least 1, got {self.max_strokes}")


def p_minus_scale(side: float) -> np.ndarray:
    """Divisors taking the 13 stroke parameters to P-minus scale.

    Pixel-valued dimensions are divided by the canvas side, colors by 255;
    opacity is already normalized.
    """
    scale = np.where(SPATIAL_DIMS, float(side), 1.0)
    scale[8:11] = 255.0
    return scale


def _stroke_params(params) -> np.ndarray:
    """The 13 stroke parameters as a float64 vector; any other shape is refused."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (PARAM_COUNT,):
        raise ConfigError(f"expected {PARAM_COUNT} stroke parameters, got {params.shape}")
    return params


def p_minus(params: np.ndarray, x_shift: float, y_shift: float, side: float) -> np.ndarray:
    """Scale-comparable (c_p, x_shift, y_shift) vector; the shifts are already normalized."""
    params = _stroke_params(params)
    if side <= 0:
        raise ConfigError(f"canvas side must be positive, got {side}")
    return np.concatenate([params / p_minus_scale(side), [float(x_shift), float(y_shift)]])


@dataclass(frozen=True)
class StrokePrediction:
    """One predicted stroke: parameters, placement, rank score, presence.

    params are pixel units at the prediction's patch side, describing the
    stroke centered on the patch; the shifts place its center on the patch
    in normalized units, 0.5 meaning no displacement.
    """

    params: np.ndarray
    x_shift: float
    y_shift: float
    scr_r: float
    d: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _stroke_params(self.params))
        if not 0.0 < self.scr_r < 1.0:
            raise ConfigError(f"ranking score must lie strictly in (0, 1), got {self.scr_r}")
        if not 0.0 <= self.d <= 1.0:
            raise ConfigError(f"presence confidence must lie in [0, 1], got {self.d}")


@dataclass(frozen=True)
class GroundTruthStroke:
    """A reference stroke with its drawing position; smaller index paints earlier."""

    params: np.ndarray
    x_shift: float
    y_shift: float
    order_index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _stroke_params(self.params))
        if self.order_index < 1 or self.order_index != int(self.order_index):
            raise ConfigError(f"order index must be a positive integer, got {self.order_index}")

    def p_minus(self, side: float) -> np.ndarray:
        return p_minus(self.params, self.x_shift, self.y_shift, side)


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest augmenting path assignment of a finite 2-D cost matrix.

    The method of D. F. Crouse, "On implementing 2D rectangular assignment
    algorithms" (IEEE TAES 52(4), 2016), step for step as the oracle solver
    of the tests takes it, so that ties resolve to the same indices: rows
    are added in order, columns are scanned from a remaining list that
    starts reversed, an equal reduced cost prefers an unassigned column,
    and a matrix with more rows than columns is solved transposed. Returns
    the row indices in ascending order and the column assigned to each.
    """
    transpose = cost.shape[0] > cost.shape[1]
    c = (cost.T if transpose else cost).tolist()
    nr, nc = sorted(cost.shape)  # the matrix solved is never tall
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for current in range(nr):
        shortest = [inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        rows_seen = []
        cols_seen = []
        min_val = 0.0
        i = current
        sink = -1
        while sink < 0:
            rows_seen.append(i)
            ci, ui = c[i], u[i]
            lowest = inf
            index = -1
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or s == lowest and row4col[j] < 0:
                    lowest = s
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # rows_seen[0] is the current row, which no column holds yet
        u[current] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == current:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return np.array(sorted(col4row), dtype=np.int64), np.array(order, dtype=np.int64)
    return np.arange(nr, dtype=np.int64), np.array(col4row, dtype=np.int64)


def hungarian_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost injective assignment of rows to columns."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ConfigError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ConfigError("cost matrix contains non-finite entries")
    return linear_sum_assignment(cost)


def _match_costs(pred_p: np.ndarray, pred_d: np.ndarray, gt_p: np.ndarray,
                 cfg: MatchConfig) -> tuple[np.ndarray, ...]:
    """Validated matching inputs and the cost of each (ground truth, prediction) pair.

    Returns (pred_p, pred_d, gt_p, clamped pred_d, dot products, ground-truth
    norms, prediction norms, nonzero-pair mask, cost matrix).
    """
    pred_p = np.asarray(pred_p, dtype=np.float64)
    pred_d = np.asarray(pred_d, dtype=np.float64)
    if pred_p.ndim != 2 or pred_d.shape != (pred_p.shape[0],):
        raise ConfigError("predictions must be a 2-D vector stack with one confidence each")
    gt_p = np.asarray(gt_p, dtype=np.float64)
    if gt_p.size == 0:
        gt_p = gt_p.reshape(0, pred_p.shape[1])
    if gt_p.ndim != 2 or gt_p.shape[1] != pred_p.shape[1]:
        raise ConfigError(f"ground-truth stack {gt_p.shape} does not match predictions {pred_p.shape}")
    m = pred_p.shape[0]
    n = gt_p.shape[0]
    if n > m:
        raise ConfigError(f"{n} ground-truth strokes exceed {m} predictions")
    clamped = np.clip(pred_d, PROB_FLOOR, 1.0 - PROB_FLOOR)
    dot = gt_p @ pred_p.T
    gt_norm = np.linalg.norm(gt_p, axis=1)
    pred_norm = np.linalg.norm(pred_p, axis=1)
    # a zero-norm vector is maximally far in cosine and gets no cosine gradient
    nonzero = (gt_norm != 0.0)[:, None] & (pred_norm != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.where(nonzero, 1.0 - dot / (gt_norm[:, None] * pred_norm), 1.0)
    l1 = np.abs(gt_p[:, None] - pred_p).sum(axis=2)
    cost = (cfg.lambda_l1 * l1 + cfg.lambda_cos * cos
            + cfg.lambda_presence * -np.log(clamped))
    return pred_p, pred_d, gt_p, clamped, dot, gt_norm, pred_norm, nonzero, cost


def match_assignment(pred_p: np.ndarray, pred_d: np.ndarray, gt_p: np.ndarray,
                     cfg: MatchConfig) -> np.ndarray:
    """The matched prediction index per ground-truth row, as matching_loss gives it.

    Takes the same inputs, checks them the same way, and computes the
    same cost matrix, but neither the loss nor its gradients.
    """
    return hungarian_assignment(_match_costs(pred_p, pred_d, gt_p, cfg)[-1])[1]


def matching_loss(pred_p: np.ndarray, pred_d: np.ndarray, gt_p: np.ndarray,
                  cfg: MatchConfig) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Assignment-optimal matching loss with gradients in the predictions.

    Ground-truth strokes are all present (d = 1); every unmatched
    prediction pays the cross-entropy of claiming a stroke where none is.
    Returns (loss, d loss/d pred_p, d loss/d pred_d, matched prediction
    index per ground-truth row; empty without ground-truth strokes).
    """
    pred_p, pred_d, gt_p, clamped, dot, gt_norm, pred_norm, nonzero, cost = _match_costs(
        pred_p, pred_d, gt_p, cfg)
    m = pred_p.shape[0]
    n = gt_p.shape[0]
    # _match_costs refuses more rows than columns, so the rows come back as 0..n-1
    assignment = hungarian_assignment(cost)[1]
    pair = (np.arange(n), assignment)
    matched = np.zeros(m, dtype=bool)
    matched[assignment] = True
    absence = cfg.lambda_presence * -np.log1p(-clamped[~matched])
    total = cost[pair].sum() + absence.sum()

    pred_m = pred_p[assignment]
    na = gt_norm[:, None]
    nb = pred_norm[assignment, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_grad = -(gt_p / (na * nb) - dot[pair][:, None] * pred_m / (na * nb**3))
    grad_p = np.zeros_like(pred_p)
    grad_p[assignment] = (cfg.lambda_l1 * np.sign(pred_m - gt_p)
                          + cfg.lambda_cos * np.where(nonzero[pair][:, None], cos_grad, 0.0))
    # the clamped cross-entropy is flat outside the clamp
    bce_grad = np.where(matched, clamped - 1.0, clamped) / (clamped * (1.0 - clamped))
    grad_d = cfg.lambda_presence * np.where(pred_d == clamped, bce_grad, 0.0)
    return float(total), grad_p, grad_d, assignment


def ranking_loss(scr: np.ndarray, order: np.ndarray,
                 margin: float) -> tuple[float, np.ndarray]:
    """Pairwise hinge pushing earlier strokes toward lower scores.

    For every earlier/later pair the later score must exceed the earlier
    one by the order gap times the margin; violations are summed and
    normalized by the number of pairs. Fewer than two strokes cost nothing.
    """
    scr = np.asarray(scr, dtype=np.float64)
    order = np.asarray(order, dtype=np.float64)
    if scr.shape != order.shape or scr.ndim != 1:
        raise ConfigError(f"scores {scr.shape} and orders {order.shape} must be equal 1-D")
    n = len(scr)
    grad = np.zeros_like(scr)
    if n < 2:
        return 0.0, grad
    # np.unique would import numpy.ma; two nans, which the sort puts last, count as equal
    ordered = np.sort(order)
    if (ordered[1:] == ordered[:-1]).any() or np.isnan(ordered[-2]):
        raise ConfigError("order indices must be distinct")
    pairs = comb(n, 2)
    # the pairs in the row-major order of a double loop over (i, j), with its running
    # sum (sum() compensates from Python 3.12 on) and, per element, its += and -= sequence
    earlier, later = np.nonzero(order[:, None] < order)
    hinge = scr[earlier] - scr[later] + (order[later] - order[earlier]) * margin
    hit = hinge > 0
    interleaved = np.stack((earlier[hit], later[hit]), axis=1).ravel()
    np.add.at(grad, interleaved, np.tile([1.0 / pairs, -1.0 / pairs], np.count_nonzero(hit)))
    return reduce(float.__add__, hinge[hit].tolist(), 0.0) / pairs, grad


def total_predictor_loss(pred_p: np.ndarray, pred_d: np.ndarray, pred_scr: np.ndarray,
                         gt_p: np.ndarray, gt_order: np.ndarray, cfg: MatchConfig,
                         ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Matching loss plus the weighted ranking loss, with gradients.

    The ranking term compares the scores of the predictions matched to
    ground-truth strokes against the ground-truth drawing order.
    Returns (loss, grad pred_p, grad pred_d, grad pred_scr, assignment).
    """
    pred_scr = np.asarray(pred_scr, dtype=np.float64)
    match, grad_p, grad_d, assignment = matching_loss(pred_p, pred_d, gt_p, cfg)
    rank, rank_grad = ranking_loss(pred_scr[assignment], gt_order, cfg.margin)
    grad_scr = np.zeros_like(pred_scr)
    grad_scr[assignment] = cfg.lambda_rank * rank_grad
    loss = match + cfg.lambda_rank * rank
    return float(loss), grad_p, grad_d, grad_scr, assignment
