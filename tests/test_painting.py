"""Matching/ranking losses, the stroke predictor, compositing, layered painting."""

import functools
import itertools
from math import comb

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment as scipy_assignment

from strokecraft import nn
from strokecraft.errors import ConfigError, NumericalError
from strokecraft.painting import (
    GroundTruthStroke,
    MatchConfig,
    StrokePrediction,
    StrokePredictor,
    composite,
    ground_truth_from_stroke,
    hungarian_assignment,
    layered_paint,
    loss_and_grad,
    make_scene,
    match_assignment,
    matching_loss,
    order_strokes,
    p_minus,
    padded_side,
    pairwise_rank_error,
    place_predictions,
    predict_strokes,
    ranking_loss,
    realize_stroke,
    resize_canvas,
    stroke_centroid,
    total_predictor_loss,
    train_predictor,
)
from strokecraft.diffusion.denoiser import Denoiser
from strokecraft.painting.losses import PROB_FLOOR
from strokecraft.strokes import (
    BezierStroke,
    PARAM_COUNT,
    Canvas,
    ParamRanges,
    compose_over,
    generate_random_stroke,
    generate_visible_stroke,
)

CFG = MatchConfig()


def small_predictor(seed=3, side=8, max_strokes=3):
    rng = np.random.default_rng(seed)
    return StrokePredictor.create(rng, input_side=side, conv_channels=(4, 6),
                                  fc_hidden=16, max_strokes=max_strokes)


def fresh_linear_backward(x, w, grad_out):
    return grad_out @ w.T, x.T @ grad_out, grad_out.sum(axis=0)


def fresh_conv2d_backward(cache, w, grad_out):
    cols, x_shape, w_shape, stride, pad = cache
    cout, _, kh, kw = w_shape
    gmat = grad_out.reshape(grad_out.shape[0], cout, -1)
    grad_cols = np.einsum("ok,bop->bkp", w.reshape(cout, -1), gmat)
    return (nn._col2im(grad_cols, x_shape, kh, kw, stride, pad),
            np.einsum("bop,bkp->ok", gmat, cols).reshape(w_shape), gmat.sum(axis=(0, 2)))


def concatenated_tensor_gradients(predictor, grad_u, cache):
    """The predictor's backward pass as a list of fresh per-tensor arrays, concatenated."""
    w1, _, w2, _, w3, _, w4, _ = predictor._views()
    grad_raw = grad_u.reshape(cache["u"].shape) * nn.dsigmoid(cache["u"])
    grad_a3, gw4, gb4 = fresh_linear_backward(cache["a3"], w4, grad_raw)
    grad_h3 = grad_a3 * nn.dtanh(cache["a3"])
    grad_flat, gw3, gb3 = fresh_linear_backward(cache["flat"], w3, grad_h3)
    grad_h2 = grad_flat.reshape(cache["a2"].shape) * nn.dtanh(cache["a2"])
    grad_a1, gw2, gb2 = fresh_conv2d_backward(cache["cache2"], w2, grad_h2)
    grad_h1 = grad_a1 * nn.dtanh(cache["a1"])
    _, gw1, gb1 = fresh_conv2d_backward(cache["cache1"], w1, grad_h1)
    return np.concatenate([g.ravel() for g in (gw1, gb1, gw2, gb2, gw3, gb3, gw4, gb4)])


def tiny_scene(seed, side=8, count=2):
    """Hand-assembled scene at a side too small for the visible-stroke sampler."""
    rng = np.random.default_rng(seed)
    ranges = ParamRanges.for_canvas(side)
    target = Canvas.white(side)
    gts = []
    for index in range(1, count + 1):
        stroke = generate_random_stroke(rng, ranges)
        target = compose_over(target, stroke)
        gts.append(ground_truth_from_stroke(stroke.vector, side, index))
    return Canvas.white(side), target, gts


def pair_cost(pred, d, gt, cfg):
    """The package's matching cost of one prediction against one ground truth."""
    return matching_loss(np.asarray(pred)[None], np.array([d]), np.asarray(gt)[None], cfg)[0]


# Scalar transcription of the matching objective, one pair at a time: the
# independent route the array code in painting.losses is checked against.

def scalar_bce(target, prob):
    """Binary cross-entropy and its d/dprob, with the probability clamped."""
    clamped = min(max(prob, PROB_FLOOR), 1.0 - PROB_FLOOR)
    loss = -(target * np.log(clamped) + (1.0 - target) * np.log1p(-clamped))
    grad = (clamped - target) / (clamped * (1.0 - clamped)) if prob == clamped else 0.0
    return float(loss), float(grad)


def scalar_cosine_distance(a, b):
    """1 - cos(a, b) and its gradient in b; zero-norm vectors are maximally far."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 1.0, np.zeros_like(b)
    dot = float(a @ b)
    grad = -(a / (na * nb) - dot * b / (na * nb**3))
    return 1.0 - dot / (na * nb), grad


def scalar_pairwise_cost(pred_p, pred_d, gt_p, cfg):
    """Weighted L1 + cosine distance + presence cross-entropy for one pair."""
    l1 = float(np.sum(np.abs(gt_p - pred_p)))
    cos_dist, _ = scalar_cosine_distance(gt_p, pred_p)
    presence, _ = scalar_bce(1.0, pred_d)
    return cfg.lambda_l1 * l1 + cfg.lambda_cos * cos_dist + cfg.lambda_presence * presence


def scalar_matching_loss(pred_p, pred_d, gt_p, cfg):
    """matching_loss one cell, one matched pair and one unmatched slot at a time."""
    m, n = len(pred_p), len(gt_p)
    grad_p = np.zeros_like(pred_p)
    grad_d = np.zeros_like(pred_d)
    matched = np.zeros(m, dtype=bool)
    assignment = np.empty(0, dtype=np.int64)
    if n:
        cost = np.empty((n, m))
        for i in range(n):
            for j in range(m):
                cost[i, j] = scalar_pairwise_cost(pred_p[j], float(pred_d[j]), gt_p[i], cfg)
        rows, cols = hungarian_assignment(cost)
        assignment = np.empty(n, dtype=np.int64)
        assignment[rows] = cols
    total = 0.0
    for i in range(n):
        j = assignment[i]
        matched[j] = True
        total += cfg.lambda_l1 * float(np.sum(np.abs(gt_p[i] - pred_p[j])))
        grad_p[j] += cfg.lambda_l1 * np.sign(pred_p[j] - gt_p[i])
        cos_dist, cos_grad = scalar_cosine_distance(gt_p[i], pred_p[j])
        total += cfg.lambda_cos * cos_dist
        grad_p[j] += cfg.lambda_cos * cos_grad
        presence, presence_grad = scalar_bce(1.0, float(pred_d[j]))
        total += cfg.lambda_presence * presence
        grad_d[j] += cfg.lambda_presence * presence_grad
    for j in range(m):
        if matched[j]:
            continue
        absence, absence_grad = scalar_bce(0.0, float(pred_d[j]))
        total += cfg.lambda_presence * absence
        grad_d[j] += cfg.lambda_presence * absence_grad
    return float(total), grad_p, grad_d, assignment


def scalar_total_loss(pred_p, pred_d, pred_scr, gt_p, gt_order, cfg):
    """total_predictor_loss with the rank gradient scattered slot by slot."""
    match, grad_p, grad_d, assignment = scalar_matching_loss(pred_p, pred_d, gt_p, cfg)
    grad_scr = np.zeros_like(pred_scr)
    rank = 0.0
    if len(assignment) >= 2:
        rank, rank_grad = ranking_loss(pred_scr[assignment], gt_order, cfg.margin)
        for gt_i, pred_j in enumerate(assignment):
            grad_scr[pred_j] += cfg.lambda_rank * rank_grad[gt_i]
    return match + cfg.lambda_rank * rank, grad_p, grad_d, grad_scr, assignment


def scalar_rank_error(scr, order):
    """pairwise_rank_error as a double loop over the pairs."""
    bad = 0.0
    pairs = 0
    for i in range(len(scr)):
        for j in range(i + 1, len(scr)):
            earlier, later = (i, j) if order[i] < order[j] else (j, i)
            pairs += 1
            if scr[earlier] > scr[later]:
                bad += 1.0
            elif scr[earlier] == scr[later]:
                bad += 0.5
    return bad / pairs


def scalar_ranking_loss(scr, order, margin):
    """ranking_loss as a double loop over the ordered pairs."""
    scr = np.asarray(scr, dtype=np.float64)
    order = np.asarray(order, dtype=np.float64)
    n = len(scr)
    grad = np.zeros_like(scr)
    if n < 2:
        return 0.0, grad
    pairs = comb(n, 2)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if order[i] < order[j]:
                hinge = scr[i] - scr[j] + (order[j] - order[i]) * margin
                if hinge > 0:
                    total += hinge
                    grad[i] += 1.0 / pairs
                    grad[j] -= 1.0 / pairs
    return total / pairs, grad


class TestMatchConfig:
    def test_defaults(self):
        assert (CFG.lambda_l1, CFG.lambda_cos, CFG.lambda_presence) == (5.0, 10.0, 10.0)
        assert CFG.lambda_rank == 5.0
        assert CFG.margin == 0.125
        assert CFG.max_strokes == 8

    @pytest.mark.parametrize("kwargs", [
        {"lambda_l1": -1.0},
        {"lambda_rank": -0.5},
        {"margin": 0.0},
        {"margin": -1.0},
        {"max_strokes": 0},
        {"margin": float("nan")},
        {"margin": float("inf")},
        {"lambda_cos": float("nan")},
        {"lambda_presence": float("inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            MatchConfig(**kwargs)


class TestPMinus:
    def test_scales_per_dimension(self):
        params = np.array([16.0, 8.0, 4.0, 2.0, 1.0, 32.0, 64.0, 128.0,
                           255.0, 51.0, 102.0, 0.5, 8.0])
        vec = p_minus(params, 0.25, 0.75, 32.0)
        assert vec.shape == (15,)
        np.testing.assert_allclose(vec[:8], params[:8] / 32.0)
        np.testing.assert_allclose(vec[8:11], [1.0, 0.2, 0.4])
        assert vec[11] == 0.5
        assert vec[12] == 8.0 / 32.0
        assert vec[13] == 0.25 and vec[14] == 0.75

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            p_minus(np.zeros(12), 0.5, 0.5, 32.0)
        with pytest.raises(ConfigError):
            p_minus(np.zeros(13), 0.5, 0.5, 0.0)


class TestDomainTypes:
    def test_prediction_invariants(self):
        params = np.zeros(13)
        StrokePrediction(params=params, x_shift=0.5, y_shift=0.5, scr_r=0.5, d=0.0)
        with pytest.raises(ConfigError):
            StrokePrediction(params=params, x_shift=0.5, y_shift=0.5, scr_r=0.0, d=0.5)
        with pytest.raises(ConfigError):
            StrokePrediction(params=params, x_shift=0.5, y_shift=0.5, scr_r=1.0, d=0.5)
        with pytest.raises(ConfigError):
            StrokePrediction(params=params, x_shift=0.5, y_shift=0.5, scr_r=0.5, d=1.1)
        with pytest.raises(ConfigError):
            StrokePrediction(params=np.zeros(12), x_shift=0.5, y_shift=0.5, scr_r=0.5, d=1.0)

    def test_ground_truth_invariants(self):
        params = np.zeros(13)
        GroundTruthStroke(params=params, x_shift=0.5, y_shift=0.5, order_index=1)
        with pytest.raises(ConfigError):
            GroundTruthStroke(params=params, x_shift=0.5, y_shift=0.5, order_index=0)


class TestPairwiseCost:
    def test_identity_pair_costs_only_the_clamp(self):
        vec = np.linspace(0.1, 1.0, 15)
        cost = pair_cost(vec, 1.0, vec, CFG)
        assert cost == pytest.approx(10.0 * -np.log1p(-1e-7), rel=1e-9)
        assert cost < 1e-5

    def test_cosine_term_is_scale_invariant(self):
        cfg = MatchConfig(lambda_l1=0.0, lambda_presence=0.0)
        rng = np.random.default_rng(0)
        vec = rng.normal(size=15)
        base = pair_cost(2.0 * vec, 1.0, vec, cfg)
        assert base == pytest.approx(0.0, abs=1e-12)
        other = rng.normal(size=15)
        for scale in (0.01, 3.0, 250.0):
            assert pair_cost(scale * other, 1.0, vec, cfg) == pytest.approx(
                pair_cost(other, 1.0, vec, cfg), abs=1e-12
            )

    def test_hand_example_totals_twenty(self):
        gt = np.zeros(15)
        gt[0] = 1.0
        pred = np.zeros(15)
        pred[1] = 1.0
        assert pair_cost(pred, 1.0, gt, CFG) == pytest.approx(20.0, abs=1e-5)

    def test_zero_norm_vector_is_maximally_far(self):
        cfg = MatchConfig(lambda_l1=0.0, lambda_presence=0.0)
        assert pair_cost(np.zeros(15), 1.0, np.ones(15), cfg) == pytest.approx(10.0)
        assert pair_cost(np.ones(15), 1.0, np.zeros(15), cfg) == pytest.approx(10.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            pair_cost(np.zeros(14), 1.0, np.zeros(15), CFG)


class TestCosineDistance:
    COS_ONLY = MatchConfig(lambda_l1=0.0, lambda_cos=1.0, lambda_presence=0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            grad = matching_loss(b[None], np.array([0.5]), a[None], self.COS_ONLY)[1][0]
            h = 1e-6
            for k in range(6):
                bp = b.copy()
                bp[k] += h
                bm = b.copy()
                bm[k] -= h
                fd = (pair_cost(bp, 0.5, a, self.COS_ONLY)
                      - pair_cost(bm, 0.5, a, self.COS_ONLY)) / (2 * h)
                assert grad[k] == pytest.approx(fd, abs=1e-6)

    def test_zero_norm_has_zero_gradient(self):
        loss, grad_p, _, _ = matching_loss(np.ones((1, 4)), np.array([0.5]), np.zeros((1, 4)),
                                           self.COS_ONLY)
        assert loss == 1.0
        np.testing.assert_array_equal(grad_p, np.zeros((1, 4)))


def brute_force_assignment(cost):
    """Exhaustive minimum over injective row-to-column maps."""
    n, m = cost.shape
    best = None
    best_cols = None
    for cols in itertools.permutations(range(m), n):
        total = sum(cost[i, c] for i, c in enumerate(cols))
        if best is None or total < best:
            best = total
            best_cols = cols
    return best, best_cols


class TestHungarian:
    def test_single_pair(self):
        rows, cols = hungarian_assignment(np.array([[3.0]]))
        assert list(rows) == [0] and list(cols) == [0]

    def test_two_by_two(self):
        cost = np.array([[1.0, 2.0], [2.0, 1.0]])
        rows, cols = hungarian_assignment(cost)
        assert cost[rows, cols].sum() == 2.0

    def test_matches_brute_force_on_square_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            cost = rng.uniform(0.0, 10.0, (6, 6))
            rows, cols = hungarian_assignment(cost)
            assert cost[rows, cols].sum() == pytest.approx(brute_force_assignment(cost)[0])

    def test_matches_brute_force_on_all_sizes_to_seven(self):
        rng = np.random.default_rng(8)
        for n in range(1, 8):
            for _ in range(30):
                cost = rng.uniform(0.0, 5.0, (n, n))
                rows, cols = hungarian_assignment(cost)
                assert cost[rows, cols].sum() == pytest.approx(brute_force_assignment(cost)[0])

    def test_matches_brute_force_on_rectangles(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            cost = rng.uniform(0.0, 5.0, (3, 5))
            rows, cols = hungarian_assignment(cost)
            assert cost[rows, cols].sum() == pytest.approx(brute_force_assignment(cost)[0])

    @pytest.mark.parametrize("seed, family",
                             enumerate(["normal", "ties", "duplicate-column-zero-row"]))
    def test_indices_equal_scipy(self, seed, family):
        """Same rows and columns as scipy's solver, ties included, on every shape to 8x8."""
        rng = np.random.default_rng(seed)
        shapes = [(r, k) for r in range(1, 9) for k in range(1, 9)]
        for trial in range(3000):
            shape = shapes[trial % len(shapes)]
            if family == "ties":
                cost = rng.integers(0, 3, shape).astype(np.float64)
            else:
                cost = rng.standard_normal(shape)
            if family == "duplicate-column-zero-row":
                cost[:, rng.integers(shape[1])] = cost[:, 0]
                cost[rng.integers(shape[0])] = 0.0
            rows, cols = hungarian_assignment(cost)
            want_rows, want_cols = scipy_assignment(cost)
            assert rows.tolist() == want_rows.tolist(), cost
            assert cols.tolist() == want_cols.tolist(), cost

    def test_empty_matrices(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            rows, cols = hungarian_assignment(np.zeros(shape))
            want_rows, want_cols = scipy_assignment(np.zeros(shape))
            assert rows.tolist() == want_rows.tolist() == []
            assert cols.tolist() == want_cols.tolist() == []

    def test_rejects_bad_matrices(self):
        with pytest.raises(ConfigError):
            hungarian_assignment(np.array([1.0, 2.0]))
        with pytest.raises(ConfigError):
            hungarian_assignment(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(ConfigError):
            hungarian_assignment(np.array([[np.nan]]))


class TestMatchingLoss:
    def test_perfect_predictions_cost_almost_nothing(self):
        rng = np.random.default_rng(2)
        gt = rng.uniform(0.1, 1.0, (3, 15))
        loss, grad_p, grad_d, assignment = matching_loss(gt, np.ones(3), gt, CFG)
        assert loss < 1e-5
        assert sorted(assignment) == [0, 1, 2]

    def test_empty_ground_truth_is_pure_absence_term(self):
        preds = np.random.default_rng(3).uniform(size=(4, 15))
        d = np.full(4, 1e-7)
        loss, _, grad_d, assignment = matching_loss(preds, d, np.zeros((0, 15)), CFG)
        assert loss == pytest.approx(4 * 10.0 * -np.log1p(-1e-7), rel=1e-9)
        assert len(assignment) == 0

    def test_matches_brute_force_with_unmatched_term(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            preds = rng.uniform(0.05, 1.0, (3, 15))
            d = rng.uniform(0.1, 0.9, 3)
            gts = rng.uniform(0.05, 1.0, (2, 15))
            cost = np.array([
                [scalar_pairwise_cost(preds[j], d[j], gts[i], CFG) for j in range(3)]
                for i in range(2)
            ])
            best, cols = brute_force_assignment(cost)
            unmatched = [j for j in range(3) if j not in cols]
            expected = best + sum(
                10.0 * -(np.log1p(-min(max(d[j], 1e-7), 1 - 1e-7))) for j in unmatched
            )
            loss, _, _, assignment = matching_loss(preds, d, gts, CFG)
            assert loss == pytest.approx(expected, rel=1e-9)
            assert list(assignment) == list(cols)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        preds = rng.uniform(0.1, 1.0, (3, 15))
        d = rng.uniform(0.2, 0.8, 3)
        gts = rng.uniform(0.1, 1.0, (2, 15))
        _, grad_p, grad_d, _ = matching_loss(preds, d, gts, CFG)
        h = 1e-7
        for j in range(3):
            dp = d.copy()
            dp[j] += h
            dm = d.copy()
            dm[j] -= h
            fd = (matching_loss(preds, dp, gts, CFG)[0]
                  - matching_loss(preds, dm, gts, CFG)[0]) / (2 * h)
            assert grad_d[j] == pytest.approx(fd, abs=1e-5)
        for j in range(3):
            for k in range(0, 15, 4):
                pp = preds.copy()
                pp[j, k] += h
                pm = preds.copy()
                pm[j, k] -= h
                fd = (matching_loss(pp, d, gts, CFG)[0]
                      - matching_loss(pm, d, gts, CFG)[0]) / (2 * h)
                assert grad_p[j, k] == pytest.approx(fd, abs=1e-5)

    def test_more_ground_truth_than_predictions_rejected(self):
        with pytest.raises(ConfigError):
            matching_loss(np.ones((2, 15)), np.ones(2), np.ones((3, 15)), CFG)

    @pytest.mark.parametrize("pred_p, pred_d, gt_p", [
        (np.ones((2, 15)), np.ones(2), np.ones((3, 15))),
        (np.ones((2, 15)), np.ones(3), np.ones((1, 15))),
        (np.ones((2, 15)), np.ones(2), np.ones((1, 14))),
        (np.ones(15), np.ones(1), np.ones((1, 15))),
    ])
    def test_assignment_alone_rejects_what_the_loss_rejects(self, pred_p, pred_d, gt_p):
        with pytest.raises(ConfigError) as rejected:
            matching_loss(pred_p, pred_d, gt_p, CFG)
        with pytest.raises(ConfigError) as alone:
            match_assignment(pred_p, pred_d, gt_p, CFG)
        assert str(alone.value) == str(rejected.value)

    def test_assignment_alone_equals_the_loss_assignment(self):
        rng = np.random.default_rng(15)
        ties = 0
        for _ in range(30):
            for m in range(1, 9):
                for n in (0, 1, m):
                    pred_p, pred_d, _, gt_p, _ = self.random_instance(rng, m, n)
                    if m > 1 and rng.uniform() < 0.5:
                        # a duplicated slot ties two columns of the cost matrix
                        pred_p[m - 1], pred_d[m - 1] = pred_p[0], pred_d[0]
                        ties += 1
                    np.testing.assert_array_equal(
                        match_assignment(pred_p, pred_d, gt_p, CFG),
                        matching_loss(pred_p, pred_d, gt_p, CFG)[3])
        assert ties > 50

    @staticmethod
    def random_instance(rng, m, n):
        """Slots and truths with at most one zero-norm row per stack, presence in and out
        of the clamp, scores and a drawing order.

        A second zero-norm row would tie two rows or columns of the cost matrix
        exactly, so the optimal assignment would no longer be unique.
        """
        pred_p = rng.uniform(-1.0, 2.0, (m, 15))
        gt_p = rng.uniform(0.0, 1.0, (n, 15))
        for stack in (pred_p, gt_p):
            if len(stack) and rng.uniform() < 0.3:
                stack[rng.integers(len(stack))] = 0.0
        pred_d = rng.uniform(-0.5, 1.5, m)
        pick = rng.uniform(size=m)
        pred_d[pick < 0.1] = 0.0
        pred_d[(0.1 <= pick) & (pick < 0.2)] = 1.0
        pred_d[(0.2 <= pick) & (pick < 0.25)] = PROB_FLOOR
        pred_scr = rng.uniform(0.0, 1.0, m)
        return pred_p, pred_d, pred_scr, gt_p, rng.permutation(n) + 1

    def test_agrees_with_the_scalar_transcription(self):
        rng = np.random.default_rng(14)
        cases = 0
        for _ in range(42):
            for m in range(1, 9):
                for n in (0, m, int(rng.integers(0, m + 1))):
                    args = self.random_instance(rng, m, n)
                    pred_p, pred_d, _, gt_p, _ = args
                    for fast, slow in (
                        (matching_loss(pred_p, pred_d, gt_p, CFG),
                         scalar_matching_loss(pred_p, pred_d, gt_p, CFG)),
                        (total_predictor_loss(*args, CFG), scalar_total_loss(*args, CFG)),
                    ):
                        np.testing.assert_array_equal(fast[-1], slow[-1])
                        for got, want in zip(fast[:-1], slow[:-1]):
                            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
                    cases += 1
        assert cases >= 1000


def listing_rank_loss(scr, order, margin):
    """Independent matrix transcription of the published ranking-loss listing."""
    scr = np.asarray(scr, dtype=np.float64)
    order = np.asarray(order, dtype=np.float64)
    n = len(scr)
    dif_pred = scr[:, None] - scr[None, :]
    dif_gt = order[:, None] - order[None, :]
    mask = dif_gt < 0
    hinge = np.maximum(0.0, (dif_pred - dif_gt * margin) * mask)
    return float(hinge.sum() / comb(n, 2))


class TestRankingLoss:
    def test_hand_values(self):
        assert ranking_loss([0.1, 0.3, 0.5], [1, 2, 3], 0.125)[0] == 0.0
        assert ranking_loss([0.5, 0.3], [1, 2], 0.125)[0] == pytest.approx(0.325)
        assert ranking_loss([0.4, 0.4], [1, 2], 0.125)[0] == pytest.approx(0.125)

    def test_fewer_than_two_strokes_cost_nothing(self):
        loss, grad = ranking_loss([0.7], [1], 0.125)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, [0.0])
        assert ranking_loss([], [], 0.125)[0] == 0.0

    def test_matches_published_listing_transcription(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            scr = rng.uniform(size=n)
            if rng.uniform() < 0.5:
                order = rng.permutation(n) + 1
            else:
                order = np.sort(rng.choice(50, n, replace=False)) + 1
                rng.shuffle(order)
            loss, _ = ranking_loss(scr, order, 0.125)
            assert loss == pytest.approx(listing_rank_loss(scr, order, 0.125), rel=1e-12)

    def test_zero_iff_every_margin_gap_is_respected(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            order = rng.permutation(n) + 1
            scr = rng.uniform(size=n)
            loss, _ = ranking_loss(scr, order, 0.125)
            satisfied = all(
                scr[i] - scr[j] <= -(order[j] - order[i]) * 0.125
                for i in range(n) for j in range(n) if order[i] < order[j]
            )
            assert (loss == 0.0) == satisfied

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 25:
            n = int(rng.integers(2, 6))
            scr = rng.uniform(size=n)
            order = rng.permutation(n) + 1
            hinges = [scr[i] - scr[j] + (order[j] - order[i]) * 0.125
                      for i in range(n) for j in range(n) if order[i] < order[j]]
            if min(abs(h) for h in hinges) < 1e-4:
                continue
            _, grad = ranking_loss(scr, order, 0.125)
            h = 1e-6
            for k in range(n):
                sp = scr.copy()
                sp[k] += h
                sm = scr.copy()
                sm[k] -= h
                fd = (ranking_loss(sp, order, 0.125)[0]
                      - ranking_loss(sm, order, 0.125)[0]) / (2 * h)
                assert grad[k] == pytest.approx(fd, abs=1e-6)
            checked += 1

    def test_matches_the_scalar_double_loop_bit_for_bit(self):
        rng = np.random.default_rng(26)
        margins = (0.125, 0.01, 0.3, 1.0)
        for case in range(12_000):
            n = int(rng.integers(0, 9))
            if case % 3 == 0:  # tied scores
                scr = rng.choice([0.1, 0.25, 0.5, 0.7], n)
            else:
                scr = rng.uniform(size=n)
            if case % 2:
                order = rng.permutation(n) + 1
            else:
                order = rng.choice(50, n, replace=False) + 1
            margin = margins[case % len(margins)]
            loss, grad = ranking_loss(scr, order, margin)
            expected, expected_grad = scalar_ranking_loss(scr, order, margin)
            assert np.float64(loss).tobytes() == np.float64(expected).tobytes()
            assert grad.tobytes() == expected_grad.tobytes()

    def test_rejects_duplicate_orders_and_bad_shapes(self):
        with pytest.raises(ConfigError):
            ranking_loss([0.1, 0.2], [1, 1], 0.125)
        with pytest.raises(ConfigError):
            ranking_loss([0.1, 0.2], [1, 2, 3], 0.125)


class TestTotalLoss:
    def test_zero_components_give_zero(self):
        gt = np.random.default_rng(9).uniform(0.1, 1.0, (2, 15))
        scr = np.array([0.1, 0.9])
        loss, *_ = total_predictor_loss(gt, np.ones(2), scr, gt, np.array([1, 2]), CFG)
        assert loss < 1e-4

    def test_recomposes_from_the_two_terms(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            preds = rng.uniform(0.05, 1.0, (4, 15))
            d = rng.uniform(0.1, 0.9, 4)
            scr = rng.uniform(0.05, 0.95, 4)
            gts = rng.uniform(0.05, 1.0, (3, 15))
            order = rng.permutation(3) + 1
            loss, _, _, _, assignment = total_predictor_loss(preds, d, scr, gts, order, CFG)
            match = matching_loss(preds, d, gts, CFG)[0]
            rank = ranking_loss(scr[assignment], order, CFG.margin)[0]
            assert loss == pytest.approx(match + CFG.lambda_rank * rank, rel=1e-12)

    def test_weighted_sum_arithmetic(self):
        # a match term of 1 and a rank term of 0.2 under weight 5 total 2
        assert 1.0 + CFG.lambda_rank * 0.2 == 2.0

    def test_rank_gradient_lands_on_matched_slots_only(self):
        rng = np.random.default_rng(11)
        preds = rng.uniform(0.1, 1.0, (4, 15))
        d = rng.uniform(0.4, 0.6, 4)
        # the matched pair (slots 2 then 0) violates the margin, so it gets gradient
        scr = np.array([0.3, 0.2, 0.9, 0.4])
        gts = preds[[2, 0]].copy()
        loss, _, _, grad_scr, assignment = total_predictor_loss(
            preds, d, scr, gts, np.array([1, 2]), CFG)
        unmatched = [j for j in range(4) if j not in assignment]
        assert list(assignment) == [2, 0]
        np.testing.assert_array_equal(grad_scr[unmatched], 0.0)
        assert np.any(grad_scr[list(assignment)] != 0.0)


class TestPredictor:
    def test_untrained_outputs_respect_ranges(self):
        rng = np.random.default_rng(12)
        predictor = StrokePredictor.create(rng)
        canvas = Canvas.white(32)
        preds = predict_strokes(predictor, canvas, canvas, patch_side=32)
        assert len(preds) == 8
        ranges = ParamRanges.for_canvas(32)
        for p in preds:
            assert np.all(p.params >= ranges.lo) and np.all(p.params <= ranges.hi)
            assert 0.0 < p.scr_r < 1.0
            assert 0.0 <= p.d <= 1.0
            assert 0.0 <= p.x_shift <= 1.0 and 0.0 <= p.y_shift <= 1.0

    def test_deterministic(self):
        predictor = small_predictor()
        _, target, _ = tiny_scene(0)
        first = predict_strokes(predictor, Canvas.white(8), target, patch_side=8)
        second = predict_strokes(predictor, Canvas.white(8), target, patch_side=8)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.params, b.params)
            assert a.scr_r == b.scr_r and a.d == b.d

    def test_patch_side_scales_spatial_dimensions(self):
        predictor = small_predictor()
        canvas = Canvas.white(8)
        at8 = predict_strokes(predictor, canvas, canvas, patch_side=8)
        at16 = predict_strokes(predictor, canvas, canvas, patch_side=16)
        spatial = [0, 1, 2, 3, 4, 5, 6, 7, 12]
        for a, b in zip(at8, at16):
            np.testing.assert_allclose(b.params[spatial], 2.0 * a.params[spatial])
            np.testing.assert_allclose(b.params[8:12], a.params[8:12])
            assert b.scr_r == a.scr_r and b.d == a.d

    def test_size_and_channel_mismatches_rejected(self):
        predictor = small_predictor()
        with pytest.raises(ConfigError):
            predict_strokes(predictor, Canvas.white(16), Canvas.white(8), patch_side=8)
        with pytest.raises(ConfigError):
            predict_strokes(predictor, Canvas.white(8), Canvas.white(16), patch_side=8)
        with pytest.raises(ConfigError):
            predict_strokes(predictor, Canvas.white(8, channels=1), Canvas.white(8, channels=1),
                            patch_side=8)

    def test_create_rejects_bad_architectures(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            StrokePredictor.create(rng, input_side=30)
        with pytest.raises(ConfigError):
            StrokePredictor.create(rng, canvas_channels=2)
        with pytest.raises(ConfigError):
            StrokePredictor.create(rng, max_strokes=0)

    def test_checkpoint_roundtrip(self, tmp_path):
        predictor = small_predictor()
        _, target, _ = tiny_scene(1)
        path = tmp_path / "predictor.ckpt"
        predictor.save(path)
        loaded = StrokePredictor.load(path)
        a = predict_strokes(predictor, Canvas.white(8), target, patch_side=8)
        b = predict_strokes(loaded, Canvas.white(8), target, patch_side=8)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.params, y.params)

    def test_load_rejects_other_checkpoints(self, tmp_path):
        denoiser = Denoiser.create(4, hidden=(8,), rng=np.random.default_rng(0))
        path = tmp_path / "other.ckpt"
        denoiser.save(path)
        with pytest.raises(ConfigError):
            StrokePredictor.load(path)

    def test_gradient_is_bit_equal_to_concatenated_tensor_gradients(self):
        rng = np.random.default_rng(14)
        for seed, side, max_strokes in [(3, 8, 3), (4, 8, 1), (5, 12, 2)]:
            predictor = small_predictor(seed, side, max_strokes)
            _, target, _ = tiny_scene(seed, side)
            x = predictor._stack(Canvas.white(side), target)
            _, cache = predictor._forward(x)
            grad_u = rng.standard_normal((max_strokes, 17))
            got = predictor._backward(grad_u, cache)
            assert got.tobytes() == concatenated_tensor_gradients(predictor, grad_u,
                                                                  cache).tobytes()

    def test_loss_gradient_matches_finite_differences(self):
        predictor = small_predictor()
        current, target, gts = tiny_scene(2)
        cfg = MatchConfig(max_strokes=3)
        loss, grad, _ = loss_and_grad(predictor, current, target, gts, cfg)
        assert np.isfinite(loss)
        rng = np.random.default_rng(13)
        h = 1e-6
        for i in rng.choice(predictor.params.size, 40, replace=False):
            orig = predictor.params[i]
            predictor.params[i] = orig + h
            up = loss_and_grad(predictor, current, target, gts, cfg)[0]
            predictor.params[i] = orig - h
            down = loss_and_grad(predictor, current, target, gts, cfg)[0]
            predictor.params[i] = orig
            fd = (up - down) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=max(1e-6, 1e-6 * abs(fd)))


class TestRealizeAndOrder:
    def test_realize_translates_by_shift_and_origin(self):
        params = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0,
                           10.0, 20.0, 30.0, 0.5, 2.0])
        pred = StrokePrediction(params=params, x_shift=0.75, y_shift=0.25, scr_r=0.5, d=1.0)
        stroke = realize_stroke(pred, 16.0, origin=(100.0, 200.0))
        np.testing.assert_allclose(stroke.vector[0:8:2], params[0:8:2] + 0.25 * 16.0 + 100.0)
        np.testing.assert_allclose(stroke.vector[1:8:2], params[1:8:2] - 0.25 * 16.0 + 200.0)
        np.testing.assert_array_equal(stroke.vector[8:], params[8:])
        with pytest.raises(ConfigError):
            realize_stroke(pred, 0.0)

    def test_centered_shifts_keep_the_stroke_in_place(self):
        params = np.arange(13.0) + 1.0
        pred = StrokePrediction(params=params, x_shift=0.5, y_shift=0.5, scr_r=0.5, d=1.0)
        np.testing.assert_array_equal(realize_stroke(pred, 32.0).vector, params)

    def test_order_filters_then_sorts_stably(self):
        def pred(scr, d):
            return StrokePrediction(params=np.ones(13), x_shift=0.5, y_shift=0.5,
                                    scr_r=scr, d=d)
        left = [pred(0.9, 1.0), pred(0.5, 1.0), pred(0.5, 0.2)]
        right = [pred(0.5, 0.8), pred(0.1, 1.0)]
        placed = (place_predictions(left, 8.0)
                  + place_predictions(right, 8.0, patch=(0, 1)))
        ordered = order_strokes(placed)
        expected = [right[1], left[1], right[0], left[0]]
        assert len(ordered) == len(expected)
        assert all(p.prediction is e for p, e in zip(ordered, expected))
        assert [p.patch_col for p in ordered] == [1, 0, 1, 0]
        assert all(p.prediction.d >= 0.5 for p in ordered)


class TestCompositing:
    @staticmethod
    def thin_stroke(x0, y0, x1, y1, color, opacity=1.0, width=3.0):
        pts = np.array([[x0, y0], [x0 + (x1 - x0) / 3, y0 + (y1 - y0) / 3],
                        [x0 + 2 * (x1 - x0) / 3, y0 + 2 * (y1 - y0) / 3], [x1, y1]])
        return BezierStroke(np.concatenate([pts.ravel(), color, [opacity, width]]))

    @classmethod
    def as_placed(cls, stroke, scr):
        centered = ground_truth_from_stroke(stroke.vector, 32.0, 1)
        pred = StrokePrediction(params=centered.params, x_shift=centered.x_shift,
                                y_shift=centered.y_shift, scr_r=scr, d=1.0)
        return place_predictions([pred], 32.0)[0]

    def test_disjoint_strokes_commute(self):
        a = self.thin_stroke(4.0, 4.0, 10.0, 4.0, [255, 0, 0])
        b = self.thin_stroke(4.0, 28.0, 10.0, 28.0, [0, 0, 255])
        ab, ba = Canvas.white(32), Canvas.white(32)
        first, second = self.as_placed(a, 0.2), self.as_placed(b, 0.8)
        # composite paints into the canvas it is given and returns the strokes in drawing order
        assert composite(ab, [first, second]) == [first, second]
        later, earlier = self.as_placed(a, 0.8), self.as_placed(b, 0.2)
        assert composite(ba, [later, earlier]) == [earlier, later]
        np.testing.assert_allclose(ab.pixels, ba.pixels, atol=1e-9)
        assert np.any(ab.pixels != Canvas.white(32).pixels)

    def test_overlapping_opaque_strokes_do_not_commute(self):
        a = self.thin_stroke(4.0, 16.0, 28.0, 16.0, [255, 0, 0], width=6.0)
        b = self.thin_stroke(16.0, 4.0, 16.0, 28.0, [0, 0, 255], width=6.0)
        ab, ba = Canvas.white(32), Canvas.white(32)
        composite(ab, [self.as_placed(a, 0.2), self.as_placed(b, 0.8)])
        composite(ba, [self.as_placed(a, 0.8), self.as_placed(b, 0.2)])
        assert np.max(np.abs(ab.pixels - ba.pixels)) > 0.1

    def test_presence_threshold_drops_strokes(self):
        a = self.thin_stroke(4.0, 16.0, 28.0, 16.0, [0, 0, 0], width=6.0)
        placed = self.as_placed(a, 0.5)
        weak = place_predictions([StrokePrediction(
            params=placed.prediction.params, x_shift=placed.prediction.x_shift,
            y_shift=placed.prediction.y_shift, scr_r=0.5, d=0.4)], 32.0)
        out = Canvas.white(32)
        assert composite(out, weak) == []
        np.testing.assert_array_equal(out.pixels, Canvas.white(32).pixels)

    def test_ground_truth_order_reproduces_the_target(self):
        _, target, gts = tiny_scene(21, side=16, count=3)
        placed = []
        for i, gt in enumerate(gts):
            pred = StrokePrediction(params=gt.params, x_shift=gt.x_shift,
                                    y_shift=gt.y_shift, scr_r=0.1 + 0.2 * i, d=1.0)
            placed.append(place_predictions([pred], 16.0)[0])
        out = Canvas.white(16)
        composite(out, placed)
        np.testing.assert_allclose(out.pixels, target.pixels, atol=1e-12)


class TestResizeAndPadding:
    def test_block_mean_downscale(self):
        pixels = np.zeros((4, 4, 1))
        pixels[:2, :2, 0] = 1.0
        pixels[2:, 2:, 0] = np.array([[0.2, 0.4], [0.6, 0.8]])
        down = resize_canvas(Canvas(pixels), 2)
        np.testing.assert_allclose(down.pixels[:, :, 0], [[1.0, 0.0], [0.0, 0.5]])

    def test_nearest_upscale_then_downscale_roundtrips(self):
        rng = np.random.default_rng(19)
        canvas = Canvas(rng.uniform(size=(16, 16, 3)))
        up = resize_canvas(canvas, 32)
        assert up.height == 32
        np.testing.assert_allclose(resize_canvas(up, 16).pixels, canvas.pixels, atol=1e-12)

    def test_identity_copy(self):
        canvas = Canvas(np.full((8, 8, 1), 0.3))
        out = resize_canvas(canvas, 8)
        assert out.pixels is not canvas.pixels
        np.testing.assert_array_equal(out.pixels, canvas.pixels)

    def test_rejects_impossible_ratios(self):
        with pytest.raises(ConfigError):
            resize_canvas(Canvas.white(20), 32)
        with pytest.raises(ConfigError):
            resize_canvas(Canvas(np.ones((8, 4, 1))), 4)

    def test_padded_side_hand_values(self):
        assert padded_side(64, 64, 2, 32) == 64
        assert padded_side(48, 48, 2, 32) == 64
        assert padded_side(295, 295, 2, 32) == 320
        assert padded_side(16, 16, 1, 32) == 16
        assert padded_side(20, 20, 1, 32) == 32

    def test_padded_side_always_resizable_at_every_layer(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            h, w = rng.integers(4, 200, 2)
            layers = int(rng.integers(1, 4))
            side = padded_side(int(h), int(w), layers, 32)
            assert side >= max(h, w)
            for k in range(layers):
                assert side % 2**k == 0
                patch = side // 2**k
                assert patch % 32 == 0 or 32 % patch == 0


class TestLayeredPaint:
    def test_single_layer_equals_one_predict_and_composite(self):
        predictor = StrokePredictor.create(np.random.default_rng(21))
        _, target, _ = make_scene(np.random.default_rng(22), 32, min_strokes=2, max_strokes=3)
        result = layered_paint(target, predictor, 1)
        preds = predict_strokes(predictor, Canvas.white(32), target, patch_side=32)
        manual = Canvas.white(32)
        kept = composite(manual, place_predictions(preds, 32.0))
        np.testing.assert_array_equal(result.final.pixels, manual.pixels)
        assert len(result.strokes) == len(kept)
        for painted, manual_stroke in zip(result.strokes, kept):
            np.testing.assert_array_equal(painted.stroke.vector, manual_stroke.stroke.vector)
            assert painted.prediction.scr_r == manual_stroke.prediction.scr_r
        assert len(result.intermediates) == 1
        assert padded_side(32, 32, 1, predictor.arch["input_side"]) == 32

    def test_two_layers_stay_within_the_stroke_budget(self):
        predictor = StrokePredictor.create(np.random.default_rng(23))
        rng = np.random.default_rng(24)
        _, target, _ = make_scene(rng, 32, min_strokes=2, max_strokes=4)
        big = Canvas(np.repeat(np.repeat(target.pixels, 2, axis=0), 2, axis=1))
        result = layered_paint(big, predictor, 2)
        assert len(result.strokes) <= 8 * (1 + 4)
        assert len(result.intermediates) == 2
        assert len(result.layer_mse) == 2
        assert result.final.height == 64
        layers = [s.layer for s in result.strokes]
        assert layers == sorted(layers)

    def test_padding_crops_back_to_the_target_shape(self):
        predictor = StrokePredictor.create(np.random.default_rng(25))
        target = Canvas(np.random.default_rng(26).uniform(size=(48, 40, 3)))
        before = target.pixels.copy()
        result = layered_paint(target, predictor, 2)
        np.testing.assert_array_equal(target.pixels, before)
        assert padded_side(48, 40, 2, predictor.arch["input_side"]) == 64
        assert result.final.height == 48 and result.final.width == 40

    def test_bad_inputs_rejected(self):
        predictor = StrokePredictor.create(np.random.default_rng(27))
        with pytest.raises(ConfigError):
            layered_paint(Canvas.white(32), predictor, 0)
        with pytest.raises(ConfigError):
            layered_paint(Canvas.white(32, channels=1), predictor, 1)


class TestSceneGeneration:
    def test_straight_stroke_centroid_is_the_midpoint(self):
        stroke = TestCompositing.thin_stroke(2.0, 4.0, 10.0, 12.0, [0, 0, 0])
        np.testing.assert_allclose(stroke_centroid(stroke.vector), [6.0, 8.0], atol=1e-12)

    def test_ground_truth_roundtrips_exactly(self):
        rng = np.random.default_rng(28)
        ranges = ParamRanges.for_canvas(32)
        for index in range(1, 21):
            stroke = generate_random_stroke(rng, ranges)
            gt = ground_truth_from_stroke(stroke.vector, 32.0, index)
            assert 0.0 <= gt.x_shift <= 1.0 and 0.0 <= gt.y_shift <= 1.0
            pred = StrokePrediction(params=gt.params, x_shift=gt.x_shift,
                                    y_shift=gt.y_shift, scr_r=0.5, d=1.0)
            np.testing.assert_allclose(realize_stroke(pred, 32.0).vector,
                                       stroke.vector, atol=1e-10)

    def test_clipped_shift_still_roundtrips(self):
        vector = np.array([40.0, 4.0, 44.0, 5.0, 48.0, 6.0, 52.0, 7.0,
                           0.0, 0.0, 0.0, 1.0, 2.0])
        gt = ground_truth_from_stroke(vector, 32.0, 1)
        assert gt.x_shift == 1.0
        pred = StrokePrediction(params=gt.params, x_shift=gt.x_shift,
                                y_shift=gt.y_shift, scr_r=0.5, d=1.0)
        np.testing.assert_allclose(realize_stroke(pred, 32.0).vector, vector, atol=1e-10)

    def test_scene_orders_by_centroid_and_rebuilds_the_target(self):
        current, target, gts = make_scene(np.random.default_rng(29), 32,
                                          min_strokes=3, max_strokes=5)
        np.testing.assert_array_equal(current.pixels, Canvas.white(32).pixels)
        assert [g.order_index for g in gts] == list(range(1, len(gts) + 1))
        keys = []
        rebuilt = Canvas.white(32)
        for gt in gts:
            pred = StrokePrediction(params=gt.params, x_shift=gt.x_shift,
                                    y_shift=gt.y_shift, scr_r=0.5, d=1.0)
            stroke = realize_stroke(pred, 32.0)
            keys.append(float(sum(stroke_centroid(stroke.vector))))
            rebuilt = compose_over(rebuilt, stroke)
        assert keys == sorted(keys)
        np.testing.assert_allclose(rebuilt.pixels, target.pixels, atol=1e-12)

    def test_scene_is_deterministic_per_seed(self):
        a = make_scene(np.random.default_rng(30), 32, min_strokes=2, max_strokes=4)
        b = make_scene(np.random.default_rng(30), 32, min_strokes=2, max_strokes=4)
        np.testing.assert_array_equal(a[1].pixels, b[1].pixels)
        assert len(a[2]) == len(b[2])

    @staticmethod
    def rasterizing_scene(rng, side, channels):
        """make_scene as it composited before: sort, then compose_over per stroke,
        which rasterizes each stroke's footprint window again."""
        count = int(rng.integers(1, 9))
        strokes = [generate_visible_stroke(rng, side, channels=channels, identifiable_iou=None)[0]
                   for _ in range(count)]
        strokes.sort(key=lambda s: float(sum(stroke_centroid(s.vector))))
        target = Canvas.white((side, side), channels)
        gts = []
        for index, stroke in enumerate(strokes, start=1):
            target = compose_over(target, stroke)
            gts.append(ground_truth_from_stroke(stroke.vector, side, index))
        return Canvas.white((side, side), channels), target, gts

    @pytest.mark.parametrize("channels", [1, 3])
    def test_scene_equals_compositing_by_rasterizing_again(self, channels):
        for seed in range(50):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            current, target, gts = make_scene(rng, 32, channels=channels)
            ref_current, ref_target, ref_gts = self.rasterizing_scene(reference_rng, 32, channels)
            np.testing.assert_array_equal(current.pixels, ref_current.pixels)
            np.testing.assert_array_equal(target.pixels, ref_target.pixels)
            assert len(gts) == len(ref_gts)
            for gt, ref in zip(gts, ref_gts):
                np.testing.assert_array_equal(gt.params, ref.params)
                assert (gt.x_shift, gt.y_shift, gt.order_index) == (
                    ref.x_shift, ref.y_shift, ref.order_index)
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigError):
            make_scene(np.random.default_rng(0), 32, min_strokes=3, max_strokes=2)
        with pytest.raises(ConfigError):
            make_scene(np.random.default_rng(0), 32, min_strokes=0, max_strokes=2)


class TestRankError:
    def test_hand_values(self):
        assert pairwise_rank_error([0.1, 0.2, 0.3], [1, 2, 3]) == 0.0
        assert pairwise_rank_error([0.3, 0.2, 0.1], [1, 2, 3]) == 1.0
        assert pairwise_rank_error([0.5, 0.5], [1, 2]) == 0.5
        assert pairwise_rank_error([0.2, 0.1, 0.3], [1, 2, 3]) == pytest.approx(1.0 / 3.0)

    def test_order_values_need_not_be_dense(self):
        assert pairwise_rank_error([0.1, 0.9], [3, 11]) == 0.0
        assert pairwise_rank_error([0.9, 0.1], [3, 11]) == 1.0

    def test_needs_two_strokes(self):
        with pytest.raises(ConfigError):
            pairwise_rank_error([0.5], [1])

    def test_equals_the_double_loop_bit_for_bit(self):
        rng = np.random.default_rng(15)
        for trial in range(600):
            n = int(rng.integers(2, 10))
            # coarse score grids tie often; repeated order values tie too
            scr = rng.choice([0.1, 0.25, 0.5, 0.75], n) if trial % 2 else rng.uniform(size=n)
            order = rng.permutation(n) + 1 if trial % 3 else rng.integers(1, 4, n)
            assert pairwise_rank_error(scr, order) == scalar_rank_error(scr, order)


class TestTraining:
    def test_fixed_scene_loss_halves(self):
        scene = tiny_scene(31, side=8, count=2)
        cfg = MatchConfig(max_strokes=3)
        rng = np.random.default_rng(32)
        predictor = small_predictor(seed=33)
        result = train_predictor(lambda r: scene, cfg, epochs=30, rng=rng,
                                 predictor=predictor, scenes_per_epoch=2,
                                 holdout_scenes=1, lr=3e-3)
        assert len(result.loss_history) == 30
        assert len(result.rank_error_history) == 30
        assert result.loss_history[-1] <= 0.5 * result.loss_history[0]
        assert all(0.0 <= e <= 1.0 for e in result.rank_error_history)

    def test_diverged_parameters_abort(self):
        predictor = small_predictor(seed=34)
        predictor.params[:] = np.nan
        scene = tiny_scene(35, side=8, count=0)
        cfg = MatchConfig(max_strokes=3)
        with pytest.raises(NumericalError):
            train_predictor(lambda r: scene, cfg, epochs=1,
                            rng=np.random.default_rng(0), predictor=predictor,
                            scenes_per_epoch=1, holdout_scenes=0)

    def test_bad_budgets_rejected(self):
        scene = tiny_scene(36, side=8, count=1)
        with pytest.raises(ConfigError):
            train_predictor(lambda r: scene, CFG, epochs=0, rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            train_predictor(lambda r: scene, CFG, epochs=1, rng=np.random.default_rng(0),
                            scenes_per_epoch=0)

    def test_creates_a_predictor_matched_to_the_scenes(self):
        source = functools.partial(make_scene, side=32, min_strokes=1, max_strokes=2)
        result = train_predictor(source, MatchConfig(max_strokes=4), epochs=1,
                                 rng=np.random.default_rng(37), scenes_per_epoch=1,
                                 holdout_scenes=0)
        assert result.predictor.arch["input_side"] == 32
        assert result.predictor.arch["max_strokes"] == 4

    def test_explicit_holdout_bypasses_the_generator(self):
        train = tiny_scene(38, side=8, count=1)
        held = tiny_scene(39, side=8, count=3)
        calls = []

        def source(r):
            calls.append(1)
            return train

        cfg = MatchConfig(max_strokes=3)
        result = train_predictor(source, cfg, epochs=2, rng=np.random.default_rng(40),
                                 predictor=small_predictor(seed=41),
                                 scenes_per_epoch=2, holdout_scenes=5, holdout=[held])
        # only the training draws hit the generator
        assert len(calls) == 4
        _, _, assignment = loss_and_grad(result.predictor, held[0], held[1],
                                         held[2], cfg)
        scr = np.array([p.scr_r for p in
                        predict_strokes(result.predictor, held[0], held[1], patch_side=8)])
        order = np.array([g.order_index for g in held[2]])
        expected = pairwise_rank_error(scr[assignment], order)
        assert result.rank_error_history[-1] == pytest.approx(expected)

    def test_holdout_without_a_pair_to_rank_is_nan(self):
        from strokecraft.painting.training import _holdout_rank_error

        scenes = [tiny_scene(50, side=8, count=1), tiny_scene(51, side=8, count=0)]
        assert np.isnan(_holdout_rank_error(small_predictor(), scenes, MatchConfig(max_strokes=3)))
        assert np.isnan(_holdout_rank_error(small_predictor(), [], MatchConfig(max_strokes=3)))

    def test_holdout_rank_error_equals_a_transcription_through_the_loss(self):
        from strokecraft.painting.predictor import forward_assignment
        from strokecraft.painting.training import _holdout_rank_error

        cfg = MatchConfig(max_strokes=5)
        predictor = small_predictor(seed=44, side=16, max_strokes=5)
        rng = np.random.default_rng(45)
        scenes = [make_scene(rng, 16, max_strokes=5) for _ in range(8)]
        scenes.append(make_scene(rng, 16, max_strokes=1))  # skipped: one stroke
        errors = []
        for current, target, gts in scenes:
            if len(gts) < 2:
                continue
            u, _ = predictor._forward(predictor._stack(current, target))
            _, _, assignment = loss_and_grad(predictor, current, target, gts, cfg)
            alone = forward_assignment(predictor, current, target, gts, cfg)
            np.testing.assert_array_equal(alone[0], u)
            np.testing.assert_array_equal(alone[1], assignment)
            order = np.array([g.order_index for g in gts])
            errors.append(pairwise_rank_error(u[:, PARAM_COUNT + 2][assignment], order))
        assert len(errors) == 8 and len(set(errors)) > 1
        assert _holdout_rank_error(predictor, scenes, cfg) == float(np.mean(errors))

    def test_holdout_rank_error_equals_the_two_call_computation(self):
        """One forward per scene gives the same bits as loss_and_grad plus predict_strokes."""
        from strokecraft.painting.training import _holdout_rank_error

        cfg = MatchConfig(max_strokes=4)
        predictor = small_predictor(seed=42, max_strokes=4)
        scenes = [tiny_scene(43 + k, side=8, count=2 + k % 3) for k in range(6)]
        scenes.append(tiny_scene(49, side=8, count=1))  # skipped: one stroke
        errors = []
        for current, target, gts in scenes:
            if len(gts) < 2:
                continue
            loss, _, assignment = loss_and_grad(predictor, current, target, gts, cfg)
            scr = np.array([p.scr_r for p in predict_strokes(predictor, current, target,
                                                          patch_side=8)])
            order = np.array([g.order_index for g in gts])
            errors.append(pairwise_rank_error(scr[assignment], order))
            u, _ = predictor._forward(predictor._stack(current, target))
            again, _, same = loss_and_grad(predictor, current, target, gts, cfg)
            np.testing.assert_array_equal(same, assignment)
            assert again == loss
            assert pairwise_rank_error(u[:, PARAM_COUNT + 2][assignment], order) == errors[-1]
        assert len(errors) == 6 and len(set(errors)) > 1
        assert _holdout_rank_error(predictor, scenes, cfg) == float(np.mean(errors))
