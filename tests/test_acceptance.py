"""Acceptance gates: one numbered test per release criterion.

Every gate checks a claim about the package against an independent route:
closed forms against Monte Carlo, vectorized losses against scalar
transcriptions, optimized assignment against permutation brute force,
analytic gradients against central finite differences, and desk-scale
training runs against pinned behavioral thresholds.  Budgets and tolerances
are asserted, not just observed; each test prints one summary line.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from strokecraft.diffusion import (
    Denoiser,
    NoiseSchedule,
    SmrConfig,
    ancestral_sample,
    build_schedule,
    ddpm_forward_sample,
    ddpm_posterior_mean_simplified,
    ddpm_posterior_moments,
    smr_forward_sample,
    smr_marginal_moments,
    smr_posterior_moments,
    smr_transition_moments,
    snr_trajectory,
    recover_x0,
    train_diffusion,
)
from strokecraft.metrics import alpha_iou, connected_regions
from strokecraft.painting import (
    MatchConfig,
    hungarian_assignment,
    make_scene,
    ranking_loss,
    total_predictor_loss,
    train_predictor,
)
from strokecraft.strokes import fit_stroke, generate_visible_stroke, rasterize_stroke


def _gate(num: int, ok: bool, detail: str) -> None:
    line = f"[{num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b) / scale))


@pytest.fixture(scope="module")
def long_schedule() -> NoiseSchedule:
    return build_schedule(1000)


def test_01_zero_prior_strength_collapses_to_the_standard_posterior(long_schedule):
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    err = 0.0
    for t in range(1, long_schedule.num_steps):
        x_t = rng.standard_normal(4)
        x0 = rng.standard_normal(4)
        x_s = rng.standard_normal(4)
        got = smr_posterior_moments(x_t, x0, x_s, t, 0.0, long_schedule)
        ref = ddpm_posterior_moments(x_t, x0, t, long_schedule)
        err = max(err, _rel(got.mean, ref.mean), _rel(got.variance, ref.variance))
    elapsed = time.perf_counter() - start
    _gate(1, err <= 1e-9 and elapsed < 1.0,
          f"eta=0 posterior collapse: max rel err {err:.3e} (tol 1e-9), {elapsed:.2f}s (<1s)")


def test_02_posterior_denominator_matches_the_closed_form(long_schedule):
    start = time.perf_counter()
    err = 0.0
    zeros = np.zeros(1)
    for t in range(1, 1000, 50):
        alpha = long_schedule.alphas[t]
        ab = long_schedule.alpha_bars[t]
        for eta in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            s1 = smr_transition_moments(zeros, zeros, t, eta, long_schedule).variance
            s2 = smr_marginal_moments(zeros, zeros, t - 1, eta, long_schedule).variance
            closed = 1.0 - ab + (1.0 + 2.0 * alpha - 3.0 * ab) * eta
            err = max(err, _rel(alpha * s2 + s1, closed))
    elapsed = time.perf_counter() - start
    _gate(2, err <= 1e-12 and elapsed < 1.0,
          f"denominator closed form: max rel err {err:.3e} (tol 1e-12), {elapsed:.2f}s (<1s)")


def test_03_forward_marginal_moments_hold_by_monte_carlo():
    # one-step schedule pins the cumulative signal level at exactly one half
    half = NoiseSchedule(mode="linear", betas=np.array([0.5]),
                         alphas=np.array([0.5]), alpha_bars=np.array([0.5]))
    rng = np.random.default_rng(30)
    start = time.perf_counter()
    n = 1_000_000
    draw = smr_forward_sample(np.ones(n), np.full(n, 2.0), 0, 0.25, half, rng=rng)
    mean_err = abs(float(np.mean(draw.x_t)) - 1.41421)
    mean_tol = 4.0 / math.sqrt(n) * math.sqrt(0.625)
    var_err = abs(float(np.var(draw.x_t)) - 0.625)
    var_tol = 0.01 * 0.625
    elapsed = time.perf_counter() - start
    _gate(3, mean_err <= mean_tol and var_err <= var_tol and elapsed < 10.0,
          f"marginal MC (1e6 draws): mean err {mean_err:.2e} (tol {mean_tol:.2e}), "
          f"var err {var_err:.2e} (tol {var_tol:.2e}), {elapsed:.2f}s (<10s)")


def test_04_noise_form_posterior_mean_equals_the_x0_form(long_schedule):
    rng = np.random.default_rng(4)
    err = 0.0
    for t in range(1, long_schedule.num_steps):
        x0 = rng.standard_normal(4)
        eps = rng.standard_normal(4)
        x_t = ddpm_forward_sample(x0, t, long_schedule, eps)
        simp = ddpm_posterior_mean_simplified(x_t, eps, t, long_schedule)
        full = ddpm_posterior_moments(x_t, x0, t, long_schedule).mean
        err = max(err, _rel(simp, full))
    _gate(4, err <= 1e-9, f"noise-form posterior mean: max rel err {err:.3e} (tol 1e-9)")


def test_05_clean_image_recovery_inverts_forward_draws(long_schedule):
    rng = np.random.default_rng(5)
    err = 0.0
    for _ in range(100):
        t = int(rng.integers(0, long_schedule.num_steps))
        eta = float(rng.uniform(0.0, 0.5))
        x0 = rng.standard_normal(6)
        x_s = rng.standard_normal(6)
        draw = smr_forward_sample(x0, x_s, t, eta, long_schedule, rng=rng)
        rec = recover_x0(draw.x_t, draw.tau, t, long_schedule)
        err = max(err, float(np.max(np.abs(rec - x0))))
    _gate(5, err <= 1e-10, f"x0 round trip (100 draws): max abs err {err:.3e} (tol 1e-10)")


def _scalar_rank_loss(scr, order, margin: float) -> float:
    """Pairwise hinge written as plain scalar loops, one term per ordered pair."""
    n = len(scr)
    total = 0.0
    for i in range(n):
        for j in range(n):
            dif_pred = scr[i] - scr[j]
            dif_gt = order[i] - order[j]
            if dif_gt < 0:
                total += max(0.0, dif_pred - dif_gt * margin)
    return total / math.comb(n, 2)


def test_06_ranking_loss_agrees_with_a_scalar_transcription():
    rng = np.random.default_rng(60)
    agree = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        scr = rng.uniform(size=n)
        order = rng.permutation(n) + 1
        agree += ranking_loss(scr, order, 0.125)[0] == _scalar_rank_loss(scr, order, 0.125)
    hand_one = float(ranking_loss([0.5, 0.3], [1, 2], 0.125)[0])
    hand_two = float(ranking_loss([0.1, 0.3, 0.5], [1, 2, 3], 0.125)[0])
    _gate(6, agree == 1000 and hand_one == 0.325 and hand_two == 0.0,
          f"ranking loss vs scalar transcription: {agree}/1000 bit-exact, "
          f"hand values {hand_one!r} and {hand_two!r}")


def test_07_assignment_matches_permutation_brute_force():
    rng = np.random.default_rng(70)
    agree = 0
    for size in (6, 7):
        perms = np.array(list(itertools.permutations(range(size))))
        rows = np.arange(size)
        for _ in range(1000):
            cost = rng.uniform(size=(size, size))
            r, c = hungarian_assignment(cost)
            agree += float(cost[r, c].sum()) == float(cost[rows, perms].sum(axis=1).min())
    _gate(7, agree == 2000, f"optimal assignment cost vs brute force: {agree}/2000 exact")


def test_08_training_loss_gradients_match_finite_differences():
    schedule = build_schedule(32)
    rng = np.random.default_rng(81)

    worst_tau = 0.0
    for _ in range(20):
        dim = int(rng.integers(3, 7))
        denoiser = Denoiser.create(dim, hidden=(8, 8), rng=rng)
        draws = [
            smr_forward_sample(rng.standard_normal(dim), rng.standard_normal(dim),
                               int(rng.integers(0, 32)), float(rng.uniform(0.0, 0.5)),
                               schedule, rng=rng)
            for _ in range(4)
        ]
        batch = (np.stack([d.x_t for d in draws]), np.array([d.t for d in draws], dtype=np.float64),
                 np.stack([d.tau for d in draws]))
        _, grad = denoiser.loss_and_grad(*batch)
        h = 1e-5
        for k in rng.choice(denoiser.params.size, size=25, replace=False):
            saved = denoiser.params[k]
            denoiser.params[k] = saved + h
            up, _ = denoiser.loss_and_grad(*batch)
            denoiser.params[k] = saved - h
            down, _ = denoiser.loss_and_grad(*batch)
            denoiser.params[k] = saved
            fd = (up - down) / (2.0 * h)
            worst_tau = max(worst_tau, abs(fd - grad[k]) / max(abs(fd), abs(grad[k]), 1e-8))

    cfg = MatchConfig()
    rng = np.random.default_rng(80)
    worst_pred = 0.0
    for _ in range(20):
        n_pred = int(rng.integers(2, 6))
        n_gt = int(rng.integers(1, min(n_pred, 4) + 1))
        pred_p = rng.uniform(-1.0, 2.0, size=(n_pred, 15))
        pred_d = rng.uniform(-3.0, 3.0, size=n_pred)
        pred_scr = rng.uniform(-1.0, 2.0, size=n_pred)
        gt_p = rng.uniform(0.0, 1.0, size=(n_gt, 15))
        gt_order = rng.permutation(n_gt) + 1
        _, gp, gd, gs, _ = total_predictor_loss(pred_p, pred_d, pred_scr, gt_p, gt_order, cfg)
        h = 1e-6
        for arr, grad in ((pred_p, gp), (pred_d, gd), (pred_scr, gs)):
            flat = arr.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            for k in range(flat.size):
                saved = flat[k]
                flat[k] = saved + h
                up = total_predictor_loss(pred_p, pred_d, pred_scr, gt_p, gt_order, cfg)[0]
                flat[k] = saved - h
                down = total_predictor_loss(pred_p, pred_d, pred_scr, gt_p, gt_order, cfg)[0]
                flat[k] = saved
                fd = (up - down) / (2.0 * h)
                worst_pred = max(worst_pred, abs(fd - gflat[k]) / max(abs(fd), abs(gflat[k]), 1e-8))

    _gate(8, worst_tau <= 1e-4 and worst_pred <= 1e-4,
          f"gradient checks (20 instances each): denoising loss rel {worst_tau:.2e}, "
          f"predictor loss rel {worst_pred:.2e} (tol 1e-4)")


def test_09_fitting_recovers_rendered_strokes():
    start = time.perf_counter()
    passes = 0
    for seed in range(50):
        rng = np.random.default_rng(900 + seed)
        _, canvas, alpha = generate_visible_stroke(rng, 32)
        result = fit_stroke(canvas)
        passes += alpha_iou(alpha, rasterize_stroke(result.stroke, 32)[1]) >= 0.85
    elapsed = time.perf_counter() - start
    _gate(9, passes >= 40 and elapsed < 120.0,
          f"render-then-fit: {passes}/50 trials at IoU >= 0.85 (need 40), {elapsed:.0f}s (<120s)")


def _flood_fill_regions(mask: np.ndarray) -> int:
    """Region count by literal stack-based flood fill, 8-connected."""
    mask = mask.copy()
    h, w = mask.shape
    count = 0
    for r in range(h):
        for c in range(w):
            if not mask[r, c]:
                continue
            count += 1
            mask[r, c] = False
            stack = [(r, c)]
            while stack:
                y, x = stack.pop()
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy, xx = y + dy, x + dx
                        if 0 <= yy < h and 0 <= xx < w and mask[yy, xx]:
                            mask[yy, xx] = False
                            stack.append((yy, xx))
    return count


def test_10_region_counting_matches_flood_fill_and_single_strokes():
    rng = np.random.default_rng(100)
    agree = 0
    for _ in range(500):
        height = int(rng.integers(5, 15))
        width = int(rng.integers(5, 15))
        mask = rng.uniform(size=(height, width)) < rng.uniform(0.1, 0.7)
        # white ring pins the inferred background, so the gate is about labeling
        mask[0, :] = mask[-1, :] = False
        mask[:, 0] = mask[:, -1] = False
        image = np.where(mask, 0.0, 1.0)
        agree += connected_regions(image, 0.5).region_count == _flood_fill_regions(mask)
    singles = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        _, canvas, _ = generate_visible_stroke(rng, 24)
        singles += connected_regions(canvas.pixels).region_count == 1
    _gate(10, agree == 500 and singles == 100,
          f"region counts: {agree}/500 match flood fill, {singles}/100 strokes single-region")


def test_11_ranking_term_separates_holdout_rank_error():
    side, pool_size, holdout_size, epochs, per_epoch = 32, 384, 96, 200, 16
    start = time.perf_counter()
    scene_rng = np.random.default_rng(37)
    pool = [make_scene(scene_rng, side, min_strokes=2, max_strokes=5)
            for _ in range(pool_size)]
    holdout = [make_scene(scene_rng, side, min_strokes=2, max_strokes=5)
               for _ in range(holdout_size)]

    def generator(r: np.random.Generator):
        return pool[int(r.integers(len(pool)))]

    final = {}
    for weight in (5.0, 0.0):
        cfg = MatchConfig(max_strokes=6, lambda_rank=weight)
        # both runs see identical data, init, and draws; only the loss weight moves
        out = train_predictor(generator, cfg, epochs, np.random.default_rng(38),
                              scenes_per_epoch=per_epoch, holdout=holdout, lr=1e-3)
        final[weight] = float(np.mean(out.rank_error_history[-10:]))
    elapsed = time.perf_counter() - start
    _gate(11, final[5.0] < final[0.0] and 0.45 <= final[0.0] <= 0.55 and elapsed < 600.0,
          f"rank-term ablation: with term {final[5.0]:.3f} < without {final[0.0]:.3f} "
          f"(chance band 0.45..0.55), {elapsed:.0f}s (<600s)")


def test_12_stroke_dataset_training_halves_the_denoising_loss():
    start = time.perf_counter()
    data_rng = np.random.default_rng(12)
    dataset = np.stack([
        generate_visible_stroke(data_rng, 16, channels=1)[1].pixels.reshape(-1) * 2.0 - 1.0
        for _ in range(256)
    ])
    schedule = build_schedule(64)
    config = SmrConfig(upsilon=0.5, prior_pairs=8)
    result = train_diffusion(dataset, schedule, config, epochs=60,
                             rng=np.random.default_rng(3), hidden=(256, 256), lr=2e-3)
    history = np.asarray(result.loss_history)
    first = float(history[:3].mean())
    last = float(history[-3:].mean())
    one = ancestral_sample(result.denoiser, schedule, 8, 256, np.random.default_rng(77))
    two = ancestral_sample(result.denoiser, schedule, 8, 256, np.random.default_rng(77))
    span = float(np.max(np.abs(one)))
    elapsed = time.perf_counter() - start
    ok = (last <= 0.5 * first and np.array_equal(one, two)
          and bool(np.all(np.isfinite(one))) and span <= 3.0 and elapsed < 900.0)
    _gate(12, ok,
          f"desk-scale training: smoothed loss {first:.3f} -> {last:.3f} "
          f"(ratio {last / first:.2f} <= 0.5), samples bit-identical, "
          f"|x| <= {span:.2f} (<3), {elapsed:.0f}s (<900s)")


def test_13_prior_strength_raises_the_signal_to_noise_ratio(long_schedule):
    baseline = np.sqrt(snr_trajectory(long_schedule, 0.0))
    ok = bool(np.all(long_schedule.alpha_bars < 1.0))
    smallest = np.inf
    for eta_eff in (0.05, 0.25, 0.5):
        lifted = np.sqrt(snr_trajectory(long_schedule, eta_eff))
        gaps = lifted - baseline
        smallest = min(smallest, float(gaps.min()))
        ok = ok and bool(np.all(gaps > 0.0))
    _gate(13, ok, f"sqrt SNR uplift strictly positive at every step: min gap {smallest:.3e}")
