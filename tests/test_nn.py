"""Shared flat-parameter layout: init, views and the checkpoint loader."""

import numpy as np
import pytest

from strokecraft import nn
from strokecraft.diffusion import Denoiser
from strokecraft.errors import ConfigError
from strokecraft.painting import StrokePredictor


def glorot(rng, fan_in, fan_out, size):
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size)


class TestInit:
    def test_denoiser_matches_a_per_tensor_transcription(self):
        # data 4 + time 6 -> 5 -> 3 -> 4
        rng = np.random.default_rng(11)
        expected = np.concatenate([
            glorot(rng, 10, 5, 50), np.zeros(5),
            glorot(rng, 5, 3, 15), np.zeros(3),
            glorot(rng, 3, 4, 12), np.zeros(4),
        ])
        net = Denoiser.create(4, hidden=(5, 3), time_dim=6, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(net.params, expected)

    def test_predictor_matches_a_per_tensor_transcription(self):
        # 3-channel 8x8 pairs, conv 4 and 6 channels, hidden 16, 2 slots of 17
        rng = np.random.default_rng(12)
        expected = np.concatenate([
            glorot(rng, 6 * 9, 4 * 9, 4 * 6 * 9), np.zeros(4),
            glorot(rng, 4 * 9, 6 * 9, 6 * 4 * 9), np.zeros(6),
            glorot(rng, 6 * 2 * 2, 16, 24 * 16), np.zeros(16),
            glorot(rng, 16, 34, 16 * 34), np.zeros(34),
        ])
        predictor = StrokePredictor.create(np.random.default_rng(12), input_side=8,
                                           conv_channels=(4, 6), fc_hidden=16, max_strokes=2)
        np.testing.assert_array_equal(predictor.params, expected)


class TestViews:
    def test_views_tile_the_vector_in_order(self):
        shapes = [(2, 3, 1, 1), (2,), (3, 4), (4,)]
        params = np.arange(6 + 2 + 12 + 4, dtype=np.float64)
        views = nn.param_views(params, shapes)
        assert [v.shape for v in views] == shapes
        np.testing.assert_array_equal(np.concatenate([v.ravel() for v in views]), params)
        views[2][0, 0] = -1.0
        assert params[8] == -1.0


class TestLoadModel:
    def test_weight_count_must_match(self, tmp_path):
        predictor = StrokePredictor.create(np.random.default_rng(0), input_side=8,
                                           conv_channels=(4, 6), fc_hidden=16, max_strokes=2)
        nn.save_checkpoint(tmp_path / "p.ckpt", predictor.arch, predictor.params[:-1])
        with pytest.raises(ConfigError):
            StrokePredictor.load(tmp_path / "p.ckpt")
