"""Binary pixmap reading and writing."""

import numpy as np
import pytest

from strokecraft.errors import ConfigError, DataIOError
from strokecraft.pixmap import quantize, read_pixmap, write_pixmap
from strokecraft.strokes.canvas import Canvas


class TestQuantize:
    def test_hand_values(self):
        got = quantize(np.array([0.0, 1.0, 0.5, 2.0 / 255.0]))
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, [0, 255, 128, 2])

    def test_saturates_out_of_range(self):
        np.testing.assert_array_equal(quantize(np.array([-0.5, 1.5])), [0, 255])


class TestWrite:
    def test_color_bytes_are_canonical(self, tmp_path):
        pixels = np.zeros((1, 2, 3))
        pixels[0, 0] = [1.0, 0.0, 0.0]
        pixels[0, 1] = [0.0, 1.0, 1.0]
        path = tmp_path / "tiny.ppm"
        write_pixmap(path, Canvas(pixels))
        assert path.read_bytes() == b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 255])

    def test_gray_bytes_are_canonical(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        write_pixmap(path, Canvas(np.array([[0.0, 1.0]])[..., None]))
        assert path.read_bytes() == b"P5\n2 1\n255\n" + bytes([0, 255])

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(DataIOError):
            write_pixmap(tmp_path / "no" / "dir.pgm", Canvas(np.ones((1, 1))[..., None]))

    def test_canvas_takes_three_axes_only(self):
        assert Canvas(np.ones((1, 2, 1))).channels == 1
        for shape in ((1, 2), (1, 2, 2), (1, 2, 1, 1)):
            with pytest.raises(ConfigError):
                Canvas(np.ones(shape))


class TestRead:
    def test_roundtrip_is_exact_after_quantization(self, tmp_path):
        rng = np.random.default_rng(1)
        canvas = Canvas(rng.uniform(size=(5, 7, 3)))
        path = tmp_path / "img.ppm"
        write_pixmap(path, canvas)
        back = read_pixmap(path)
        np.testing.assert_array_equal(quantize(back.pixels), quantize(canvas.pixels))

    def test_write_read_write_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(2)
        first = tmp_path / "a.pgm"
        second = tmp_path / "b.pgm"
        write_pixmap(first, Canvas(rng.uniform(size=(4, 4, 1))))
        write_pixmap(second, read_pixmap(first))
        assert first.read_bytes() == second.read_bytes()

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "commented.pgm"
        path.write_bytes(b"P5 # magic\n# a comment line\n 2\n\t1 \n255\n" + bytes([7, 9]))
        got = read_pixmap(path)
        assert (got.height, got.width, got.channels) == (1, 2, 1)
        np.testing.assert_allclose(got.pixels[0, :, 0], [7 / 255, 9 / 255])

    def test_smaller_maxval_scales(self, tmp_path):
        path = tmp_path / "maxval.pgm"
        path.write_bytes(b"P5\n1 1\n100\n" + bytes([50]))
        assert read_pixmap(path).pixels[0, 0, 0] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "blob",
        [
            b"P7\n1 1\n255\nx",                      # unknown magic
            b"P5\n1 1\n255",                          # header never ends
            b"P5\n1 one\n255\n\x00",                  # non-numeric field
            b"P5\n2 2\n255\n\x00\x00\x00",            # truncated raster
            b"P5\n1 1\n255\n\x00\x00",                # trailing bytes
            b"P5\n0 1\n255\n",                        # empty image
            b"P5\n1 1\n999\n\x00",                    # unsupported maxval
            b"P5\n" + b"9" * 5000 + b" 1\n255\n\x00",  # field past int's digit limit
        ],
    )
    def test_malformed_files_are_rejected(self, tmp_path, blob):
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob)
        with pytest.raises(DataIOError):
            read_pixmap(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataIOError):
            read_pixmap(tmp_path / "absent.pgm")
