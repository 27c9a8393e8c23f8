import io
import tracemalloc

import numpy as np
import pytest

from densigraph.pgmio import decode_image, read_p5, to_grayscale, write_p5

from test_cli import random_frames, removed_rows, run_ok, store_city

# headers that pgm(5) does not allow, each followed by a raster it could name
MALFORMED = {
    "no-space-after-magic": b"P56 4 255\n" + bytes(24),
    "underscore-in-width": b"P5 2_0 1 255\n" + bytes(20),
    "plus-sign-on-width": b"P5 +2 1 255\n" + bytes(2),
}
REFUSED = {
    **MALFORMED,
    "magic-only": b"P5",
    "width-only": b"P5 4",
    "no-maxval": b"P5 4 3",
    "no-byte-after-maxval": b"P5 4 3 255",
    "open-comment": b"P5 4 3 # comment without end",
    "maxval-65535": b"P5 2 1 65535\n" + bytes(4),
    "width-0": b"P5 0 1 255\n",
    "short-raster": write_p5(np.zeros((3, 4), dtype=np.uint8))[:-1],
}


class TestReadP5:
    def test_round_trip(self):
        img = random_frames(3, 1, shape=(5, 7))[0]
        np.testing.assert_array_equal(read_p5(write_p5(img)), img)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_write_copies_the_raster_once(self, order):
        img = np.asarray(random_frames(6, 1, shape=(1080, 1920))[0], order=order)
        expected = b"P5\n1920 1080\n255\n" + img.tobytes(order="C")
        tracemalloc.start()
        try:
            data = write_p5(img)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data == expected
        # the output, plus the C-order copy a Fortran-order frame needs
        assert peak < (1.1 if order == "C" else 2.1) * img.size, f"peak {peak / img.size:.2f} rasters"

    def test_bytes_after_the_raster_are_ignored(self):
        img = random_frames(5, 1, shape=(3, 4))[0]
        np.testing.assert_array_equal(read_p5(write_p5(img) + b"\x00trailing"), img)

    def test_comment_lines_between_tokens(self):
        img = random_frames(4, 1, shape=(3, 4))[0]
        data = write_p5(img).replace(b"P5\n", b"P5\n# made by\n#\n", 1)
        data = data.replace(b"4 3\n", b"4\r\n# height next\n 3 # ends at a CR\r", 1)
        assert data.startswith(b"P5\n# made by\n#\n4\r\n# height next\n 3 # ends at a CR\r255\n")
        np.testing.assert_array_equal(read_p5(data), img)

    def test_comment_right_after_a_token(self):
        np.testing.assert_array_equal(read_p5(b"P5 2#c\n 1 255\n\x07\x09"), [[7, 9]])

    @pytest.mark.parametrize("data", REFUSED.values(), ids=REFUSED.keys())
    def test_refused(self, data):
        with pytest.raises(ValueError):
            read_p5(data)
        assert decode_image(data) is None

    def test_clean_calls_malformed_headers_decode_errors(self, tmp_path):
        root = tmp_path / "data"
        good = [write_p5(a) for a in random_frames(6, 2)]
        store_city(root, {"cam1": good[:1] + list(MALFORMED.values()) + good[1:]})
        run_ok("--set", f"data_root={root}", "clean", "--city", "testcity")
        reasons = [row.split(",")[1] for row in removed_rows(root)]
        assert reasons == ["DecodeError"] * len(MALFORMED)


class TestPillowDecode:
    """Other formats than P5 decode through Pillow, the optional ``images``
    extra; without it these tests skip."""

    @staticmethod
    def png(pixels):
        """PNG bytes of a uint8 array: mode L for 2-D, RGB for 3 channels."""
        Image = pytest.importorskip("PIL.Image")
        out = io.BytesIO()
        Image.fromarray(pixels).save(out, "PNG")
        return out.getvalue()

    def test_rgb_png_is_the_luma_of_its_channels(self):
        rgb = np.random.default_rng(7).integers(0, 256, (5, 6, 3), dtype=np.uint8)
        decoded = decode_image(self.png(rgb))
        np.testing.assert_array_equal(decoded, to_grayscale(rgb[..., 0], rgb[..., 1], rgb[..., 2]))

    def test_gray_png_is_its_own_pixels(self):
        gray = random_frames(8, 1, shape=(5, 6))[0]
        np.testing.assert_array_equal(decode_image(self.png(gray)), gray)

    def test_bytes_pillow_cannot_open_are_undecodable(self):
        truncated = self.png(random_frames(9, 1, shape=(5, 6))[0])[:20]
        assert decode_image(truncated) is None
        assert decode_image(b"\xff\xd8 not a JPEG") is None
