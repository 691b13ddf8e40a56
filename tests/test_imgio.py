import sys

import numpy as np
import pytest

from convdeblur.imgio import (load_image, load_kernel_txt, read_pgm,
                              save_image, save_kernel_image, save_kernel_txt,
                              write_pgm)
from convdeblur.synth import make_kernel, make_test_image


class TestPgm:
    def test_binary_round_trip(self, tmp_path):
        data = (np.arange(48) % 256).astype(np.uint8).reshape(6, 8)
        p = tmp_path / "a.pgm"
        write_pgm(p, data)
        back = read_pgm(p)
        assert back.shape == (6, 8)
        assert np.allclose(back * 255.0, data)

    def test_ascii_round_trip(self, tmp_path):
        # write_pgm writes P5 only; the P2 file is written by hand
        data = np.array([[0, 128], [255, 1]], dtype=np.uint8)
        p = tmp_path / "a.pgm"
        p.write_text("P2\n2 2\n255\n"
                     + "".join(" ".join(map(str, row)) + "\n" for row in data))
        assert np.allclose(read_pgm(p) * 255.0, data)

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P2\n# a comment\n2 2\n255\n0 255\n128 64\n")
        img = read_pgm(p)
        assert np.allclose(img * 255.0, [[0, 255], [128, 64]])

    def test_16bit_binary(self, tmp_path):
        p = tmp_path / "w.pgm"
        payload = np.array([[0, 65535]], dtype=">u2")
        p.write_bytes(b"P5\n2 1\n65535\n" + payload.tobytes())
        assert np.allclose(read_pgm(p), [[0.0, 1.0]])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "b.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError):
            read_pgm(p)

    @pytest.mark.parametrize("data, problem", [
        (b"P5\n4 ", "no P2 or P5 header"),
        (b"P5\n2 2\n255", "no P2 or P5 header"),
        (b"P2\n# comment without its newline", "no P2 or P5 header"),
        (b"P5\n4 4\n255\n\x01\x02", "2 pixels, not width x height = 16"),
        (b"P5\n2 1\n65535\n\x00\x01\x02", "buffer size"),
        (b"P2\n2 2\n255\n1 2 3\n", "3 pixels, not width x height = 4"),
        (b"P2\n1 1\n255\nx\n", "could not convert"),
        (b"P5\n1 1\n0\n\x00", "maxval 0 is not in 1..65535"),
        (b"P5\n1 1\n70000\n\x00\x00", "maxval 70000 is not in 1..65535"),
    ], ids=["truncated-header", "no-raster-separator", "open-comment",
            "short-p5", "odd-16bit-raster", "few-p2", "not-a-number",
            "maxval-0", "maxval-70000"])
    def test_malformed_file_is_named(self, tmp_path, data, problem):
        p = tmp_path / "m.pgm"
        p.write_bytes(data)
        with pytest.raises(ValueError) as err:
            read_pgm(p)
        assert str(err.value).startswith(f"malformed PGM file {p!r}: ")
        assert problem in str(err.value)

    def test_header_grammar(self, tmp_path):
        # comment lines may sit between any two header fields; one
        # whitespace byte, here a space, ends the header, and a P5 raster
        # may start with a whitespace byte of its own
        p = tmp_path / "g.pgm"
        p.write_bytes(b"P5# c\n\t3\r\n# two\n#\n1 255 \x20\n\x0a")
        assert np.array_equal(read_pgm(p) * 255.0, [[32, 10, 10]])

    def test_write_requires_uint8(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "f.pgm", np.zeros((2, 2)))


class TestImageRoundTrip:
    def test_save_load_pgm(self, tmp_path):
        img = make_test_image("polygons", 16, seed=0)
        p = tmp_path / "img.pgm"
        save_image(p, img)
        back = load_image(p)
        # 8-bit quantization error only
        assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12

    def test_clipping(self, tmp_path):
        p = tmp_path / "clip.pgm"
        save_image(p, np.array([[-0.5, 1.5]]))
        assert np.allclose(load_image(p), [[0.0, 1.0]])


class TestWithoutPillow:
    # hide Pillow, so that these run the same where it is installed
    @pytest.fixture(autouse=True)
    def no_pillow(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "PIL", None)

    def test_load(self, tmp_path):
        p = tmp_path / "a.png"
        p.write_bytes(b"")
        with pytest.raises(ValueError, match=r"unsupported image format "
                           r"'\.png' \(install Pillow"):
            load_image(p)

    def test_save(self, tmp_path):
        p = tmp_path / "a.PNG"
        with pytest.raises(ValueError, match="unsupported image format "
                           r"'\.png'"):
            save_image(p, np.zeros((2, 2)))
        assert not p.exists()


class TestKernelFiles:
    def test_round_trip_exact(self, tmp_path):
        k = make_kernel("curve", 7, seed=5)
        p = tmp_path / "k.txt"
        save_kernel_txt(p, k)
        assert np.array_equal(load_kernel_txt(p), k)

    def test_validation_on_load(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0.5 0.2\n0.1 0.1\n")
        with pytest.raises(ValueError, match="sums to"):
            load_kernel_txt(p)

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "ragged.txt"
        p.write_text("0.5 0.5\n1.0\n")
        with pytest.raises(ValueError):
            load_kernel_txt(p)

    @pytest.mark.parametrize("data", [b"\x93NUMPY\x01\x00", b"0.5 abc\n"],
                             ids=["binary", "not-a-decimal"])
    def test_error_names_the_file_and_the_format(self, tmp_path, data):
        p = tmp_path / "k.npy"
        p.write_bytes(data)
        with pytest.raises(ValueError, match="malformed kernel file .*k.npy"
                           ".*whitespace-separated decimals"):
            load_kernel_txt(p)

    def test_kernel_image(self, tmp_path):
        k = make_kernel("gaussian", 5, {"sigma": 1.0})
        p = tmp_path / "k.pgm"
        save_kernel_image(p, k)
        img = load_image(p)
        # peak maps to white
        assert img.max() == 1.0
