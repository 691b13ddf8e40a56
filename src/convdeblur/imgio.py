"""Grayscale image I/O (PGM always, PNG when Pillow is available) and
plain-text kernel files."""

import os
import re

import numpy as np

from .tensorops import as_image, validate_kernel

# The magic, then width, height and maxval, each after whitespace or '#'
# comment lines, then the single whitespace byte before the raster
PGM_HEADER = re.compile(rb"P([25])" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def _pillow(ext):
    """Pillow's Image module, for the non-PGM extension ext."""
    try:
        from PIL import Image
    except ImportError:
        raise ValueError(f"unsupported image format {ext!r} (install Pillow "
                         "for non-PGM files)")
    return Image


def load_image(path):
    """Load a grayscale image, mapping 8-bit intensities to [0, 1]."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".pgm":
        return read_pgm(path)
    with _pillow(ext).open(path) as im:
        arr = np.asarray(im.convert("L"), dtype=np.float64)
    return arr / 255.0


def save_image(path, img):
    """Save to 8-bit grayscale, clipping to [0, 1] first."""
    img = as_image(img)
    data = np.clip(np.round(np.clip(img, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)
    ext = os.path.splitext(path)[1].lower()
    if ext == ".pgm":
        write_pgm(path, data)
    else:
        _pillow(ext).fromarray(data, mode="L").save(path)


def read_pgm(path):
    """Read a P2 (ASCII) or P5 (binary) portable graymap as floats in [0, 1].

    The raster must hold exactly width x height pixels in either format:
    data past them, such as a second image of a P5 stream, is rejected. A
    malformed file, or a pixel value other than an integer in 0..maxval, is
    a ValueError that names it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        header = PGM_HEADER.match(data)
        if header is None:
            raise ValueError("no P2 or P5 header of width, height and maxval")
        width, height, maxval = map(int, header.groups()[1:])
        raster, count = data[header.end():], width * height
        if not 0 < maxval <= 65535:
            raise ValueError(f"maxval {maxval} is not in 1..65535")
        if header[1] == b"5":
            dtype = np.dtype(">u2" if maxval > 255 else "u1")
            arr = np.frombuffer(raster, dtype)
        else:
            arr = np.array(raster.split(), dtype=np.float64)
        if arr.size != count:
            raise ValueError(f"{arr.size} pixels, not width x height = {count}")
        # a P2 pixel is digits only: no sign, point or exponent
        if np.any(arr > maxval) or (header[1] == b"2"
                                    and re.search(rb"[^\d\s]", raster)):
            raise ValueError(f"pixel values are not integers in 0..{maxval}")
    except ValueError as exc:
        raise ValueError(f"malformed PGM file {path!r}: {exc}") from None
    return arr.astype(np.float64).reshape(height, width) / maxval


def write_pgm(path, data):
    """Write 8-bit grayscale data (uint8 array) as binary (P5) PGM."""
    data = np.asarray(data)
    if data.dtype != np.uint8:
        raise ValueError("write_pgm expects uint8 data")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def save_kernel_txt(path, k):
    """Kernel as whitespace-separated rows of decimals."""
    k = as_image(k)
    with open(path, "w") as fh:
        for row in k:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_kernel_txt(path):
    try:
        with open(path) as fh:
            rows = [[float(tok) for tok in toks] for toks in map(str.split, fh)
                    if toks and not toks[0].startswith("#")]
    except ValueError:      # not text, or a token that is not a decimal
        rows = []
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"malformed kernel file {path!r}: expected lines of "
                         "whitespace-separated decimals, one per kernel row")
    return validate_kernel(np.array(rows))


def save_kernel_image(path, k):
    """Kernel rendered as a max-normalized grayscale image."""
    k = as_image(k)
    peak = k.max()
    save_image(path, k / peak if peak > 0 else k)
