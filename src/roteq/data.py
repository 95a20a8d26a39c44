"""Dataset ingestion, rotation augmentation, and a synthetic corpus.

Images travel as (n, 1, h, w) float arrays in [0, 1]. The on-disk
container is the classic big-endian IDX layout: a u32 magic, one u32
per dimension, then a flat unsigned-byte payload. Quarter-turn
augmentation is an exact pixel permutation; arbitrary-angle rotation
uses bilinear interpolation with zero fill and is only used to make
evaluation data, never inside the equivariance proofs.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .tensor import rotate90

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX payload (bad magic, truncation, trailing bytes, size overflow)."""


@dataclass
class Dataset:
    """Images (n, 1, h, w) in [0, 1] and integer labels in 0..9."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[1] != 1:
            raise ValueError(f"images must be (n, 1, h, w), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError(
                f"{self.images.shape[0]} images but {self.labels.shape} labels"
            )
        if self.images.size and not (self.images.min() >= 0 and self.images.max() <= 1):  # NaN fails
            raise ValueError("image values must lie in [0, 1]")
        if self.labels.dtype.kind not in "iu":
            raise ValueError(f"labels must be integers, got dtype {self.labels.dtype}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise ValueError("labels must lie in 0..9")

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.images[idx], self.labels[idx])


def _load_idx(raw: bytes, magic: int, what: str) -> tuple:
    """(dimensions, u8 payload) of an IDX `what` file; the magic's low byte is its rank."""
    header = 4 * ((magic & 0xFF) + 1)
    if len(raw) < header:
        raise IdxFormatError(f"{what} header needs {header} bytes, got {len(raw)}")
    found, *dims = struct.unpack(f">{header // 4}I", raw[:header])
    if found != magic:
        raise IdxFormatError(f"bad {what} magic: expected {magic:#010x}, found {found:#010x}")
    count, held = math.prod(dims), len(raw) - header
    if count != held:
        problem = "truncated payload" if count > held else "trailing bytes"
        raise IdxFormatError(f"{problem}: header promises {count} {what} bytes, file holds {held}")
    return dims, np.frombuffer(raw, dtype=np.uint8, count=count, offset=header)


def _dump_idx(magic: int, payload: np.ndarray) -> bytes:
    """IDX bytes of a u8 `payload`, whose rank must be the magic's low byte."""
    return struct.pack(f">{(magic & 0xFF) + 1}I", magic, *payload.shape) + payload.tobytes()


def load_idx_images(raw: bytes) -> np.ndarray:
    """Decode an IDX image file into (n, 1, h, w) float32 scaled by 1/255."""
    (n, h, w), pixels = _load_idx(raw, IMAGE_MAGIC, "image")
    return (pixels.astype(np.float32) / 255.0).reshape(n, 1, h, w)


def load_idx_labels(raw: bytes) -> np.ndarray:
    """Decode an IDX label file into an int64 vector."""
    return _load_idx(raw, LABEL_MAGIC, "label")[1].astype(np.int64)


def dump_idx_images(images: np.ndarray) -> bytes:
    """Encode (n, 1, h, w) images in [0, 1] as IDX bytes (u8, rounded)."""
    return _dump_idx(IMAGE_MAGIC, np.rint(images[:, 0] * 255.0).astype(np.uint8))


def dump_idx_labels(labels: np.ndarray) -> bytes:
    return _dump_idx(LABEL_MAGIC, np.asarray(labels, dtype=np.uint8))


def load_dataset(image_bytes: bytes, label_bytes: bytes) -> Dataset:
    images = load_idx_images(image_bytes)
    labels = load_idx_labels(label_bytes)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"{images.shape[0]} images but {labels.shape[0]} labels"
        )
    return Dataset(images, labels)


def rotate_dataset_exact(ds: Dataset, seed: int) -> Dataset:
    """Rotate every image by an independent uniform multiple of 90 degrees."""
    rng = np.random.default_rng(seed)
    ks = rng.integers(0, 4, size=len(ds))
    out = ds.images.copy()
    for k in range(1, 4):
        sel = ks == k
        if np.any(sel):
            out[sel] = rotate90(ds.images[sel], k)
    return Dataset(out, ds.labels.copy())


def _rotate_bilinear(img: np.ndarray, theta) -> np.ndarray:
    """Rotate (h, w) images counterclockwise about their center.

    `img` is (..., h, w) and `theta` holds one angle per image, shaped
    like `img`'s leading axes (a scalar for one image). Every image takes
    the same elementwise arithmetic, so each image of a batch gets the
    bytes a call on it alone gives. Sample coordinates within 1e-9 of the
    pixel grid snap onto it, so quarter-turn angles reproduce the exact
    permutation path; samples outside the image read zero.
    """
    h, w = img.shape[-2:]
    ci, cj = (h - 1) / 2.0, (w - 1) / 2.0
    jj, ii = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    di, dj = ii - ci, jj - cj
    theta = np.asarray(theta, dtype=np.float64)[..., None, None]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    src_i = ci + cos_t * di + sin_t * dj
    src_j = cj - sin_t * di + cos_t * dj
    for src in (src_i, src_j):
        nearest = np.rint(src)
        snap = np.abs(src - nearest) < 1e-9
        src[snap] = nearest[snap]

    i0 = np.floor(src_i).astype(np.int64)
    j0 = np.floor(src_j).astype(np.int64)
    fi = src_i - i0
    fj = src_j - j0
    # each image in a zero frame 2 pixels wide: with i0 and j0 clipped to
    # [-2, h] and [-2, w], every neighbour outside the image reads a zero
    framed = np.zeros((*img.shape[:-2], h + 4, w + 4))
    framed[..., 2:-2, 2:-2] = img
    images = np.arange(0, framed.size, (h + 4) * (w + 4)).reshape(*img.shape[:-2], 1, 1)
    at = images + (np.clip(i0, -2, h) + 2) * (w + 4) + np.clip(j0, -2, w) + 2
    flat = framed.ravel()
    v00, v01, v10, v11 = (flat[at + step] for step in (0, 1, w + 4, w + 5))
    out = (
        v00 * (1 - fi) * (1 - fj)
        + v01 * (1 - fi) * fj
        + v10 * fi * (1 - fj)
        + v11 * fi * fj
    )
    return out.astype(img.dtype)


_ROTATE_BLOCK = 64  # images per `_rotate_bilinear` call of `rotate_dataset_arbitrary`


def rotate_dataset_arbitrary(ds: Dataset, seed: int) -> Dataset:
    """Rotate every image by an independent uniform angle in [0, 2*pi).

    The images go through `_rotate_bilinear` in blocks of `_ROTATE_BLOCK`,
    which bounds its float64 temporaries whatever the dataset size.
    """
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=len(ds))
    out = np.empty_like(ds.images)
    for lo in range(0, len(ds), _ROTATE_BLOCK):
        block = slice(lo, lo + _ROTATE_BLOCK)
        out[block, 0] = _rotate_bilinear(ds.images[block, 0], angles[block])
    return Dataset(out, ds.labels.copy())


def split(ds: Dataset, n_train: int, n_val: int, n_test: int, seed: int):
    """Disjoint seeded partition into (train, val, test) datasets."""
    total = n_train + n_val + n_test
    if total > len(ds):
        raise ValueError(f"requested {total} samples but dataset has {len(ds)}")
    perm = np.random.default_rng(seed).permutation(len(ds))
    a = perm[:n_train]
    b = perm[n_train : n_train + n_val]
    c = perm[n_train + n_val : total]
    return ds.subset(a), ds.subset(b), ds.subset(c)


# Each glyph template is built so that no class is a quarter-turn of a
# different class; rotating any sample keeps it inside its own class.
def _glyph_template(cls: int, size: int) -> np.ndarray:
    img = np.zeros((size, size), dtype=np.float64)
    m = max(2, size // 6)
    lo, hi = m, size - m
    mid = size // 2
    t = max(1, size // 8)  # stroke thickness
    third = size // 3
    if cls == 0:  # filled center block
        img[third : size - third, third : size - third] = 1.0
    elif cls == 1:  # single bar
        img[mid - t : mid + t, lo:hi] = 1.0
    elif cls == 2:  # L corner
        img[lo:hi, lo : lo + t] = 1.0
        img[hi - t : hi, lo:hi] = 1.0
    elif cls == 3:  # T
        img[lo : lo + t, lo:hi] = 1.0
        img[lo:hi, mid - t // 2 : mid + t // 2 + 1] = 1.0
    elif cls == 4:  # plus
        img[mid - t : mid + t, lo:hi] = 1.0
        img[lo:hi, mid - t : mid + t] = 1.0
    elif cls == 5:  # diagonal stroke
        for d in range(lo, hi):
            img[d, max(0, d - t // 2) : min(size, d + t // 2 + 1)] = 1.0
    elif cls == 6:  # box outline
        img[lo:hi, lo : lo + t] = 1.0
        img[lo:hi, hi - t : hi] = 1.0
        img[lo : lo + t, lo:hi] = 1.0
        img[hi - t : hi, lo:hi] = 1.0
    elif cls == 7:  # two parallel bars
        img[lo : lo + t, lo:hi] = 1.0
        img[hi - t : hi, lo:hi] = 1.0
    elif cls == 8:  # corner block plus center dot
        img[lo : lo + 2 * t, lo : lo + 2 * t] = 1.0
        img[mid - t // 2 : mid + t // 2 + 1, mid - t // 2 : mid + t // 2 + 1] = 1.0
    elif cls == 9:  # two opposite quadrant blocks
        img[lo:mid, lo:mid] = 1.0
        img[mid:hi, mid:hi] = 1.0
    else:
        raise ValueError(f"glyph class must be 0..9, got {cls}")
    return img


def synth_glyphs(n: int, size: int = 14, seed: int = 0) -> Dataset:
    """Procedural 10-class glyph corpus with jitter and pixel noise.

    Classes cycle 0,1,...,9,0,... so balance is exact when n is a
    multiple of 10 and off by at most one otherwise. Values are
    quantized to the u8 grid so an IDX round trip is lossless.
    """
    if size < 10:
        raise ValueError(f"glyphs need size >= 10, got {size}")
    rng = np.random.default_rng(seed)
    images = np.empty((n, 1, size, size), dtype=np.float32)
    labels = np.arange(n, dtype=np.int64) % 10
    templates = [_glyph_template(c, size) for c in range(10)]
    for i in range(n):
        img = templates[labels[i]]
        dy, dx = rng.integers(-1, 2, size=2)
        shifted = np.zeros_like(img)
        src_y = slice(max(0, -dy), size - max(0, dy))
        dst_y = slice(max(0, dy), size - max(0, -dy))
        src_x = slice(max(0, -dx), size - max(0, dx))
        dst_x = slice(max(0, dx), size - max(0, -dx))
        shifted[dst_y, dst_x] = img[src_y, src_x]
        noisy = np.clip(shifted * 0.7 + rng.normal(0.0, 0.25, size=img.shape), 0.0, 1.0)
        images[i, 0] = np.rint(noisy * 255.0).astype(np.float32) / 255.0
    return Dataset(images, labels)
