"""Deterministic synthetic handwritten-digit corpus for the test suite.

The sandbox has no dataset downloads, so tests manufacture one: each digit is
a hand-laid polyline skeleton that gets a random affine warp, stroke width,
blur and noise per sample, then is rasterized to 28x28 grayscale. The corpus
is written as genuine IDX files so every loader code path is exercised.
Samples are varied enough that a small CNN lands in the high-90s rather than
memorizing the classes, which keeps decision boundaries realistically soft.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SIZE = 28

# Skeletons in a unit box, y pointing down; each digit is a list of polylines.


def _ellipse(cx, cy, rx, ry, n=14, start=0.0, sweep=2 * np.pi):
    t = start + sweep * np.arange(n + 1) / n
    return np.stack([cx + rx * np.sin(t), cy - ry * np.cos(t)], axis=1)


_SKELETONS: dict[int, list[np.ndarray]] = {
    0: [_ellipse(0.5, 0.5, 0.17, 0.28)],
    1: [np.array([[0.42, 0.3], [0.54, 0.2], [0.54, 0.8]])],
    2: [np.array([[0.32, 0.33], [0.38, 0.23], [0.52, 0.2], [0.65, 0.26],
                  [0.68, 0.38], [0.6, 0.5], [0.42, 0.62], [0.32, 0.78],
                  [0.68, 0.78]])],
    3: [np.array([[0.33, 0.27], [0.45, 0.2], [0.62, 0.26], [0.63, 0.38],
                  [0.48, 0.47], [0.64, 0.56], [0.63, 0.7], [0.46, 0.79],
                  [0.32, 0.72]])],
    4: [np.array([[0.58, 0.2], [0.3, 0.58], [0.72, 0.58]]),
        np.array([[0.58, 0.2], [0.58, 0.8]])],
    5: [np.array([[0.66, 0.21], [0.36, 0.21], [0.34, 0.46], [0.52, 0.42],
                  [0.66, 0.52], [0.64, 0.7], [0.47, 0.79], [0.33, 0.73]])],
    6: [np.array([[0.6, 0.21], [0.45, 0.3], [0.37, 0.46], [0.36, 0.64],
                  [0.46, 0.78], [0.6, 0.72], [0.63, 0.58], [0.52, 0.49],
                  [0.38, 0.55]])],
    7: [np.array([[0.31, 0.21], [0.69, 0.21], [0.46, 0.8]])],
    8: [_ellipse(0.5, 0.34, 0.13, 0.14), _ellipse(0.5, 0.64, 0.16, 0.16)],
    9: [_ellipse(0.52, 0.35, 0.14, 0.15),
        np.array([[0.66, 0.35], [0.64, 0.58], [0.56, 0.8]])],
}


def _transform(points: np.ndarray, rng: np.random.Generator, params) -> np.ndarray:
    angle, sx, sy, shear, dx, dy = params
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    shear_m = np.array([[1.0, shear], [0.0, 1.0]])
    centered = points - 0.5
    warped = centered @ (rot @ shear_m).T * np.array([sx, sy])
    return warped + 0.5 + np.array([dx, dy])


def _raster(polylines: list[np.ndarray], thickness: float) -> np.ndarray:
    """Distance-to-segment rasterization with a soft anti-aliased edge.

    A pixel farther than thickness + aa from the strokes' bounding box is
    farther than that from every stroke, so it renders as exactly 0; only
    the pixels inside the widened box get their distances computed."""
    aa = 0.55 / SIZE
    coords = (np.arange(SIZE) + 0.5) / SIZE
    pts = np.concatenate(polylines)
    margin = thickness + aa
    xs = np.flatnonzero((coords >= pts[:, 0].min() - margin) & (coords <= pts[:, 0].max() + margin))
    ys = np.flatnonzero((coords >= pts[:, 1].min() - margin) & (coords <= pts[:, 1].max() + margin))
    img = np.zeros((SIZE, SIZE))
    if not (xs.size and ys.size):
        return img
    gx, gy = np.meshgrid(coords[xs], coords[ys])
    pix = np.stack([gx.ravel(), gy.ravel()], axis=1)  # [npix, 2], (x, y)
    best = np.full(len(pix), np.inf)
    for line in polylines:
        a, b = line[:-1], line[1:]
        ab = b - a  # [nseg, 2]
        denom = (ab * ab).sum(axis=1)
        denom[denom == 0] = 1e-12
        ap = pix[:, None, :] - a[None, :, :]  # [npix, nseg, 2]
        t = np.clip((ap * ab[None, :, :]).sum(axis=2) / denom, 0.0, 1.0)
        closest = a[None, :, :] + t[:, :, None] * ab[None, :, :]
        d = np.sqrt(((pix[:, None, :] - closest) ** 2).sum(axis=2)).min(axis=1)
        best = np.minimum(best, d)
    box = np.clip((thickness - best) / aa + 0.5, 0.0, 1.0)
    img[ys[0] : ys[-1] + 1, xs[0] : xs[-1] + 1] = box.reshape(len(ys), len(xs))
    return img


def _blur(img: np.ndarray, sigma: float) -> np.ndarray:
    radius = max(1, int(np.ceil(2.5 * sigma)))
    t = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (t / sigma) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(img, radius, mode="edge")
    rows = np.array([np.convolve(r, kernel, "valid") for r in padded])
    return np.stack([np.convolve(c, kernel, "valid") for c in rows.T], axis=1)


def _stroke(digit: int, rng: np.random.Generator) -> np.ndarray:
    params = (
        rng.normal(0.0, 0.22),        # rotation, radians
        rng.uniform(0.75, 1.2),       # x scale
        rng.uniform(0.75, 1.2),       # y scale
        rng.normal(0.0, 0.2),         # shear
        rng.uniform(-0.07, 0.07),     # x shift
        rng.uniform(-0.07, 0.07),     # y shift
    )
    polylines = [_transform(p, rng, params) for p in _SKELETONS[digit]]
    return _raster(polylines, rng.uniform(0.03, 0.085))


def render_digit(digit: int, rng: np.random.Generator) -> np.ndarray:
    """One randomized 28x28 grayscale sample of the digit, values in [0,1].

    Every sample carries a fainter ghost of a second digit behind the labeled
    one. The label stays unambiguous (the brightest skeleton wins) and a small
    CNN learns the rule to high accuracy, but the ghost keeps posteriors soft
    instead of letting the network saturate, the way genuinely messy
    handwriting does.
    """
    img = _stroke(digit, rng)
    ghost = int(rng.integers(0, 10))
    while ghost == digit:
        ghost = int(rng.integers(0, 10))
    img = np.maximum(img, _stroke(ghost, rng) * rng.uniform(0.48, 0.68))
    img = _blur(img, rng.uniform(0.5, 1.1))
    img *= rng.uniform(0.70, 1.0)
    img += rng.normal(0.0, 0.03, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def make_corpus(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n samples cycling through the digits in a shuffled deterministic order;
    returns uint8 images [n, 28, 28] and labels [n]."""
    rng = np.random.default_rng(seed)
    labels = np.tile(np.arange(10), n // 10 + 1)[:n]
    rng.shuffle(labels)
    images = np.empty((n, SIZE, SIZE), dtype=np.uint8)
    for i, digit in enumerate(labels):
        img = render_digit(int(digit), rng)
        images[i] = np.floor(img * 255.0 + 0.5).astype(np.uint8)
    return images, labels.astype(np.uint8)


def write_idx_images(path: Path, images: np.ndarray):
    with open(path, "wb") as f:
        n, h, w = images.shape
        f.write(struct.pack(">iiii", 0x00000803, n, h, w))
        f.write(images.tobytes())


def write_idx_labels(path: Path, labels: np.ndarray):
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, len(labels)))
        f.write(labels.astype(np.uint8).tobytes())


def write_dataset(data_dir: Path, n_train: int = 20000, n_test: int = 2000,
                  seed: int = 20240901, label_noise: float = 0.055):
    """Write train/test IDX pairs under data_dir using the standard names.

    A small fraction of train labels is resampled to a different class, the
    way human-annotated corpora carry occasional mistakes. A classifier fit on
    the noisy split must hedge against that tail, which caps its confidence on
    clean inputs; test labels stay clean so accuracy measures the truth. The
    noise stream uses its own fixed seed so the images are identical with the
    noise on or off.
    """
    data_dir.mkdir(parents=True, exist_ok=True)
    train_images, train_labels = make_corpus(n_train, seed)
    test_images, test_labels = make_corpus(n_test, seed + 1)
    if label_noise:
        noise_rng = np.random.default_rng(777)
        for i in np.where(noise_rng.random(len(train_labels)) < label_noise)[0]:
            new = int(noise_rng.integers(0, 10))
            while new == train_labels[i]:
                new = int(noise_rng.integers(0, 10))
            train_labels[i] = new
    write_idx_images(data_dir / "train-images-idx3-ubyte", train_images)
    write_idx_labels(data_dir / "train-labels-idx1-ubyte", train_labels)
    write_idx_images(data_dir / "t10k-images-idx3-ubyte", test_images)
    write_idx_labels(data_dir / "t10k-labels-idx1-ubyte", test_labels)
    return data_dir
