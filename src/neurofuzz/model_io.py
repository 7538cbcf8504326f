"""Persistence and ingestion: JSON model files, IDX dataset loading, and
binary PGM image export/import.

The model file is UTF-8 JSON with nested weight arrays. Values are written as
Python's shortest decimal repr, which reconstructs single-precision weights
bit-exactly (at most 9 significant digits are ever needed).

Each layer's "hyper" object holds the settings of its kind, and load_model
rejects any key its kind does not take:
  - conv2d: "stride", an integer >= 1 (default 1), and "padding", which must
    be "valid" (the default);
  - maxpool2d: "pool", an integer p >= 1 for a p x p window, or a pair
    [ph, pw] (default 2);
  - every other kind: no keys.
save_model writes every key of its layer's kind, the pool as a pair.
"""

from __future__ import annotations

import gzip
import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolation, IngestError, ModelLoadError
from .nn import Layer, Model
from .tensor import Tensor

MODEL_FORMAT_VERSION = 1

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


# ---------------------------------------------------------------------------
# model files


def save_model(model: Model, path: str | Path):
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "input_shape": list(model.input_shape),
        "num_classes": model.num_classes,
        "precision": model.precision,
        "layers": [
            {
                "kind": l.kind,
                "hyper": _jsonable_hyper(l),
                "weights": None if l.weights is None else l.weights.tolist(),
                "bias": None if l.bias is None else l.bias.tolist(),
            }
            for l in model.layers
        ],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _jsonable_hyper(layer: Layer) -> dict:
    if layer.kind == "conv2d":
        return {"stride": layer.stride, "padding": "valid"}
    if layer.kind == "maxpool2d":
        return {"pool": list(layer.pool)}
    return {}


def load_model(path: str | Path) -> Model:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ModelLoadError(f"cannot read model file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelLoadError("model file must hold a JSON object")
    version = doc.get("format_version")
    if not _is_count(version) or version != MODEL_FORMAT_VERSION:
        raise ModelLoadError(
            f"unsupported format_version {version!r}; expected {MODEL_FORMAT_VERSION}"
        )
    for key in ("input_shape", "num_classes", "layers"):
        if key not in doc:
            raise ModelLoadError(f"model file missing field {key!r}")
    shape, num_classes = doc["input_shape"], doc["num_classes"]
    if not isinstance(shape, list) or not shape or not all(map(_is_count, shape)):
        raise ModelLoadError(f"input_shape must be a list of integers >= 1, got {shape!r}")
    if not _is_count(num_classes):
        raise ModelLoadError(f"num_classes must be an integer >= 1, got {num_classes!r}")
    precision = doc.get("precision", "single")
    raw_layers = doc["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ModelLoadError("model file must list at least one layer")
    layers = []
    for i, raw in enumerate(raw_layers):
        try:
            layers.append(_layer_from_doc(raw, precision))
        except (ContractViolation, TypeError, ValueError, OverflowError) as exc:
            raise ModelLoadError(f"layer {i}: {exc}") from None
    try:
        return Model(tuple(layers), tuple(shape), num_classes)
    except (ContractViolation, TypeError, ValueError, OverflowError) as exc:
        raise ModelLoadError(str(exc)) from None


def _is_count(v) -> bool:
    """A JSON integer >= 1; bools and floats such as 2.0 are not."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


_HYPER_KEYS = {"conv2d": {"stride", "padding"}, "maxpool2d": {"pool"}}


def _layer_from_doc(raw: dict, precision: str) -> Layer:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ContractViolation("each layer needs a 'kind' field")
    kind, weights, bias = raw["kind"], raw.get("weights"), raw.get("bias")
    hyper = raw.get("hyper") or {}
    if not isinstance(hyper, dict):
        raise ContractViolation("'hyper' must be a JSON object")
    unknown = set(hyper) - _HYPER_KEYS.get(kind, set())
    if unknown:
        raise ContractViolation(f"{kind} takes no hyper keys {sorted(unknown)}")
    stride = hyper.get("stride", 1)
    if not _is_count(stride):
        raise ContractViolation(f"conv2d stride must be an integer >= 1, got {stride!r}")
    if hyper.get("padding", "valid") != "valid":
        raise ContractViolation(f"only valid padding is supported, got {hyper['padding']!r}")
    pool = hyper.get("pool", 2)
    pool = [pool, pool] if _is_count(pool) else pool
    if not (isinstance(pool, list) and len(pool) == 2 and all(map(_is_count, pool))):
        raise ContractViolation(f"pool must be an integer or a pair of integers >= 1, got {pool!r}")
    return Layer(
        kind,
        None if weights is None else Tensor(weights, precision=precision),
        None if bias is None else Tensor(bias, precision=precision),
        stride,
        tuple(pool),
    )


# ---------------------------------------------------------------------------
# MNIST-format (IDX) datasets


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    """Images as one [n, h, w, 1] tensor in [0, 1] plus their n labels as one
    read-only int64 array. The trainer checks that a split fits a model."""

    images: Tensor
    labels: np.ndarray

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        if len(self.images.shape) != 4 or self.images.shape[3] != 1:
            raise ContractViolation(f"images must be [n, h, w, 1], got {self.images.shape}")
        if labels.shape != self.images.shape[:1]:
            raise ContractViolation(f"{self.images.shape[0]} images but labels of shape {labels.shape}")
        arr = self.images.array
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ContractViolation("image pixels must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.labels)

    def image(self, i: int) -> Tensor:
        return Tensor.wrap(self.images.array[i])


def _read_maybe_gzip(path: str | Path) -> bytes:
    """The file's bytes in one read, gunzipped (every member) if gzip."""
    try:
        data = Path(path).read_bytes()
        return gzip.decompress(data) if data[:2] == b"\x1f\x8b" else data
    except (OSError, EOFError, zlib.error) as exc:
        raise IngestError(f"cannot read {path}: {exc}") from None


def _parse_idx(data: bytes, expect_magic: int, path) -> np.ndarray:
    if len(data) < 4:
        raise IngestError(f"{path}: truncated IDX header", offset=len(data))
    (magic,) = struct.unpack(">i", data[:4])
    if magic != expect_magic:
        raise IngestError(
            f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{expect_magic:08x}",
            offset=0,
        )
    ndim = magic & 0xFF
    header_end = 4 + 4 * ndim
    if len(data) < header_end:
        raise IngestError(f"{path}: truncated IDX dimension list", offset=len(data))
    dims = struct.unpack(f">{ndim}i", data[4:header_end])
    if any(d < 1 for d in dims):
        raise IngestError(f"{path}: IDX dimensions {dims} must be positive", offset=4)
    count = math.prod(dims)
    if len(data) < header_end + count:
        raise IngestError(
            f"{path}: IDX data ends early, expected {count} bytes after header",
            offset=len(data),
        )
    flat = np.frombuffer(data, dtype=np.uint8, count=count, offset=header_end)
    return flat.reshape(dims)


def load_mnist(images_path: str | Path, labels_path: str | Path) -> DatasetSplit:
    """Load an IDX image/label file pair (plain or gzip) into a DatasetSplit."""
    images = _parse_idx(_read_maybe_gzip(images_path), IDX_IMAGE_MAGIC, images_path)
    labels = _parse_idx(_read_maybe_gzip(labels_path), IDX_LABEL_MAGIC, labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IngestError(
            f"{images_path} holds {images.shape[0]} images but "
            f"{labels_path} holds {labels.shape[0]} labels"
        )
    pixels = np.divide(images[..., None], np.float32(255.0), dtype=np.float32)
    del images  # frees the image file's bytes before the checks read the pixels
    return DatasetSplit(Tensor.wrap(pixels), labels)


# ---------------------------------------------------------------------------
# PGM images


def export_image_pgm(x: Tensor, path: str | Path):
    """Write a [h, w, 1] (or [h, w]) image in [0, 1] as binary PGM, maxval
    255, round-half-up quantization."""
    arr = x.array
    if arr.ndim == 3 and arr.shape[2] == 1:
        arr = arr[:, :, 0]
    if arr.ndim != 2:
        raise ContractViolation(f"expected [h, w, 1] or [h, w] image, got {x.shape}")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ContractViolation("pixel values must lie in [0, 1]")
    h, w = arr.shape
    quantized = np.floor(arr.astype(np.float64) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(quantized.tobytes())


def import_image_pgm(path: str | Path) -> Tensor:
    """Read a binary PGM written by export_image_pgm back to a [h, w, 1]
    single-precision tensor in [0, 1]."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from None
    if not data.startswith(b"P5"):
        raise IngestError(f"{path}: not a binary PGM (missing P5 magic)", offset=0)
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":  # comment to end of line
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise IngestError(f"{path}: truncated PGM header", offset=pos)
        try:
            fields.append(int(data[start:pos]))
        except ValueError:
            raise IngestError(f"{path}: non-numeric PGM header field", offset=start) from None
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise IngestError(f"{path}: PGM size {w}x{h} must be positive")
    if maxval != 255:
        raise IngestError(f"{path}: unsupported PGM maxval {maxval}", offset=pos)
    pos += 1  # single whitespace byte after maxval
    if len(data) < pos + h * w:
        raise IngestError(f"{path}: PGM pixel data ends early", offset=len(data))
    pixels = np.frombuffer(data, dtype=np.uint8, count=h * w, offset=pos)
    arr = (pixels.astype(np.float32) / np.float32(255.0)).reshape(h, w, 1)
    return Tensor.wrap(arr)
