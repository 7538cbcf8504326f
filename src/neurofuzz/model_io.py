"""Persistence and ingestion: JSON model files, IDX dataset loading, and
binary PGM image export/import.

The model file is UTF-8 JSON with nested weight arrays. Values are written as
Python's shortest decimal repr, which reconstructs single-precision weights
bit-exactly (at most 9 significant digits are ever needed).
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
    hyper = dict(layer.hyper)
    if "pool" in hyper:
        ph, pw = layer.pool
        hyper["pool"] = [ph, pw]
    return hyper


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


def _layer_from_doc(raw: dict, precision: str) -> Layer:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ContractViolation("each layer needs a 'kind' field")
    weights = raw.get("weights")
    bias = raw.get("bias")
    hyper = raw.get("hyper") or {}
    if not isinstance(hyper, dict):
        raise ContractViolation("'hyper' must be a JSON object")
    if isinstance(hyper.get("pool"), list):
        hyper = dict(hyper, pool=tuple(hyper["pool"]))
    return Layer(
        raw["kind"],
        None if weights is None else Tensor(weights, precision=precision),
        None if bias is None else Tensor(bias, precision=precision),
        hyper,
    )


# ---------------------------------------------------------------------------
# MNIST-format (IDX) datasets


@dataclass(frozen=True)
class DatasetSplit:
    """Images as one [n, h, w, 1] tensor in [0, 1] plus integer labels."""

    images: Tensor
    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(c) for c in self.labels))
        if len(self.images.shape) != 4 or self.images.shape[3] != 1:
            raise ContractViolation(f"images must be [n, h, w, 1], got {self.images.shape}")
        if self.images.shape[0] != len(self.labels):
            raise ContractViolation(
                f"{self.images.shape[0]} images but {len(self.labels)} labels"
            )
        arr = self.images.array
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ContractViolation("image pixels must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.labels)

    def image(self, i: int) -> Tensor:
        return Tensor.wrap(self.images.array[i])


def _read_maybe_gzip(path: str | Path) -> bytes:
    try:
        with open(path, "rb") as f:
            head = f.read(2)
            f.seek(0)
            if head == b"\x1f\x8b":
                with gzip.open(f) as g:
                    return g.read()
            return f.read()
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
    n, h, w = images.shape
    pixels = (images.astype(np.float32) / np.float32(255.0)).reshape(n, h, w, 1)
    return DatasetSplit(Tensor.wrap(pixels), tuple(int(c) for c in labels))


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
