"""Persistence and ingestion: JSON model files, IDX dataset loading, and
binary PGM image export/import.

The model file is UTF-8 JSON with nested weight arrays. Values are written as
Python's shortest decimal repr, which reconstructs single-precision weights
bit-exactly (at most 9 significant digits are ever needed).

Each layer's "hyper", when present, must be an object of its kind's
settings, and load_model rejects any key its kind does not take:
  - conv2d: "stride", an integer >= 1, and "padding", which must be "valid";
  - maxpool2d: "pool", an integer p >= 1 for a p x p window, or a pair
    [ph, pw];
  - every other kind: no keys.
A key the file leaves out takes Layer's default: stride 1, pool (2, 2),
valid padding. save_model writes every key of its layer's kind, in that
order, the pool as a pair. "precision" names the parameters' precision and
may be left out for "single"; it must match the loaded model's, so a model
without parameters can only be "single". Layer and Model check these
values, and load_model names the layer or field.

load_mnist streams the image file: it reads IDX_CHUNK_BYTES at a time into
one staging chunk and scales each chunk into the float32 pixel array, so its
memory peak is one float32 copy of the pixels plus one staging chunk (plus,
for gzip, the decompressor's output of at most one chunk).
"""

from __future__ import annotations

import gzip
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolation, IngestError, ModelLoadError
from .nn import Layer, Model, is_count
from .tensor import Tensor, dtype_of

MODEL_FORMAT_VERSION = 1
# each kind's "hyper" keys, in the order save_model writes them
_HYPER_KEYS = {"conv2d": ("stride", "padding"), "maxpool2d": ("pool",)}

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
IDX_CHUNK_BYTES = 1 << 17  # file bytes per read of an IDX payload
_STREAM_ERRORS = (OSError, EOFError, zlib.error)  # an unreadable file or gzip stream


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
                # padding, the one key Layer holds no field for, is always valid
                "hyper": {k: getattr(l, k, "valid") for k in _HYPER_KEYS.get(l.kind, ())},
                "weights": None if l.weights is None else l.weights.array.tolist(),
                "bias": None if l.bias is None else l.bias.array.tolist(),
            }
            for l in model.layers
        ],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_model(path: str | Path) -> Model:
    """The model a save_model file describes. precision must be a name tensor
    knows, checked before any layer, and equal the loaded model's; num_classes
    must be an integer equal to the head's width. A fault raises
    ModelLoadError naming its field or layer."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ModelLoadError(f"cannot read model file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelLoadError("model file must hold a JSON object")
    version = doc.get("format_version")
    if not is_count(version) or version != MODEL_FORMAT_VERSION:
        raise ModelLoadError(
            f"unsupported format_version {version!r}; expected {MODEL_FORMAT_VERSION}"
        )
    for key in ("input_shape", "num_classes", "layers"):
        if key not in doc:
            raise ModelLoadError(f"model file missing field {key!r}")
    precision = doc.get("precision", "single")
    try:
        dtype_of(precision)
    except ContractViolation as exc:
        raise ModelLoadError(f"model file field 'precision': {exc}") from None
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
        model = Model(tuple(layers), doc["input_shape"])
    except (ContractViolation, TypeError, ValueError, OverflowError) as exc:
        raise ModelLoadError(str(exc)) from None
    if not is_count(n := doc["num_classes"]) or n != model.num_classes:
        raise ModelLoadError(f"model output shape {model.output_shapes[-1]} != [num_classes]={n!r}")
    if precision != model.precision:  # only a model without parameters differs
        raise ModelLoadError(
            f"model file field 'precision': {precision!r} != the model's {model.precision!r}"
        )
    return model


def _layer_from_doc(raw: dict, precision: str) -> Layer:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ContractViolation("each layer needs a 'kind' field")
    kind, weights, bias = raw["kind"], raw.get("weights"), raw.get("bias")
    hyper = raw.get("hyper", {})
    if not isinstance(hyper, dict):
        raise ContractViolation("'hyper' must be a JSON object")
    unknown = set(hyper) - set(_HYPER_KEYS.get(kind, ()))
    if unknown:
        raise ContractViolation(f"{kind} takes no hyper keys {sorted(unknown)}")
    settings = dict(hyper)
    if settings.pop("padding", "valid") != "valid":
        raise ContractViolation(f"only valid padding is supported, got {hyper['padding']!r}")
    return Layer(
        kind,
        None if weights is None else Tensor(weights, precision=precision),
        None if bias is None else Tensor(bias, precision=precision),
        **settings,
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
        if not isinstance(self.images, Tensor):
            raise ContractViolation(f"images: expected a Tensor, got {type(self.images).__name__}")
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "iu":  # a cast would truncate 1.7 to 1
            raise ContractViolation(f"labels must be integers, got dtype {labels.dtype}")
        labels = labels.astype(np.int64)
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


def load_mnist(images_path: str | Path, labels_path: str | Path) -> DatasetSplit:
    """Load an IDX image/label file pair (plain or gzip) into a DatasetSplit,
    holding at most one float32 copy of the pixels plus one staging chunk."""
    images = _read_idx(images_path, IDX_IMAGE_MAGIC, np.float32, _scale_pixels)
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, np.uint8, np.copyto)
    if images.shape[0] != labels.shape[0]:
        raise IngestError(
            f"{images_path} holds {images.shape[0]} images but "
            f"{labels_path} holds {labels.shape[0]} labels"
        )
    return DatasetSplit(Tensor.wrap(images[..., None]), labels)


def _scale_pixels(out: np.ndarray, raw: np.ndarray):
    np.divide(raw, np.float32(255.0), out=out, dtype=np.float32)


def _read_idx(path: str | Path, expect_magic: int, dtype, store) -> np.ndarray:
    """The IDX array in the file at path, plain or gzip (every member), as a
    new array of dtype that store(out, raw) fills one chunk of raw bytes at
    a time.

    A gzip file is read to its end after its IDX data or an IDX error, so
    that a damaged stream (a bad CRC, a cut member) is reported first; a
    plain file has no trailer to check and is read no further than needed."""
    try:
        with open(path, "rb") as raw:
            gzipped = raw.read(2) == b"\x1f\x8b"
            raw.seek(0)
            f = gzip.GzipFile(fileobj=raw) if gzipped else raw
            size = None if gzipped else os.fstat(raw.fileno()).st_size
            try:
                return _parse_idx(f, size, expect_magic, dtype, store, path)
            except _STREAM_ERRORS:
                gzipped = False  # the stream's damage is the error; read no further
                raise
            finally:
                if gzipped:
                    _read_to_end(f)
    except _STREAM_ERRORS as exc:
        raise IngestError(f"cannot read {path}: {exc}") from None


def _parse_idx(f, size: int | None, expect_magic: int, dtype, store, path) -> np.ndarray:
    """The body of _read_idx; size is the file's length, None for gzip."""
    head = f.read(4)
    if len(head) < 4:
        raise IngestError(f"{path}: truncated IDX header", offset=len(head))
    (magic,) = struct.unpack(">i", head)
    if magic != expect_magic:
        raise IngestError(
            f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{expect_magic:08x}",
            offset=0,
        )
    ndim = magic & 0xFF
    header_end = 4 + 4 * ndim
    dim_bytes = f.read(4 * ndim)
    if len(dim_bytes) < 4 * ndim:
        raise IngestError(f"{path}: truncated IDX dimension list", offset=4 + len(dim_bytes))
    dims = struct.unpack(f">{ndim}i", dim_bytes)
    if any(d < 1 for d in dims):
        raise IngestError(f"{path}: IDX dimensions {dims} must be positive", offset=4)
    count = math.prod(dims)
    try:
        out = np.empty(dims, dtype)
    except (MemoryError, ValueError):
        if size is None:  # a gzip stream's length shows only once it is read
            size = header_end + _read_to_end(f)
        if size < header_end + count:
            raise _ends_early(path, count, size) from None
        raise IngestError(f"{path}: IDX dimensions {dims} are too large to load", offset=4) from None
    flat = out.reshape(-1)
    chunk = np.empty(min(count, IDX_CHUNK_BYTES), np.uint8)
    done = 0
    while done < count:
        got = f.readinto(chunk[: count - done])
        if not got:
            raise _ends_early(path, count, header_end + done)
        store(flat[done : done + got], chunk[:got])
        done += got
    return out


def _ends_early(path, count: int, size: int) -> IngestError:
    return IngestError(
        f"{path}: IDX data ends early, expected {count} bytes after header", offset=size
    )


def _read_to_end(f) -> int:
    """Read f to its end in chunks, checking every gzip member's CRC on the
    way; returns the number of bytes read."""
    total = 0
    while chunk := f.read(IDX_CHUNK_BYTES):
        total += len(chunk)
    return total


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
