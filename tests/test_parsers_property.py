"""Property tests of the three file parsers: IDX datasets, binary PGM images
and JSON model files.

Whatever the bytes, a parser either returns a value or raises its own error
type (IngestError or ModelLoadError), which the CLI prints as one line. Any
other exception is a bug. Inputs are random bytes and mutations of valid
files; examples are derandomized so every run checks the same cases.
"""

import gzip
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neurofuzz import nn
from neurofuzz.errors import IngestError, ModelLoadError
from neurofuzz.model_io import import_image_pgm, load_mnist, load_model, save_model
from neurofuzz.tensor import Tensor

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

IDX_IMAGES = struct.pack(">iiii", 0x00000803, 2, 3, 2) + bytes(range(0, 240, 20))
IDX_LABELS = struct.pack(">ii", 0x00000801, 2) + bytes([3, 7])
PGM = b"P5\n# comment\n3 2\n255\n" + bytes([0, 50, 100, 150, 200, 250])

MODEL_KEYS = (
    "format_version", "input_shape", "num_classes", "precision", "layers",
    "kind", "hyper", "weights", "bias", "pool", "stride", "padding",
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from(["dense", "conv2d", "maxpool2d", "double"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(MODEL_KEYS), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mutated(draw, base: bytes) -> bytes:
    """base with a few bytes overwritten, inserted or deleted, or cut short."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("set", "insert", "delete", "truncate")))
        if op == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=4))
        elif op == "delete":
            del data[pos : pos + draw(st.integers(1, 4))]
        else:
            del data[pos:]
    return bytes(data)


def _small_model_docs() -> list[dict]:
    """The JSON documents, as save_model writes them, of a small conv model
    that uses every layer kind and of a small MLP."""
    rng = np.random.default_rng(0)

    def param(*shape):
        return Tensor.wrap(rng.standard_normal(shape).astype(np.float32))

    conv = nn.Model(
        (nn.conv2d(param(2, 2, 1, 2), param(2)), nn.relu(), nn.maxpool2d((1, 3)),
         nn.flatten(), nn.dense(param(6, 3), param(3)), nn.softmax()),
        (4, 4, 1),
        3,
    )
    mlp = nn.Model(
        (nn.flatten(), nn.dense(param(16, 3), param(3)), nn.softmax()), (4, 4, 1), 3
    )
    docs = []
    with tempfile.TemporaryDirectory() as tmp:
        for model in (conv, mlp):
            save_model(model, Path(tmp) / "m.json")
            docs.append(json.loads((Path(tmp) / "m.json").read_text()))
    return docs


MODEL_DOCS = _small_model_docs()


def _nodes(doc, path=()):
    """Every position in a JSON document, as a path of keys and indices;
    weight and bias arrays count as one position each."""
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            if k in ("weights", "bias"):
                yield path + (k,)
            else:
                yield from _nodes(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _nodes(v, path + (i,))


@st.composite
def model_documents(draw) -> str:
    """A valid model document with one to three sub-values replaced by
    arbitrary JSON. Half the picks land inside a layer's hyper settings,
    the fields the loader interprets by hand."""
    doc = json.loads(json.dumps(draw(st.sampled_from(MODEL_DOCS))))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        hyper = [p for p in nodes if "hyper" in p] or nodes
        path = draw(st.sampled_from(hyper) | st.sampled_from(nodes))
        if not path:
            return json.dumps(draw(JSON_VALUES))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(JSON_VALUES)
    return json.dumps(doc)


def _load_split(tmp_path, images: bytes, labels: bytes):
    (tmp_path / "i").write_bytes(images)
    (tmp_path / "l").write_bytes(labels)
    try:
        split = load_mnist(tmp_path / "i", tmp_path / "l")
    except IngestError:
        return
    assert split.images.shape[0] == len(split.labels) >= 1


def _idx_headers(magic: int, ndim: int):
    """An IDX header with small, possibly zero or negative, dimensions,
    followed by a few bytes of data."""
    return st.tuples(
        st.lists(st.integers(-2, 3), min_size=ndim, max_size=ndim), st.binary(max_size=24)
    ).map(lambda t: struct.pack(f">i{ndim}i", magic, *t[0]) + t[1])


ANY_IDX = (
    st.binary(max_size=64) | mutated(IDX_IMAGES) | mutated(IDX_LABELS)
    | _idx_headers(0x00000803, 3) | _idx_headers(0x00000801, 1)
)


@SETTINGS
@given(images=ANY_IDX | mutated(gzip.compress(IDX_IMAGES)) | st.just(IDX_IMAGES))
def test_idx_images_parse_or_ingest_error(tmp_path, images):
    _load_split(tmp_path, images, IDX_LABELS)


@SETTINGS
@given(labels=ANY_IDX | mutated(gzip.compress(IDX_LABELS)) | st.just(IDX_LABELS))
def test_idx_labels_parse_or_ingest_error(tmp_path, labels):
    _load_split(tmp_path, IDX_IMAGES, labels)


PGM_HEADERS = st.tuples(st.integers(-2, 3), st.integers(-2, 3), st.sampled_from([255, 0, 65535]),
                        st.binary(max_size=12)).map(
    lambda t: b"P5\n%d %d\n%d\n" % t[:3] + t[3]
)


@SETTINGS
@given(body=st.binary(max_size=48) | st.binary(max_size=32).map(b"P5".__add__)
       | mutated(PGM) | PGM_HEADERS)
def test_pgm_parses_or_ingest_error(tmp_path, body):
    (tmp_path / "a.pgm").write_bytes(body)
    try:
        image = import_image_pgm(tmp_path / "a.pgm")
    except IngestError:
        return
    assert image.array.ndim == 3 and image.shape[2] == 1


@SETTINGS
@given(body=model_documents().map(str.encode) | st.binary(max_size=64))
def test_model_json_loads_or_model_load_error(tmp_path, body):
    (tmp_path / "m.json").write_bytes(body)
    try:
        load_model(tmp_path / "m.json")
    except ModelLoadError:
        pass


@SETTINGS
@given(body=mutated(json.dumps(MODEL_DOCS[0]).encode()))
def test_model_bytes_mutated_load_or_model_load_error(tmp_path, body):
    (tmp_path / "m.json").write_bytes(body)
    try:
        load_model(tmp_path / "m.json")
    except ModelLoadError:
        pass
