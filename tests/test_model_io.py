"""Unit tests for dataset ingestion (IDX), image export/import (binary PGM),
and model serialization (JSON).

IDX fixtures are crafted byte-by-byte so the reader is checked against an
independent encoding of the format, not against itself.
"""

import gzip
import json
import struct

import numpy as np
import pytest

from neurofuzz import architectures, nn
from neurofuzz.errors import ContractViolation, IngestError, ModelLoadError
from neurofuzz.model_io import (
    MODEL_FORMAT_VERSION,
    export_image_pgm,
    import_image_pgm,
    load_mnist,
    load_model,
    save_model,
)
from neurofuzz.tensor import Tensor


def idx_images_bytes(images: np.ndarray) -> bytes:
    n, h, w = images.shape
    return struct.pack(">iiii", 0x00000803, n, h, w) + images.astype(np.uint8).tobytes()


def idx_labels_bytes(labels) -> bytes:
    return struct.pack(">ii", 0x00000801, len(labels)) + bytes(labels)


class TestIdxReader:
    def test_single_crafted_image(self, tmp_path):
        img = np.arange(4, dtype=np.uint8).reshape(1, 2, 2) * 50
        (tmp_path / "i").write_bytes(idx_images_bytes(img))
        (tmp_path / "l").write_bytes(idx_labels_bytes([7]))
        split = load_mnist(tmp_path / "i", tmp_path / "l")
        assert len(split) == 1
        assert split.labels == (7,)
        expected = (img[0].astype(np.float64) / 255.0).astype(np.float32)
        np.testing.assert_array_equal(split.image(0).array[:, :, 0], expected)

    def test_checksum_oracle(self, tmp_path):
        # Pixel sum survives the byte -> float32 conversion exactly: every
        # v/255 is representable well within float32 for v in 0..255.
        rng = np.random.default_rng(23)
        img = rng.integers(0, 256, size=(5, 4, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=5).tolist()
        (tmp_path / "i").write_bytes(idx_images_bytes(img))
        (tmp_path / "l").write_bytes(idx_labels_bytes(labels))
        split = load_mnist(tmp_path / "i", tmp_path / "l")
        got = float(split.images.array.astype(np.float64).sum()) * 255.0
        assert got == pytest.approx(float(img.sum()), abs=1e-3)
        assert split.labels == tuple(labels)

    def test_gzip_transparent(self, tmp_path):
        img = np.full((2, 3, 3), 128, dtype=np.uint8)
        with gzip.open(tmp_path / "i.gz", "wb") as fh:
            fh.write(idx_images_bytes(img))
        with gzip.open(tmp_path / "l.gz", "wb") as fh:
            fh.write(idx_labels_bytes([1, 2]))
        split = load_mnist(tmp_path / "i.gz", tmp_path / "l.gz")
        assert len(split) == 2
        assert float(split.images.array.max()) == pytest.approx(128 / 255, abs=1e-7)

    def test_bad_magic_reports_offset(self, tmp_path):
        data = struct.pack(">iiii", 0x12345678, 1, 2, 2) + bytes(4)
        (tmp_path / "i").write_bytes(data)
        (tmp_path / "l").write_bytes(idx_labels_bytes([0]))
        with pytest.raises(IngestError) as exc:
            load_mnist(tmp_path / "i", tmp_path / "l")
        assert exc.value.offset == 0

    def test_truncated_pixels_reports_offset(self, tmp_path):
        complete = idx_images_bytes(np.zeros((1, 2, 2), dtype=np.uint8))
        (tmp_path / "i").write_bytes(complete[:-2])
        (tmp_path / "l").write_bytes(idx_labels_bytes([0]))
        with pytest.raises(IngestError) as exc:
            load_mnist(tmp_path / "i", tmp_path / "l")
        assert exc.value.offset == len(complete) - 2

    def test_truncated_header(self, tmp_path):
        (tmp_path / "i").write_bytes(b"\x00\x00")
        (tmp_path / "l").write_bytes(idx_labels_bytes([0]))
        with pytest.raises(IngestError):
            load_mnist(tmp_path / "i", tmp_path / "l")

    @pytest.mark.parametrize("shape", [(0, 2, 2), (1, 0, 2)])
    def test_empty_dimension_rejected(self, tmp_path, shape):
        (tmp_path / "i").write_bytes(idx_images_bytes(np.zeros(shape, np.uint8)))
        (tmp_path / "l").write_bytes(idx_labels_bytes([0] * shape[0]))
        with pytest.raises(IngestError, match="must be positive"):
            load_mnist(tmp_path / "i", tmp_path / "l")

    def test_corrupt_gzip_rejected(self, tmp_path):
        packed = gzip.compress(idx_images_bytes(np.zeros((4, 2, 2), np.uint8)))
        (tmp_path / "l").write_bytes(idx_labels_bytes([0, 1, 2, 3]))
        for name, body in (("cut", packed[:-12]), ("flipped", packed[:12] + b"\xff" * 8 + packed[20:])):
            (tmp_path / name).write_bytes(body)
            with pytest.raises(IngestError, match="cannot read"):
                load_mnist(tmp_path / name, tmp_path / "l")

    def test_count_mismatch(self, tmp_path):
        (tmp_path / "i").write_bytes(idx_images_bytes(np.zeros((2, 2, 2), np.uint8)))
        (tmp_path / "l").write_bytes(idx_labels_bytes([0, 1, 2]))
        with pytest.raises(IngestError):
            load_mnist(tmp_path / "i", tmp_path / "l")


class TestPgm:
    def test_full_scale_pixel(self, tmp_path):
        export_image_pgm(Tensor([[1.0]]), tmp_path / "a.pgm")
        data = (tmp_path / "a.pgm").read_bytes()
        assert data == b"P5\n1 1\n255\n\xff"

    def test_half_scale_rounds_to_128(self, tmp_path):
        export_image_pgm(Tensor([[0.5]]), tmp_path / "a.pgm")
        assert (tmp_path / "a.pgm").read_bytes()[-1] == 128

    def test_header_layout(self, tmp_path):
        export_image_pgm(Tensor.wrap(np.zeros((2, 3, 1), np.float32)), tmp_path / "a.pgm")
        data = (tmp_path / "a.pgm").read_bytes()
        assert data.startswith(b"P5\n3 2\n255\n")
        assert len(data) == len(b"P5\n3 2\n255\n") + 6

    def test_round_trip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(31)
        x = rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32)
        export_image_pgm(Tensor.wrap(x), tmp_path / "a.pgm")
        back = import_image_pgm(tmp_path / "a.pgm")
        assert back.shape == (28, 28, 1)
        err = np.abs(back.array.astype(np.float64) - x.astype(np.float64)).max()
        assert err <= 1.0 / 510.0 + 1e-9

    @pytest.mark.parametrize("header", [b"P5\n-2 3\n255\n", b"P5\n2 -3\n255\n", b"P5\n0 0\n255\n"])
    def test_import_rejects_non_positive_size(self, tmp_path, header):
        (tmp_path / "a.pgm").write_bytes(header + bytes(6))
        with pytest.raises(IngestError, match="must be positive"):
            import_image_pgm(tmp_path / "a.pgm")

    def test_import_tolerates_comments_and_whitespace(self, tmp_path):
        body = b"P5 # binary graymap\n# comment line\n 2\t1 \n255\n\x00\xff"
        (tmp_path / "a.pgm").write_bytes(body)
        img = import_image_pgm(tmp_path / "a.pgm")
        assert img.shape == (1, 2, 1)
        assert img.array[0, 1, 0] == pytest.approx(1.0)

    def test_import_rejects_wrong_magic(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(IngestError) as exc:
            import_image_pgm(tmp_path / "a.pgm")
        assert exc.value.offset == 0

    def test_import_rejects_nonstandard_maxval(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(IngestError):
            import_image_pgm(tmp_path / "a.pgm")

    def test_import_rejects_short_pixel_data(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x00")
        with pytest.raises(IngestError):
            import_image_pgm(tmp_path / "a.pgm")

    def test_export_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ContractViolation):
            export_image_pgm(Tensor([[1.5]]), tmp_path / "a.pgm")


class TestModelJson:
    def test_round_trip_weights_exact(self, tmp_path):
        model = architectures.build_model("lenet1", rng_seed=3)
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert len(back.layers) == len(model.layers)
        for a, b in zip(model.layers, back.layers):
            assert a.kind == b.kind
            assert a.hyper == b.hyper
            if a.weights is not None:
                assert a.weights == b.weights
                assert a.bias == b.bias

    def test_round_trip_predictions_match(self, tmp_path):
        model = architectures.build_model("mlp", rng_seed=5)
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        rng = np.random.default_rng(0)
        x = Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
        a = nn.predict(model, x).confidences.array
        b = nn.predict(back, x).confidences.array
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_hand_written_dense_model(self, tmp_path):
        # 2-in/2-out single dense layer written as raw JSON; predictions must
        # equal the matrix product computed by hand.
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "input_shape": [2],
            "num_classes": 2,
            "precision": "single",
            "layers": [
                {
                    "kind": "dense",
                    "hyper": {},
                    "weights": [[1.0, 2.0], [3.0, 4.0]],
                    "bias": [0.5, -0.5],
                },
                {"kind": "softmax", "hyper": {}},
            ],
        }
        (tmp_path / "m.json").write_text(json.dumps(doc))
        model = load_model(tmp_path / "m.json")
        x = np.array([1.0, 1.0], dtype=np.float32)
        logits = x @ np.array([[1.0, 2.0], [3.0, 4.0]], np.float32) + np.array(
            [0.5, -0.5], np.float32
        )
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        trace = nn.predict(model, Tensor.wrap(x))
        np.testing.assert_allclose(trace.confidences.array, expected, atol=1e-6)

    @pytest.mark.parametrize(
        "field, value",
        [("num_classes", "2"), ("num_classes", 2.7), ("num_classes", 2.0),
         ("format_version", True), ("format_version", 1.0), ("input_shape", [2.0])],
    )
    def test_mistyped_header_rejected(self, tmp_path, field, value):
        # each value once loaded as the two-class dense model it nearly names
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "input_shape": [2],
            "num_classes": 2,
            "layers": [
                {"kind": "dense", "weights": [[1.0, 2.0], [3.0, 4.0]], "bias": [0.0, 0.0]},
                {"kind": "softmax"},
            ],
        }
        (tmp_path / "m.json").write_text(json.dumps(dict(doc, **{field: value})))
        with pytest.raises(ModelLoadError, match=field):
            load_model(tmp_path / "m.json")

    def test_version_mismatch_rejected(self, tmp_path):
        doc = {"format_version": 99, "input_shape": [2], "num_classes": 2, "layers": []}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError):
            load_model(tmp_path / "m.json")

    def test_missing_field_rejected(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps({"format_version": 1}))
        with pytest.raises(ModelLoadError):
            load_model(tmp_path / "m.json")

    def test_empty_layer_list_rejected(self, tmp_path):
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "input_shape": [2],
            "num_classes": 2,
            "precision": "single",
            "layers": [],
        }
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError):
            load_model(tmp_path / "m.json")

    @pytest.mark.parametrize("hyper", [
        {"pool": [2]}, {"pool": [2, 2, 2]}, {"pool": "22"}, {"pool": [2, 1.5]},
        {"pool": None}, {"pool": 0}, [2, 2], "pool",
    ])
    def test_bad_maxpool_hyper_rejected(self, tmp_path, hyper):
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "input_shape": [4, 4, 1],
            "num_classes": 4,
            "layers": [
                {"kind": "maxpool2d", "hyper": hyper},
                {"kind": "flatten"},
                {"kind": "softmax"},
            ],
        }
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match="layer 0"):
            load_model(tmp_path / "m.json")

    @pytest.mark.parametrize("stride", [0, 1.5, "1", 1e400, None])
    def test_bad_conv_stride_rejected(self, tmp_path, stride):
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "input_shape": [2, 2, 1],
            "num_classes": 1,
            "layers": [
                {"kind": "conv2d", "hyper": {"stride": stride},
                 "weights": [[[[1.0]]]], "bias": [0.0]},
                {"kind": "flatten"},
                {"kind": "dense", "weights": [[1.0]] * 4, "bias": [0.0]},
                {"kind": "softmax"},
            ],
        }
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match="layer 0"):
            load_model(tmp_path / "m.json")

    def test_bad_layer_reports_index(self, tmp_path):
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "input_shape": [2],
            "num_classes": 2,
            "precision": "single",
            "layers": [
                {"kind": "dense", "hyper": {}, "weights": [[1.0], [1.0]], "bias": [0.0]},
                {"kind": "warp", "hyper": {}},
            ],
        }
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match="layer 1"):
            load_model(tmp_path / "m.json")
