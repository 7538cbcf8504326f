"""Unit tests for dataset ingestion (IDX), image export/import (binary PGM),
and model serialization (JSON).

IDX fixtures are crafted byte-by-byte so the reader is checked against an
independent encoding of the format, not against itself.
"""

import gzip
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from neurofuzz import architectures, model_io, nn
from neurofuzz.errors import ContractViolation, IngestError, ModelLoadError
from neurofuzz.model_io import (
    IDX_CHUNK_BYTES,
    MODEL_FORMAT_VERSION,
    DatasetSplit,
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
        assert split.labels.tolist() == [7]
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
        assert split.labels.tolist() == labels

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
        bad_crc = packed[:-8] + bytes(b ^ 0xFF for b in packed[-8:-4]) + packed[-4:]
        for name, body in (("cut", packed[:-12]), ("flipped", packed[:12] + b"\xff" * 8 + packed[20:]),
                           ("bad crc", bad_crc)):
            (tmp_path / name).write_bytes(body)
            with pytest.raises(IngestError, match="cannot read"):
                load_mnist(tmp_path / name, tmp_path / "l")

    @pytest.mark.parametrize("form", ["plain", "gzip", "two gzip members"])
    def test_every_byte_value_scales_like_the_scalar_reference(self, tmp_path, form):
        raw = idx_images_bytes(np.arange(256, dtype=np.uint8).reshape(1, 16, 16))
        if form == "gzip":
            raw = gzip.compress(raw)
        elif form == "two gzip members":
            raw = gzip.compress(raw[:100]) + gzip.compress(raw[100:])
        (tmp_path / "i").write_bytes(raw)
        (tmp_path / "l").write_bytes(idx_labels_bytes([4]))
        split = load_mnist(tmp_path / "i", tmp_path / "l")
        expected = np.array([np.float32(v) / np.float32(255.0) for v in range(256)])
        assert split.images.shape == (1, 16, 16, 1)
        assert split.images.array.dtype == np.float32
        assert split.images.array.reshape(-1).view(np.uint32).tolist() == expected.view(np.uint32).tolist()
        assert split.labels.tolist() == [4]

    @pytest.mark.parametrize("form", ["plain", "gzip"])
    def test_pixels_cut_in_a_later_chunk_report_the_file_length(self, tmp_path, form):
        complete = idx_images_bytes(np.zeros((3 * IDX_CHUNK_BYTES // 784, 28, 28), np.uint8))
        cut = complete[: IDX_CHUNK_BYTES + 1000]
        (tmp_path / "i").write_bytes(cut if form == "plain" else gzip.compress(cut))
        (tmp_path / "l").write_bytes(idx_labels_bytes([0] * (3 * IDX_CHUNK_BYTES // 784)))
        with pytest.raises(IngestError, match="data ends early") as exc:
            load_mnist(tmp_path / "i", tmp_path / "l")
        assert exc.value.offset == len(cut)

    @pytest.mark.parametrize("form", ["plain", "gzip"])
    def test_header_claiming_more_than_numpy_can_hold(self, tmp_path, form):
        # (2^31-1)^2 float32 pixels exceed any address space, so NumPy
        # refuses the array at once and nothing is allocated
        raw = struct.pack(">iiii", 0x00000803, 2**31 - 1, 2**31 - 1, 1) + bytes(16)
        (tmp_path / "i").write_bytes(raw if form == "plain" else gzip.compress(raw))
        (tmp_path / "l").write_bytes(idx_labels_bytes([0]))
        with pytest.raises(IngestError, match="data ends early") as exc:
            load_mnist(tmp_path / "i", tmp_path / "l")
        assert exc.value.offset == len(raw)

    @pytest.mark.parametrize("form", ["plain", "gzip"])
    def test_allocation_failure_of_a_complete_file(self, tmp_path, monkeypatch, form):
        raw = idx_images_bytes(np.zeros((2, 2, 2), np.uint8))
        (tmp_path / "i").write_bytes(raw if form == "plain" else gzip.compress(raw))
        (tmp_path / "l").write_bytes(idx_labels_bytes([0, 1]))
        empty = np.empty

        def refuse_pixels(shape, dtype=float):
            if np.dtype(dtype) == np.float32:
                raise MemoryError
            return empty(shape, dtype)

        monkeypatch.setattr(np, "empty", refuse_pixels)
        with pytest.raises(IngestError, match=r"\(2, 2, 2\) are too large to load"):
            load_mnist(tmp_path / "i", tmp_path / "l")

    def test_damaged_gzip_outranks_a_bad_idx_header(self, tmp_path):
        raw = struct.pack(">iiii", 0x12345678, 1, 2, 2) + bytes(4)
        (tmp_path / "i").write_bytes(gzip.compress(raw)[:-4])  # the length field cut
        (tmp_path / "l").write_bytes(idx_labels_bytes([0]))
        with pytest.raises(IngestError, match="cannot read"):
            load_mnist(tmp_path / "i", tmp_path / "l")

    def test_damage_met_inside_the_idx_data_is_reported_as_found(self, tmp_path):
        # the header claims 3 images and the member holds 2, so reading the
        # third meets the member's bad CRC; that is the error reported, not
        # what a further read of the broken stream would say
        packed = gzip.compress(idx_images_bytes(np.zeros((3, 2, 2), np.uint8))[:-4])
        (tmp_path / "i").write_bytes(packed[:-8] + bytes(b ^ 0xFF for b in packed[-8:-4])
                                     + packed[-4:])
        (tmp_path / "l").write_bytes(idx_labels_bytes([0, 1, 2]))
        with pytest.raises(IngestError, match="cannot read .*: CRC check failed"):
            load_mnist(tmp_path / "i", tmp_path / "l")

    def test_bad_plain_file_is_not_read_past_its_error(self, tmp_path, monkeypatch):
        # a plain file has no trailer to check, so its IDX error stands at once
        (tmp_path / "i").write_bytes(idx_images_bytes(np.zeros((2, 2, 2), np.uint8)))
        (tmp_path / "l").write_bytes(idx_labels_bytes([0, 1]))

        def refuse(f):
            raise AssertionError("plain file read to its end")

        monkeypatch.setattr(model_io, "_read_to_end", refuse)
        with pytest.raises(IngestError, match="bad IDX magic"):
            load_mnist(tmp_path / "i", tmp_path / "i")
        assert len(load_mnist(tmp_path / "i", tmp_path / "l")) == 2

    @pytest.mark.parametrize("form", ["plain", "gzip", "two gzip members"])
    def test_load_holds_one_pixel_array_and_one_chunk(self, tmp_path, form):
        rng = np.random.default_rng(5)
        raw = idx_images_bytes(rng.integers(0, 256, size=(2000, 28, 28), dtype=np.uint8))
        if form == "gzip":
            raw = gzip.compress(raw, compresslevel=1)
        elif form == "two gzip members":
            raw = gzip.compress(raw[:700_000], 1) + gzip.compress(raw[700_000:], 1)
        (tmp_path / "i").write_bytes(raw)
        (tmp_path / "l").write_bytes(idx_labels_bytes(rng.integers(0, 10, size=2000).tolist()))
        tracemalloc.start()
        try:
            split = load_mnist(tmp_path / "i", tmp_path / "l")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * split.images.array.nbytes

    def test_count_mismatch(self, tmp_path):
        (tmp_path / "i").write_bytes(idx_images_bytes(np.zeros((2, 2, 2), np.uint8)))
        (tmp_path / "l").write_bytes(idx_labels_bytes([0, 1, 2]))
        with pytest.raises(IngestError):
            load_mnist(tmp_path / "i", tmp_path / "l")


class TestDatasetSplit:
    def images(self, n=3, h=2, w=2, fill=0.5):
        return Tensor.wrap(np.full((n, h, w, 1), fill, dtype=np.float32))

    @pytest.mark.parametrize("labels", [(4, 0, 9), [4, 0, 9], np.array([4, 0, 9], np.uint8)],
                             ids=["tuple", "list", "uint8"])
    def test_labels_become_one_read_only_int64_array(self, labels):
        split = DatasetSplit(self.images(), labels)
        assert split.labels.dtype == np.int64
        assert split.labels.tolist() == [4, 0, 9]
        with pytest.raises(ValueError):
            split.labels[0] = 1

    @pytest.mark.parametrize("labels", [[0.9, 1.7, 2.0], np.array([0.0, 1.0, 2.0]),
                                        [True, False, True], ["0", "1", "2"]],
                             ids=["fractional", "whole-floats", "bools", "strings"])
    def test_labels_that_are_not_integers_rejected(self, labels):
        # a cast to int64 would truncate 1.7 to 1 and train on the wrong label
        with pytest.raises(ContractViolation, match="labels must be integers"):
            DatasetSplit(self.images(), labels)

    def test_labels_are_copied(self):
        source = np.array([4, 0, 9], dtype=np.int64)
        split = DatasetSplit(self.images(), source)
        source[0] = 7
        assert split.labels.tolist() == [4, 0, 9]

    @pytest.mark.parametrize("labels", [(1, 2), [[1], [2], [3]], 5], ids=["short", "2-d", "scalar"])
    def test_labels_must_be_one_per_image(self, labels):
        with pytest.raises(ContractViolation, match="3 images but labels of shape"):
            DatasetSplit(self.images(), labels)

    def test_images_must_be_one_channel_batch(self):
        with pytest.raises(ContractViolation, match=r"\[n, h, w, 1\]"):
            DatasetSplit(Tensor.wrap(np.zeros((3, 2, 2, 2), dtype=np.float32)), (0, 1, 2))

    def test_images_must_be_a_tensor(self):
        with pytest.raises(ContractViolation, match="expected a Tensor, got ndarray"):
            DatasetSplit(self.images().array.copy(), (0, 1, 2))

    def test_pixels_must_lie_in_unit_range(self):
        with pytest.raises(ContractViolation, match="pixels must lie in"):
            DatasetSplit(self.images(fill=1.5), (0, 1, 2))


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

    def test_import_rejects_truncated_header(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5\n28 28")
        with pytest.raises(IngestError, match="truncated PGM header") as exc:
            import_image_pgm(tmp_path / "a.pgm")
        assert exc.value.offset == 8

    def test_import_rejects_non_numeric_header_field(self, tmp_path):
        # with the x skipped, the rest would read as a 2x2 image
        (tmp_path / "a.pgm").write_bytes(b"P5\n2 2 x 255\n" + bytes(4))
        with pytest.raises(IngestError, match="non-numeric PGM header field") as exc:
            import_image_pgm(tmp_path / "a.pgm")
        assert exc.value.offset == 7

    def test_import_rejects_short_pixel_data(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x00")
        with pytest.raises(IngestError):
            import_image_pgm(tmp_path / "a.pgm")

    def test_export_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ContractViolation):
            export_image_pgm(Tensor([[1.5]]), tmp_path / "a.pgm")

    def test_export_rejects_batch_of_images(self, tmp_path):
        with pytest.raises(ContractViolation, match=r"expected \[h, w, 1\] or \[h, w\] image"):
            export_image_pgm(Tensor.zeros((2, 3, 3, 1)), tmp_path / "a.pgm")
        assert not (tmp_path / "a.pgm").exists()

    def test_import_unreadable_path(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            import_image_pgm(tmp_path / "missing.pgm")


def set_layer(i, **keys):
    """A model-document edit that sets keys of layer i."""
    return lambda doc: doc["layers"][i].update(keys)


def set_field(field, value):
    """A model-document edit that sets one header field."""
    return lambda doc: doc.update({field: value})


def move_layer(src, dst):
    """A model-document edit that moves layer src to position dst."""
    return lambda doc: doc["layers"].insert(dst, doc["layers"].pop(src))


class TestModelJson:
    def test_round_trip_weights_exact(self, tmp_path):
        model = architectures.build_model("lenet1", rng_seed=3)
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert len(back.layers) == len(model.layers)
        for a, b in zip(model.layers, back.layers):
            assert a.kind == b.kind
            assert (a.stride, a.pool) == (b.stride, b.pool)
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
         ("format_version", True), ("format_version", 1.0), ("input_shape", [2.0]),
         ("input_shape", []), ("input_shape", 2), ("num_classes", 0)],
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
        if field == "input_shape":  # the file's other fields are not the model's
            layers = (nn.dense(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([0.0, 0.0])), nn.softmax())
            with pytest.raises(ContractViolation, match="^input_shape must be"):
                nn.Model(layers, value)

    @pytest.mark.parametrize("precision", ["quad", 7, ["single"]], ids=["quad", "int", "list"])
    @pytest.mark.parametrize("params", [False, True], ids=["softmax-only", "dense"])
    def test_unknown_precision_rejected_as_a_field_of_the_file(self, tmp_path, precision,
                                                               params):
        # a field of the file, refused before the layers, whether or not a
        # layer has parameters to hold it
        layers = [{"kind": "softmax"}]
        if params:
            layers.insert(0, {"kind": "dense", "weights": [[1.0, 0.0, 0.0]] * 3, "bias": [0.0] * 3})
        doc = {"format_version": MODEL_FORMAT_VERSION, "input_shape": [3], "num_classes": 3,
               "precision": precision, "layers": layers}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError,
                           match=r"^model file field 'precision': unknown precision "):
            load_model(tmp_path / "m.json")

    @staticmethod
    def softmax_only_doc(**fields) -> dict:
        """A model of one softmax layer, which holds no parameters."""
        return dict({"format_version": MODEL_FORMAT_VERSION, "input_shape": [3],
                     "num_classes": 3, "layers": [{"kind": "softmax"}]}, **fields)

    def test_precision_the_parameters_contradict_rejected(self, tmp_path):
        # without parameters the model is single precision, whatever the file says
        (tmp_path / "m.json").write_text(json.dumps(self.softmax_only_doc(precision="double")))
        with pytest.raises(ModelLoadError,
                           match=r"^model file field 'precision': 'double' != .*'single'"):
            load_model(tmp_path / "m.json")

    @pytest.mark.parametrize("fields", [{"precision": "single"}, {}], ids=["single", "absent"])
    def test_precision_the_parameters_agree_with_loads(self, tmp_path, fields):
        (tmp_path / "m.json").write_text(json.dumps(self.softmax_only_doc(**fields)))
        assert load_model(tmp_path / "m.json").precision == "single"

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

    @pytest.mark.parametrize("layers", [None, 5])
    def test_layers_not_a_list_rejected(self, tmp_path, layers):
        doc = {"format_version": MODEL_FORMAT_VERSION, "input_shape": [2],
               "num_classes": 2, "layers": layers}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match="at least one layer"):
            load_model(tmp_path / "m.json")

    def test_hyper_not_an_object_rejected(self, tmp_path):
        # a list of conv2d key names has no key the kind does not take
        doc = self.small_conv_doc({0: ["stride"]})
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match="layer 0: 'hyper' must be a JSON object"):
            load_model(tmp_path / "m.json")

    @pytest.mark.parametrize("hyper", [[], 0, False, "", None])
    def test_falsy_hyper_that_is_not_an_object_rejected(self, tmp_path, hyper):
        # only a layer without the key takes the empty object
        doc = self.small_conv_doc({0: hyper})
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match="layer 0: 'hyper' must be a JSON object"):
            load_model(tmp_path / "m.json")
        del doc["layers"][0]["hyper"]
        (tmp_path / "m.json").write_text(json.dumps(doc))
        assert load_model(tmp_path / "m.json").layers[0].stride == 1

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
        if isinstance(hyper, dict):  # the others are bad hyper objects, not bad pools
            with pytest.raises(ContractViolation, match="pool"):
                nn.maxpool2d(hyper["pool"])

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
        with pytest.raises(ContractViolation, match="stride"):
            nn.conv2d(Tensor([[[[1.0]]]]), Tensor([0.0]), stride)

    @staticmethod
    def small_conv_doc(hypers: dict[int, dict] | None = None) -> dict:
        """A conv, relu, maxpool, flatten, dense, softmax model on a 4x4
        image, with layer i's hyper object replaced by hypers[i]."""
        layers = [
            {"kind": "conv2d", "hyper": {"stride": 1, "padding": "valid"},
             "weights": [[[[1.0]]]], "bias": [0.0]},
            {"kind": "relu", "hyper": {}},
            {"kind": "maxpool2d", "hyper": {"pool": [2, 2]}},
            {"kind": "flatten", "hyper": {}},
            {"kind": "dense", "hyper": {}, "weights": [[1.0, 0.0]] * 4, "bias": [0.0, 0.0]},
            {"kind": "softmax", "hyper": {}},
        ]
        for i, hyper in (hypers or {}).items():
            layers[i]["hyper"] = hyper
        return {"format_version": MODEL_FORMAT_VERSION, "input_shape": [4, 4, 1],
                "num_classes": 2, "layers": layers}

    @pytest.mark.parametrize("index, hyper, message", [
        (0, {"stride": 1, "dilation": 2}, "dilation"),
        (0, {"stride": 1, "padding": "same"}, "padding"),
        (2, {"pool": [2, 2], "stride": 3}, "stride"),
        (4, {"stride": 1}, "stride"),
        (5, {"pool": 2}, "pool"),
    ])
    def test_hyper_key_outside_the_kind_rejected(self, tmp_path, index, hyper, message):
        # a key the layer's kind does not read would change nothing the
        # model computes, so the file would not describe the network it runs
        doc = self.small_conv_doc({index: hyper})
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match=f"layer {index}: .*{message}"):
            load_model(tmp_path / "m.json")

    @pytest.mark.parametrize("edit, message", [
        (set_layer(4, weights=[1.0, 0.0, 1.0, 0.0]), r"layer 4: dense weights must be \[in, out\]"),
        (set_layer(4, bias=[0.0]), r"layer 4: dense bias shape must be \[out\]"),
        (set_layer(0, bias=None), "layer 0: conv2d layer needs weights and bias"),
        (set_layer(0, weights=[[1.0]]), "layer 0: conv2d weights must be"),
        (set_layer(0, bias=[0.0, 0.0]), r"layer 0: conv2d bias shape must be \[out_ch\]"),
        (set_field("input_shape", [4, 4]), r"layer 0 \(conv2d\): expects \[h, w, c\] input"),
        (set_field("input_shape", [4, 4, 2]), "layer 0 .*input channels 2 != kernel channels 1"),
        (set_layer(0, weights=[[[[1.0]]] * 5] * 5), "layer 0 .*kernel 5x5 larger than input 4x4"),
        (move_layer(3, 2), r"layer 3 \(maxpool2d\): expects \[h, w, c\] input"),
        (set_layer(2, hyper={"pool": [8, 8]}),
         r"layer 2 \(maxpool2d\): pool 8x8 larger than input 4x4"),
        (set_layer(3, kind="softmax"), r"layer 3 \(softmax\): expects rank-1 input"),
        (move_layer(5, 4), "layer 4: softmax must be the final layer"),
        (set_field("num_classes", 3), r"model output shape \(2,\) != \[num_classes\]=3"),
    ], ids=["dense-weights-rank", "dense-bias", "conv-missing-bias", "conv-weights-rank",
            "conv-bias", "conv-input-rank", "conv-channels", "conv-kernel-size",
            "pool-input-rank", "pool-window-size", "softmax-input-rank", "softmax-not-last",
            "num-classes"])
    def test_layer_chain_errors_name_the_layer(self, tmp_path, edit, message):
        doc = self.small_conv_doc()
        edit(doc)
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match=message):
            load_model(tmp_path / "m.json")

    def check_omitted_hyper_keys(self, tmp_path, p):
        # no stride key gives Layer's stride 1, an integer pool a p x p
        # window; saved back, each layer holds every key of its kind, in order
        doc = self.small_conv_doc({0: {}, 2: {"pool": p}})
        doc["layers"][4]["weights"] = [[1.0, 0.0]] * (4 // p) ** 2
        del doc["layers"][1]["hyper"]
        (tmp_path / "m.json").write_text(json.dumps(doc))
        model = load_model(tmp_path / "m.json")
        assert (model.layers[0].stride, model.layers[2].pool) == (1, (p, p))
        save_model(model, tmp_path / "back.json")
        back = json.loads((tmp_path / "back.json").read_text())
        assert [list(layer["hyper"].items()) for layer in back["layers"]] == [
            list(layer["hyper"].items())
            for layer in self.small_conv_doc({2: {"pool": [p, p]}})["layers"]
        ]

    def test_omitted_hyper_keys_take_defaults_and_are_written(self, tmp_path):
        self.check_omitted_hyper_keys(tmp_path, 2)

    @pytest.mark.parametrize("p", [1, 4])
    def test_integer_pool_of_any_size_takes_a_square_window(self, tmp_path, p):
        self.check_omitted_hyper_keys(tmp_path, p)

    @pytest.mark.parametrize("name", ["lenet1", "lenet5"])
    def test_fixture_round_trip_is_byte_identical(self, tmp_path, name):
        fixture = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / f"{name}.json"
        save_model(load_model(fixture), tmp_path / "m.json")
        assert (tmp_path / "m.json").read_bytes() == fixture.read_bytes()

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
