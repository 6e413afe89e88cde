import json
import tracemalloc

import numpy as np
import pytest

from sarqc.tensorio import (
    MAGIC,
    ManifestError,
    TensorFormatError,
    load_manifest,
    read_tensor,
    read_tensor_header,
    write_manifest,
    write_tensor,
)


class TestTensorRoundTrip:
    def test_float64_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((5, 7))
        p = tmp_path / "a.sqt"
        write_tensor(p, arr)
        back = read_tensor(p)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)
        assert arr.tobytes() == back.tobytes()

    def test_int32_bit_exact(self, tmp_path):
        arr = np.array([[1, -2], [3, 4]], dtype=np.int32)
        p = tmp_path / "b.sqt"
        write_tensor(p, arr)
        back = read_tensor(p)
        assert back.dtype == np.int32
        assert np.array_equal(back, arr)

    def test_rank_one(self, tmp_path):
        arr = np.linspace(0, 1, 9)
        p = tmp_path / "c.sqt"
        write_tensor(p, arr)
        assert np.array_equal(read_tensor(p), arr)

    def test_write_twice_identical_bytes(self, tmp_path):
        arr = np.random.default_rng(1).standard_normal((3, 3))
        p1, p2 = tmp_path / "x.sqt", tmp_path / "y.sqt"
        write_tensor(p1, arr)
        write_tensor(p2, arr)
        assert p1.read_bytes() == p2.read_bytes()


class TestTensorErrors:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.sqt"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(TensorFormatError):
            read_tensor(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.sqt"
        write_tensor(p, np.ones((2, 2)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(TensorFormatError):
            read_tensor(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "t.sqt"
        write_tensor(p, np.ones((2, 2)))
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(TensorFormatError):
            read_tensor(p)

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(TensorFormatError):
            write_tensor(tmp_path / "f.sqt", np.ones(3, dtype=np.float32))

    def test_header_only_read(self, tmp_path):
        p = tmp_path / "h.sqt"
        write_tensor(p, np.zeros((4, 6)))
        dtype, shape = read_tensor_header(p)
        assert dtype == np.dtype("<f8") and shape == (4, 6)


class TestPeakMemory:
    # the payload goes between the file and the array's own buffer; a bytes
    # copy of it on the way doubled the peak of either direction
    @pytest.fixture
    def arr(self):
        return np.random.default_rng(3).standard_normal((1024, 1024))

    def traced_peak(self, fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_write_holds_no_copy_of_the_payload(self, tmp_path, arr):
        p = tmp_path / "w.sqt"
        _, peak = self.traced_peak(lambda: write_tensor(p, arr))
        assert peak < 0.1 * arr.nbytes
        assert p.read_bytes()[-arr.nbytes :] == arr.tobytes()

    def test_read_holds_the_payload_once(self, tmp_path, arr):
        p = tmp_path / "r.sqt"
        write_tensor(p, arr)
        back, peak = self.traced_peak(lambda: read_tensor(p))
        assert peak <= 1.1 * arr.nbytes
        assert back.tobytes() == arr.tobytes()


def make_layer_files(tmp_path, d_out=3, d_in=4, n=6):
    rng = np.random.default_rng(2)
    write_tensor(tmp_path / "w.sqt", rng.standard_normal((d_out, d_in)))
    write_tensor(tmp_path / "x.sqt", rng.standard_normal((d_in, n)))
    return {
        "layer_id": "l0",
        "weights": "w.sqt",
        "calib": "x.sqt",
        "d_out": d_out,
        "d_in": d_in,
        "n": n,
    }


class TestManifest:
    def test_round_trip(self, tmp_path):
        entry = make_layer_files(tmp_path)
        write_manifest(tmp_path / "m.json", [entry], {"method": "rtn"})
        doc = load_manifest(tmp_path / "m.json")
        assert doc["schema"] == 1
        assert doc["layers"][0]["layer_id"] == "l0"
        assert doc["defaults"]["method"] == "rtn"

    def test_duplicate_ids_rejected(self, tmp_path):
        entry = make_layer_files(tmp_path)
        write_manifest(tmp_path / "m.json", [entry, dict(entry)], {})
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "m.json")

    def test_missing_file_rejected(self, tmp_path):
        entry = make_layer_files(tmp_path)
        entry["weights"] = "nope.sqt"
        write_manifest(tmp_path / "m.json", [entry], {})
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "m.json")

    def test_dimension_mismatch_rejected(self, tmp_path):
        entry = make_layer_files(tmp_path)
        entry["d_in"] = 99
        write_manifest(tmp_path / "m.json", [entry], {})
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "m.json")

    @pytest.mark.parametrize("key", ["weights", "calib"])
    @pytest.mark.parametrize("edit", [lambda b: b[:-8], lambda b: b + b"\x00"], ids=["truncated", "padded"])
    def test_payload_length_mismatch_rejected(self, tmp_path, key, edit):
        # the header matches the manifest; only the file's size gives it away
        entry = make_layer_files(tmp_path)
        p = tmp_path / entry[key]
        p.write_bytes(edit(p.read_bytes()))
        write_manifest(tmp_path / "m.json", [entry], {})
        with pytest.raises(TensorFormatError, match="payload length"):
            load_manifest(tmp_path / "m.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{not json")
        with pytest.raises(ManifestError):
            load_manifest(p)

    def test_missing_key(self, tmp_path):
        entry = make_layer_files(tmp_path)
        del entry["n"]
        (tmp_path / "m.json").write_text(json.dumps({"schema": 1, "layers": [entry]}))
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "m.json")
