import struct

import numpy as np
import pytest

from neutreno.tensorfile import MAGIC, TensorFileError, load_tensor, save_tensor


class TestRoundTrip:
    @pytest.mark.parametrize("shape", [(3, 4), (7,), (2, 3, 4), (1, 1)])
    def test_bit_exact(self, tmp_path, shape):
        rng = np.random.default_rng(120)
        a = rng.normal(size=shape)
        path = tmp_path / "t.ntt"
        save_tensor(path, a)
        b = load_tensor(path)
        assert b.shape == a.shape
        np.testing.assert_array_equal(a, b)
        assert a.tobytes() == b.tobytes()

    def test_special_values_survive(self, tmp_path):
        a = np.array([[0.0, -0.0], [np.inf, np.nan]])
        path = tmp_path / "special.ntt"
        save_tensor(path, a)
        b = load_tensor(path)
        assert a.tobytes() == b.tobytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "layout.ntt"
        save_tensor(path, np.zeros((2, 3)))
        blob = path.read_bytes()
        assert blob[:8] == MAGIC
        version, rank = struct.unpack_from("<II", blob, 8)
        assert (version, rank) == (1, 2)
        assert struct.unpack_from("<2Q", blob, 16) == (2, 3)
        assert len(blob) == 8 + 8 + 16 + 8 * 6


class TestErrors:
    def _write_valid(self, tmp_path):
        path = tmp_path / "v.ntt"
        save_tensor(path, np.arange(6.0).reshape(2, 3))
        return path

    def test_truncated_payload(self, tmp_path):
        path = self._write_valid(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(TensorFileError,
                           match=r"payload is 47 bytes, expected 48 for dims \(2, 3\)"):
            load_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = self._write_valid(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(TensorFileError,
                           match="file is 10 bytes, shorter than the fixed header"):
            load_tensor(path)

    def test_truncated_dimension_list(self, tmp_path):
        path = self._write_valid(tmp_path)
        path.write_bytes(path.read_bytes()[:24])
        with pytest.raises(TensorFileError, match="file ends inside the dimension list"):
            load_tensor(path)

    def test_wrong_magic(self, tmp_path):
        path = self._write_valid(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(blob))
        with pytest.raises(TensorFileError, match="bad magic b'NOTMAGIC', expected b'NTRNTNSR'"):
            load_tensor(path)

    def test_version_mismatch(self, tmp_path):
        path = self._write_valid(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8, 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(TensorFileError, match="unsupported version 99, expected 1"):
            load_tensor(path)

    def test_trailing_garbage(self, tmp_path):
        path = self._write_valid(tmp_path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(TensorFileError, match="2 bytes of trailing data after payload"):
            load_tensor(path)
