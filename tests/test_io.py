"""Plain-text persistence: matrices, key-value files, CSV tables."""

import tracemalloc

import numpy as np
import pytest

from nirom import io


class TestMatrixFormat:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((7, 4)) * np.exp(rng.uniform(-30, 30, (7, 4)))
        path = tmp_path / "m.txt"
        io.write_matrix(path, arr)
        back = io.read_matrix(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)  # bit-exact through %.17g

    def test_vector_becomes_column(self, tmp_path):
        path = tmp_path / "v.txt"
        io.write_matrix(path, np.array([1.0, 2.0, 3.0]))
        back = io.read_matrix(path)
        assert back.shape == (3, 1)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 2.0\n")
        with pytest.raises(ValueError, match="bad.txt: column 1 has 0 values"):
            io.read_matrix(path)
        path.write_text("nonsense\n")
        with pytest.raises(ValueError):
            io.read_matrix(path)
        # the right total, one value moved from column 1 to column 0
        path.write_text("2 2\n1.0 2.0 3.0\n4.0\n")
        with pytest.raises(ValueError, match="bad.txt: column 0 has 3 values, expected 2"):
            io.read_matrix(path)
        # a short line is not broadcast across its column
        path.write_text("2 2\n1.0 2.0\n3.0\n")
        with pytest.raises(ValueError, match="bad.txt: column 1 has 1 values"):
            io.read_matrix(path)

    def test_read_holds_the_array_plus_one_column_of_text(self, tmp_path):
        # the size of a convdiff trajectory: 2601 states by 201 steps
        arr = np.random.default_rng(4).standard_normal((2601, 201))
        path = tmp_path / "big.txt"
        io.write_matrix(path, arr)
        tracemalloc.start()
        try:
            back = io.read_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * arr.nbytes
        assert back.flags.f_contiguous
        assert np.array_equal(back.view(np.int64), arr.view(np.int64))

    def test_3d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            io.write_matrix(tmp_path / "x.txt", np.zeros((2, 2, 2)))


class TestKeyValues:
    def test_roundtrip_and_comments(self, tmp_path):
        path = tmp_path / "kv.txt"
        io.write_keyvalues(path, {"alpha": "1.5", "label": "a b = c"})
        text = path.read_text()
        path.write_text("# comment\n\n" + text)
        back = io.read_keyvalues(path)
        assert back["alpha"] == "1.5"
        # value may itself contain '='; only the first split counts
        assert back["label"] == "a b = c"


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        io.write_csv(path, ["a", "b"], [(1, "x"), (2, "y")])
        header, rows = io.read_csv(path)
        assert header == ["a", "b"]
        assert rows == [["1", "x"], ["2", "y"]]


class TestFormatDouble:
    def test_roundtrips_float64(self):
        for v in (1.0 / 3.0, 1e-300, -1.2345678901234567e17, 0.1):
            assert float(io.format_double(v)) == v
