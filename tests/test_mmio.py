"""Matrix Market reader/writer: round trips and line-numbered failures."""

import numpy as np
import pytest
import scipy.sparse as sp

from kaczmat.mmio import MatrixMarketError, load_matrix_market, write_matrix_market


def write_text(tmp_path, body, name="m.mtx"):
    path = tmp_path / name
    path.write_text(body)
    return path


def test_load_minimal_file(tmp_path):
    path = write_text(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.5\n",
    )
    M = load_matrix_market(path)
    assert M.shape == (1, 1)
    assert M[0, 0] == 2.5


def test_load_with_comments_and_blank_lines(tmp_path):
    path = write_text(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n"
        "% generated for a test\n"
        "\n"
        "2 3 2\n"
        "% entries follow\n"
        "1 2 1.5\n"
        "\n"
        "2 3 -4\n",
    )
    M = load_matrix_market(path)
    expect = np.array([[0.0, 1.5, 0.0], [0.0, 0.0, -4.0]])
    np.testing.assert_array_equal(M.toarray(), expect)


def test_load_sums_duplicates(tmp_path):
    path = write_text(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n1 1 2.0\n2 2 5\n",
    )
    M = load_matrix_market(path)
    assert M[0, 0] == 3.0
    assert M[1, 1] == 5.0


def test_load_integer_field(tmp_path):
    path = write_text(
        tmp_path,
        "%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 1 7\n",
    )
    M = load_matrix_market(path)
    assert M.dtype == np.float64
    assert M[1, 0] == 7.0


def test_load_symmetric_expands_triangle(tmp_path):
    path = write_text(
        tmp_path,
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1\n2 1 4\n3 2 5\n",
    )
    M = load_matrix_market(path).toarray()
    expect = np.array([[1.0, 4.0, 0.0], [4.0, 0.0, 5.0], [0.0, 5.0, 0.0]])
    np.testing.assert_array_equal(M, expect)


@pytest.mark.parametrize(
    "body,line",
    [
        ("junk\n1 1 0\n", 1),
        ("%%MatrixMarket vector coordinate real general\n1 1 1\n1 1 0\n", 1),
        ("%%MatrixMarket matrix array real general\n1 1\n1\n", 1),
        ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 0 0\n", 1),
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 0\n", 1),
        ("%%MatrixMarket matrix coordinate real\n1 1 1\n1 1 0\n", 1),
        ("%%MatrixMarket matrix coordinate real general\n1 1\n", 2),
        ("%%MatrixMarket matrix coordinate real general\nx 1 1\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n-1 1 0\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n", 4),
    ],
)
def test_load_error_line_numbers(tmp_path, body, line):
    path = write_text(tmp_path, body)
    with pytest.raises(MatrixMarketError) as exc:
        load_matrix_market(path)
    assert exc.value.line == line
    assert f"line {line}:" in str(exc.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_load_rejects_non_finite_entry_with_its_line(tmp_path, value):
    path = write_text(
        tmp_path,
        f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 {value}\n",
    )
    with pytest.raises(MatrixMarketError, match="non-finite") as exc:
        load_matrix_market(path)
    assert exc.value.line == 4


def test_load_rejects_non_ascii_byte_with_its_line(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n"
                     b"% caf\xc3\xa9\n2 2 1\n1 1 1.0\n")
    with pytest.raises(MatrixMarketError, match="non-ASCII byte") as exc:
        load_matrix_market(path)
    assert exc.value.line == 2


def test_load_too_few_entries(tmp_path):
    path = write_text(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
    )
    with pytest.raises(MatrixMarketError, match="declared 2 entries, found 1"):
        load_matrix_market(path)


def test_load_missing_size_line(tmp_path):
    path = write_text(tmp_path, "%%MatrixMarket matrix coordinate real general\n")
    with pytest.raises(MatrixMarketError, match="missing size line"):
        load_matrix_market(path)


def test_load_empty_file(tmp_path):
    path = write_text(tmp_path, "")
    with pytest.raises(MatrixMarketError):
        load_matrix_market(path)


def test_roundtrip_sparse(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((10, 6))
    M[np.abs(M) < 0.9] = 0.0
    S = sp.csr_array(M)
    path = tmp_path / "s.mtx"
    write_matrix_market(S, path)
    back = load_matrix_market(path)
    np.testing.assert_array_equal(back.toarray(), M)  # %.17g is exact for doubles


def test_roundtrip_dense_input(tmp_path):
    M = np.array([[0.0, 1.25], [-3.5, 0.0], [0.0, 1e-17]])
    path = tmp_path / "d.mtx"
    write_matrix_market(M, path)
    back = load_matrix_market(path)
    np.testing.assert_array_equal(back.toarray(), M)


def test_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    M = sp.random_array((8, 8), density=0.3, rng=rng)
    p1, p2 = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix_market(M, p1)
    write_matrix_market(M.tocsc(), p2)  # storage order must not leak into bytes
    assert p1.read_bytes() == p2.read_bytes()


def test_write_comment_and_header(tmp_path):
    path = tmp_path / "c.mtx"
    write_matrix_market(np.eye(2), path, comment="made by a test\nsecond line")
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "% made by a test"
    assert lines[2] == "% second line"
    assert lines[3] == "2 2 2"
    back = load_matrix_market(path)
    np.testing.assert_array_equal(back.toarray(), np.eye(2))


def test_write_rejects_non_2d():
    with pytest.raises(ValueError):
        write_matrix_market(np.zeros(3), "/dev/null")


def test_write_all_zero_matrix(tmp_path):
    path = tmp_path / "z.mtx"
    write_matrix_market(np.zeros((2, 3)), path)
    back = load_matrix_market(path)
    assert back.shape == (2, 3)
    assert back.nnz == 0
