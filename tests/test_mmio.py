"""Matrix Market reader/writer: round trips and line-numbered failures."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaczmat import mmio
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
        ("%%MatrixMarket matrix array real symmetric\n1 1\n1\n", 1),
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
        ("%%MatrixMarket matrix array real general\n2 1\n1.0\n", 3),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0\n% c\n2.0\n\n3.0\n", 7),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0\n1.0abc\n", 4),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0 2.0\n", 3),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0 2.0\n3.0\n", 3),
        ("%%MatrixMarket matrix array real general\n2 1\nnan\n1.0\n", 3),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0\n-inf\n", 4),
        ("%%MatrixMarket matrix array real general\n2 1 2\n1.0\n2.0\n", 2),
        ("%%MatrixMarket matrix array real general\n2 -1\n", 2),
        ("%%MatrixMarket matrix array real general\n% only a comment\n", 2),
        ("%%MatrixMarket matrix array integer symmetric\n1 1\n1\n", 1),
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


@pytest.mark.parametrize("values,found", [("1\n2\n3\n", 3), ("1\n2\n3\n4\n5\n", 5)])
def test_load_array_value_count(tmp_path, values, found):
    path = write_text(tmp_path, f"%%MatrixMarket matrix array real general\n2 2\n{values}")
    with pytest.raises(MatrixMarketError, match=f"declared 4 values, found {found}"):
        load_matrix_market(path)


def test_load_array_rejects_bad_value_with_its_kind(tmp_path):
    head = "%%MatrixMarket matrix array real general\n1 2\n1.5\n"
    with pytest.raises(MatrixMarketError, match="malformed value '0x1p3'"):
        load_matrix_market(write_text(tmp_path, head + "0x1p3\n"))
    with pytest.raises(MatrixMarketError, match="non-finite value 'inf'"):
        load_matrix_market(write_text(tmp_path, head + "inf\n"))


def test_load_array_header_claiming_more_values_than_lines(tmp_path):
    # the value count is checked before anything is allocated for the
    # declared 10^22 values
    path = write_text(tmp_path, "%%MatrixMarket matrix array real general\n"
                                "99999999999 99999999999\n1.0\n2.0\n")
    with pytest.raises(MatrixMarketError, match="declared 9999999999800000000001 values, "
                                                "found 2") as exc:
        load_matrix_market(path)
    assert exc.value.line == 4


def test_load_array_is_column_major(tmp_path):
    path = write_text(
        tmp_path,
        "%%MatrixMarket matrix array integer general\n% comment\n2 3\n1\n2\n\n3\n"
        "% between values\n4\n 5 \n1_000\n",
    )
    M = load_matrix_market(path)
    assert type(M) is np.ndarray and M.dtype == np.float64 and M.flags.c_contiguous
    np.testing.assert_array_equal(M, [[1.0, 3.0, 5.0], [2.0, 4.0, 1000.0]])


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
    assert path.read_text().startswith("%%MatrixMarket matrix array real general\n")
    back = load_matrix_market(path)
    assert type(back) is np.ndarray
    np.testing.assert_array_equal(back, M)


@pytest.mark.parametrize("M", [[[1.0, 2.0]], [[0.0, 0.0, 0.0], [0.0, 0.0, 4.5]]])
def test_roundtrip_nested_list(tmp_path, M):
    # dense array-likes that are not ndarrays, in array and coordinate format
    path = tmp_path / "l.mtx"
    write_matrix_market(M, path)
    back = load_matrix_market(path)
    np.testing.assert_array_equal(back.toarray() if sp.issparse(back) else back, M)


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
VALUES = st.one_of(st.sampled_from(EXTREMES), st.integers(-10**6, 10**6).map(float),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def matrices(draw):
    m = draw(st.sampled_from([1, 2, 5]))
    n = draw(st.sampled_from([1, 3, 4]))
    values = draw(st.lists(VALUES, min_size=m * n, max_size=m * n))
    return np.array(values, dtype=np.float64).reshape(m, n)


def bits(M):
    return M.shape, M.view(np.uint64).tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(matrices())
@example(np.array([[-0.0, 5e-324, -1.7976931348623157e308]]))
@example(np.array([[-0.0], [0.0], [0.0], [1.0]]))
def test_roundtrip_dense_bitwise(tmp_path_factory, M):
    # an array file keeps every value's bits, the sign of zero included; a
    # coordinate file (dense input under a third nonzero) drops -0.0
    path = tmp_path_factory.mktemp("rt") / "m.mtx"
    write_matrix_market(M, path)
    back = load_matrix_market(path)
    if 3 * np.count_nonzero(M) >= M.size:
        assert path.read_text().startswith("%%MatrixMarket matrix array real general\n")
        assert type(back) is np.ndarray and back.flags.c_contiguous
        assert bits(back) == bits(M)
    else:
        assert path.read_text().startswith("%%MatrixMarket matrix coordinate real general\n")
        assert bits(back.toarray()) == bits(M + 0.0)  # -0.0 + 0.0 is 0.0


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_write_rejects_non_finite_before_opening(tmp_path, sparse):
    # the reader refuses nan and inf, so the writer must not write them
    M = np.array([[1.0, np.nan], [np.inf, 2.0]])
    path = tmp_path / "bad.mtx"
    with pytest.raises(ValueError, match="NaN or Inf"):
        write_matrix_market(sp.csr_array(M) if sparse else M, path)
    assert not path.exists()


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
    assert lines[0] == "%%MatrixMarket matrix array real general"
    assert lines[1] == "% made by a test"
    assert lines[2] == "% second line"
    assert lines[3:] == ["2 2", "1", "0", "0", "1"]
    back = load_matrix_market(path)
    assert type(back) is np.ndarray
    np.testing.assert_array_equal(back, np.eye(2))


def test_write_rejects_non_2d():
    with pytest.raises(ValueError):
        write_matrix_market(np.zeros(3), "/dev/null")


def test_write_all_zero_matrix(tmp_path):
    path = tmp_path / "z.mtx"
    write_matrix_market(np.zeros((2, 3)), path)
    back = load_matrix_market(path)
    assert back.shape == (2, 3)
    assert back.nnz == 0


COORD = "%%MatrixMarket matrix coordinate real general\n"
ARRAY = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize("body,line,message", [
    # three tokens a line, not 3 nnz tokens in all: the first short line fails
    (COORD + "2 2 2\n1 1\n2 2 1.0 5\n", 3, "entry needs 'row col value', got '1 1'"),
    # lines end at "\n" only: "\x0c" is whitespace inside a line
    (COORD + "2 2 2\n1 1 1.5\x0c2 2 2.5\n", 3, "entry needs 'row col value'"),
    (ARRAY + "2 1\n1.5\x0c2.5\n3\n", 3, "malformed value '1.5\\x0c2.5'"),
    # a lone CR ends a line, as CRLF does
    (COORD.replace("\n", "\r") + "2 2 2\r1 1 1.5\r2 3 2.5\r", 4, "index (2, 3) outside 2x2"),
    (ARRAY.replace("\n", "\r\n") + "2 1\r\n1.5\r\nx\r\n", 4, "malformed value 'x'"),
    # exactly nnz (m n) lines follow, one of them a comment or blank
    (COORD + "2 2 2\n1 1 1.5\n% c\n", 4, "declared 2 entries, found 1"),
    (COORD + "2 2 2\n1 1 1.5\n\n", 4, "declared 2 entries, found 1"),
    (ARRAY + "2 1\n1.5\n% c\n", 4, "declared 2 values, found 1"),
    (ARRAY + "2 1\n\n1.5\n", 4, "declared 2 values, found 1"),
    # an index past int64 is outside the matrix, not an overflow
    (COORD + "2 2 1\n99999999999999999999 1 1.0\n", 3, "index (99999999999999999999, 1)"),
])
def test_load_error_names_the_first_bad_line(tmp_path, body, line, message):
    path = tmp_path / "m.mtx"
    path.write_bytes(body.encode("ascii"))
    with pytest.raises(MatrixMarketError, match=f"^line {line}: ") as exc:
        load_matrix_market(path)
    assert exc.value.line == line
    assert message in str(exc.value)


@pytest.mark.parametrize("body,expect", [
    (COORD + "2 2 2\n1\x0c1 1.5\n2 2\x0b2.5\x1c\n", [[1.5, 0.0], [0.0, 2.5]]),
    (COORD.replace("\n", "\r\n") + "2 2 2\r\n1 1 1.5\r\n2 2 2.5\r\n", [[1.5, 0.0], [0.0, 2.5]]),
    (COORD.replace("\n", "\r") + "2 2 2\r1 1 1.5\r2 2 2.5\r", [[1.5, 0.0], [0.0, 2.5]]),
    (COORD + "2 10 2\n+1 1_0 1_0.5\n2 +2 +3\n", [[0.0] * 9 + [10.5], [0.0, 3.0] + [0.0] * 8]),
    (ARRAY + "2 1\n\x1c1.5\n2.5\x0b\n", [[1.5], [2.5]]),
    (ARRAY.replace("\n", "\r") + "2 1\r% c\r1.5\r\r2.5\r", [[1.5], [2.5]]),
])
def test_load_reads_odd_whitespace_line_ends_and_tokens(tmp_path, body, expect):
    path = tmp_path / "m.mtx"
    path.write_bytes(body.encode("ascii"))
    M = load_matrix_market(path)
    np.testing.assert_array_equal(M.toarray() if sp.issparse(M) else M, expect)


@pytest.mark.parametrize("entry", ["99999999999999999998 1 1.0", "1 1 1.0"])
def test_load_rejects_a_size_past_int64(tmp_path, entry):
    # no sparse array takes such a shape, and its indices may pass int64
    path = write_text(tmp_path, f"{COORD}% c\n99999999999999999999 1 1\n{entry}\n")
    with pytest.raises(MatrixMarketError, match="size past the int64 index range") as exc:
        load_matrix_market(path)
    assert exc.value.line == 3


def test_load_names_a_bad_entry_past_the_first_slice(tmp_path):
    nnz = mmio.ENTRY_SLICE + 5
    entries = [f"{k % 3 + 1} {k % 2 + 1} {k}.5" for k in range(nnz)]
    entries[mmio.ENTRY_SLICE + 2] = "1 1 1.0abc"
    path = write_text(tmp_path, f"{COORD}% c\n3 2 {nnz}\n" + "\n".join(entries) + "\n")
    with pytest.raises(MatrixMarketError, match="malformed entry '1 1 1.0abc'") as exc:
        load_matrix_market(path)
    assert exc.value.line == 3 + mmio.ENTRY_SLICE + 3


def test_load_symmetric_expands_in_file_order(tmp_path):
    # each off-diagonal entry is followed by its mirror, so duplicates sum in
    # that order: at (2, 1) 1e16 + 1 - 1e16 is 0.0 (stored), not 1.0
    path = write_text(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n"
                                "2 2 4\n1 1 2\n2 1 1e16\n1 2 1\n2 1 -1e16\n")
    M = load_matrix_market(path)
    assert M.indptr.tolist() == [0, 2, 3]
    assert M.indices.tolist() == [0, 1, 0]
    assert M.data.tolist() == [2.0, 0.0, 0.0]


@pytest.mark.parametrize("size", ["2 3 1", "3 2 1"])
def test_load_rejects_symmetric_non_square_at_its_size_line(tmp_path, size):
    # symmetric storage holds square matrices only; an entry past the smaller
    # side must not reach scipy's bare ValueError
    path = write_text(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n"
                                f"% c\n{size}\n1 3 1.0\n")
    with pytest.raises(MatrixMarketError, match="square") as exc:
        load_matrix_market(path)
    assert exc.value.line == 3


def test_load_symmetric_square_is_its_general_form_bitwise(tmp_path):
    sym = write_text(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n"
                               "% c\n3 3 3\n1 1 0.1\n3 1 -2.5e-300\n2 2 7\n", "s.mtx")
    full = write_text(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                                "3 3 4\n1 1 0.1\n1 3 -2.5e-300\n2 2 7\n3 1 -2.5e-300\n",
                      "g.mtx")
    M, expect = load_matrix_market(sym), load_matrix_market(full)
    for name in ("indptr", "indices"):
        np.testing.assert_array_equal(getattr(M, name), getattr(expect, name))
    assert M.data.tobytes() == expect.data.tobytes()


@st.composite
def csr_matrices(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                          max_size=m * n, unique=True))
    values = draw(st.lists(VALUES, min_size=len(cells), max_size=len(cells)))
    rows, cols = [i for i, _ in cells], [j for _, j in cells]
    return sp.csr_array((np.array(values, dtype=np.float64), (rows, cols)), shape=(m, n))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(csr_matrices())
def test_roundtrip_csr_bitwise(tmp_path_factory, M):
    # explicit zeros, -0.0 and subnormals come back as they were stored
    path = tmp_path_factory.mktemp("rt") / "m.mtx"
    write_matrix_market(M, path)
    back = load_matrix_market(path)
    assert back.shape == M.shape
    for name in ("indptr", "indices"):
        np.testing.assert_array_equal(getattr(back, name), getattr(M, name))
    assert back.data.view(np.uint64).tobytes() == M.data.view(np.uint64).tobytes()


def test_write_coordinate_bytes(tmp_path):
    # pinned: the bytes the writer gave when it wrote one entry at a time
    S = sp.coo_array((np.array([7.0, 1 / 3, 1.5, 0.0, -2e-300]),
                      (np.array([2, 1, 0, 1, 0]), np.array([3, 0, 1, 2, 3]))), shape=(3, 4))
    write_matrix_market(S, tmp_path / "s.mtx")
    assert (tmp_path / "s.mtx").read_bytes() == (
        b"%%MatrixMarket matrix coordinate real general\n3 4 5\n1 2 1.5\n"
        b"1 4 -2.0000000000000001e-300\n2 1 0.33333333333333331\n2 3 0\n3 4 7\n")
    D = np.array([[0.0, 0.1, 0.0, 0.0], [0.0, 0.0, 0.0, -1e300], [5e-324, 0.0, 0.0, 0.0]])
    write_matrix_market(D, tmp_path / "d.mtx", comment="dense under a third")
    assert (tmp_path / "d.mtx").read_bytes() == (
        b"%%MatrixMarket matrix coordinate real general\n% dense under a third\n3 4 3\n"
        b"1 2 0.10000000000000001\n2 4 -1.0000000000000001e+300\n"
        b"3 1 4.9406564584124654e-324\n")


def test_load_coordinate_peak_memory(tmp_path):
    # the entries are converted a slice at a time: tokens for the whole file
    # at once, or a Python object per token kept, would take more
    M = sp.random_array((2000, 2000), density=50_000 / 4e6, rng=np.random.default_rng(5))
    path = tmp_path / "big.mtx"
    write_matrix_market(M, path)
    tracemalloc.start()
    try:
        back = load_matrix_market(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.nnz == 50_000
    assert peak < 8 * path.stat().st_size
