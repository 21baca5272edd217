"""Matrix Market reader and writer, coordinate and array formats.

Supports real (and integer) general or (square) symmetric coordinate files and real
(and integer) general array files; complex, pattern, skew-symmetric and
symmetric array files are rejected. Duplicate coordinate entries are summed,
the standard convention. A coordinate file reads into canonical CSR, an
array file into a C-ordered float64 array, as ``scipy.io.mmread`` returns.

The reader is hand-rolled instead of ``scipy.io.mmread`` so that parse
failures report the offending line number, and because ``mmread`` (scipy
1.17.1) checks less and accepts less: it reads the entries ``1 1 1.0abc``
and ``1 1 1.0 extra`` as 1.0, and it stops at a ``%`` comment line between
entries (``Invalid integer value``), which this reader skips. It converts in
bulk: an array file's values with one ``np.array`` call, a coordinate file's
entry lines with one ``np.loadtxt`` call into the structured dtype
``ENTRY``. Coordinate entries with a blank or comment line among them, or
with a token that Python's ``int`` or ``float`` takes and numpy's text
reader refuses (``1_0``), are read one line at a time instead; a bad line
fails the bulk path, and the line-by-line one names it. A failed bulk check of
an array file is followed by one rescan that names the first bad line. For
a dense 64x64 matrix, reading its 106 KB coordinate form takes 2.2-2.6 ms
and its 83 KB array form 1.5-1.8 ms (process CPU, best of 5, 1 BLAS
thread, shared 2-core x86-64 host; in about half of 32 runs, 16 of each
form in alternation, the host ran slower and each read took 1.6-2 times
as long), measured from the checkout with::

    PYTHONPATH=src python3 -m timeit -p -s "import numpy as np, scipy.sparse as sp; \
    from kaczmat import mmio; D = np.random.default_rng(0).standard_normal((64, 64)); \
    mmio.write_matrix_market(sp.csr_array(D), 'm.mtx')" "mmio.load_matrix_market('m.mtx')"

and with ``D`` in place of ``sp.csr_array(D)`` for the array form. So an
array value costs the reader about 0.7 of a coordinate entry, and the two
forms of one matrix read alike at 30-40% of its entries nonzero (two
interleaved sweeps of 64x64 matrices from 20% to all nonzero). The writer
stores a dense matrix as an array where at least half its entries are
nonzero, and as coordinates below that.
"""

import math
import warnings
from array import array
from itertools import islice

import numpy as np
import scipy.sparse as sp

from .matrices import as_csr

BANNER = "%%MatrixMarket"
# the banner's qualifiers in order, each with the values the reader accepts
_QUALIFIERS = {
    "object": ("matrix",),
    "format": ("coordinate", "array"),
    "field": ("real", "integer"),
    "symmetry": ("general", "symmetric"),
}
# a coordinate entry line as numpy's text reader converts it: 1-based row and
# column, then the value
ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("val", np.float64)])


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market content; ``line`` is 1-based."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _parse_header(first, lineno):
    parts = first.split()
    if not parts or parts[0] != BANNER:
        raise MatrixMarketError(
            f"missing '{BANNER}' banner (got {first.strip()!r})", lineno
        )
    fields = [p.lower() for p in parts[1:]]
    if len(fields) != 4:
        raise MatrixMarketError(
            f"banner needs exactly 4 qualifiers: {' '.join(_QUALIFIERS)}", lineno
        )
    for (name, allowed), value in zip(_QUALIFIERS.items(), fields):
        if value not in allowed:
            only = " or ".join(f"'{a}'" for a in allowed)
            raise MatrixMarketError(f"unsupported {name} {value!r}, only {only}", lineno)
    if fields[1] == "array" and fields[3] != "general":
        raise MatrixMarketError(f"unsupported array symmetry {fields[3]!r}, only 'general'",
                                lineno)
    return fields[1], fields[3]


def _parse_size(lines, names):
    """The 1-based number of the size line, the first data line after the
    banner, and its nonnegative integers ``names``."""
    size = next(_data_lines(lines, 1), None)
    if size is None:
        raise MatrixMarketError("missing size line", len(lines))
    lineno, text = size
    parts = text.split()
    if len(parts) != len(names):
        raise MatrixMarketError(
            f"size line needs '{' '.join(names)}', got {text!r}", lineno
        )
    try:
        sizes = [int(p) for p in parts]
    except ValueError:
        raise MatrixMarketError(f"non-integer size line {text!r}", lineno) from None
    if min(sizes) < 0:
        raise MatrixMarketError("negative size", lineno)
    return lineno, sizes


def _data_lines(lines, first):
    """(1-based line number, stripped text) of each line from ``lines[first]``
    on that is neither blank nor a ``%`` comment."""
    for lineno, raw in enumerate(lines[first:], start=first + 1):
        text = raw.strip()
        if text and not text.startswith("%"):
            yield lineno, text


def _floats(values):
    """``values`` as a float64 array, or None if one is malformed or not
    finite. np.array takes and refuses the strings float() does, with or
    without the whitespace around them."""
    try:
        X = np.array(values, dtype=np.float64)
    except ValueError:
        return None
    return X if np.all(np.isfinite(X)) else None


def _load_array(lines):
    """The values of an array file, column-major in the file, as a C-ordered
    float64 array."""
    head, (m, n) = _parse_size(lines, ("rows", "cols"))
    # exactly m n lines follow: convert them as they are; a blank or comment
    # line among them fails the conversion
    X = _floats(lines[head:]) if len(lines) - head == m * n else None
    if X is None:
        values = [text for _, text in _data_lines(lines, head)]
        if len(values) != m * n:  # before any allocation sized by the header
            line = len(lines)
            if len(values) > m * n:
                line = next(islice(_data_lines(lines, head), m * n, None))[0]
            raise MatrixMarketError(f"declared {m * n} values, found {len(values)}", line)
        X = _floats(values)
    if X is None:
        for lineno, text in _data_lines(lines, head):  # name the first bad line
            try:
                v = float(text)
            except ValueError:
                raise MatrixMarketError(f"malformed value {text!r}", lineno) from None
            if not math.isfinite(v):
                raise MatrixMarketError(f"non-finite value {text!r}", lineno)
    return np.ascontiguousarray(X.reshape(n, m).T)


def _entries(lines, shape):
    """The 0-based int64 rows and columns and the float64 values of the
    nonempty coordinate entry ``lines``, or None if a line fails a check or
    numpy's reader refuses or warns on it."""
    try:
        # a warning, such as an older numpy's on a float string in an
        # integer field, fails the conversion too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = np.loadtxt(lines, dtype=ENTRY, comments=None, ndmin=1)
    except (ValueError, Warning):  # ValueError also for an index past int64
        return None
    rows, cols, vals = found["row"], found["col"], found["val"]
    m, n = shape
    # loadtxt skips blank lines: each line must give one entry
    if not (found.size == len(lines) and np.all(np.isfinite(vals))
            and np.all((rows >= 1) & (rows <= m)) and np.all((cols >= 1) & (cols <= n))):
        return None
    rows -= 1
    cols -= 1
    return rows, cols, vals


def _entries_by_line(lines, head, shape, declared):
    """The entries after line ``head``, as ``_entries`` gives them, read one
    line at a time past blank and comment lines. Raises the error of the
    first line that fails a check, else that of the entry count."""
    rows, cols, vals = array("q"), array("q"), array("d")  # no object per entry
    for lineno, text in _data_lines(lines, head):
        parts = text.split()
        if len(parts) != 3:
            raise MatrixMarketError(f"entry needs 'row col value', got {text!r}", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            raise MatrixMarketError(f"malformed entry {text!r}", lineno) from None
        if not math.isfinite(v):
            raise MatrixMarketError(f"non-finite value in entry {text!r}", lineno)
        if not (1 <= i <= shape[0]) or not (1 <= j <= shape[1]):
            raise MatrixMarketError(f"index ({i}, {j}) outside {shape[0]}x{shape[1]}", lineno)
        if len(vals) == declared:
            raise MatrixMarketError(f"more than the declared {declared} entries", lineno)
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
    if len(vals) != declared:
        raise MatrixMarketError(f"declared {declared} entries, found {len(vals)}", len(lines))
    return (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=np.float64))


def _load_coordinate(lines, symmetric):
    """The entries of a coordinate file as canonical CSR."""
    head, (m, n, declared) = _parse_size(lines, ("rows", "cols", "nnz"))
    if max(m, n) > np.iinfo(np.int64).max:  # no sparse array indexes it
        raise MatrixMarketError("size past the int64 index range", head)
    if symmetric and m != n:  # the format stores only square matrices as symmetric
        raise MatrixMarketError(f"symmetric matrix must be square, got {m}x{n}", head)
    # in bulk only at the declared count, so that a header's nnz sizes no
    # array, and not at 0, on which loadtxt warns
    found = _entries(lines[head:], (m, n)) if len(lines) - head == declared > 0 else None
    if found is None:  # blank or comment lines among the entries, or a bad line
        found = _entries_by_line(lines, head, (m, n), declared)
    rows, cols, vals = found
    if symmetric:  # each off-diagonal entry followed by its mirror, in file order
        reps = 1 + (rows != cols)
        rows, cols, vals = (np.repeat(a, reps) for a in (rows, cols, vals))
        mirror = np.cumsum(reps)[reps == 2] - 1
        rows[mirror], cols[mirror] = cols[mirror], rows[mirror]
    return as_csr(sp.coo_array((vals, (rows, cols)), shape=(m, n)))


def load_matrix_market(path):
    """Read a real/integer Matrix Market file.

    A coordinate file (general or symmetric) gives canonical CSR: indices are
    converted from the file's 1-based convention, symmetric storage is
    expanded to both triangles and duplicates are summed. An array file
    (general only) gives a C-ordered float64 ``ndarray``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MatrixMarketError("non-ASCII byte", data.count(b"\n", 0, exc.start) + 1) from None
    del data  # the bytes and the text, held beside the lines, would raise the peak
    if "\r" in text:  # universal newlines, as a file read in text mode has them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # lines end at "\n" only, as readlines() ends them: "\x0c" or "\x1c" is
    # whitespace inside a line, where str.splitlines() would end it
    lines = text.split("\n")
    del text
    if lines[-1] == "":  # the end of the last line, or an empty file
        lines.pop()
    if not lines:
        raise MatrixMarketError("empty file", 1)
    fmt, symmetry = _parse_header(lines[0], 1)
    if fmt == "array":
        return _load_array(lines)
    return _load_coordinate(lines, symmetry == "symmetric")


def write_matrix_market(M, path, comment=None):
    """Write a matrix as real general, deterministically.

    Dense input with at least half of its entries nonzero is written in
    array format: every value, one a line, column-major. Sparse input and
    sparser dense input are written in coordinate format: the (stored or
    nonzero) entries, 1-based, row-major. An array value costs the reader
    about 0.7 of a coordinate entry (see the module docstring), so reading
    breaks even at 30-40% of the entries nonzero, below the writer's half.
    Regenerating with the same data gives byte-identical files. Values are
    printed with 17 significant digits and round-trip exactly. Non-finite
    values raise ValueError before the file is opened.
    """
    fmt = "coordinate"
    if sp.issparse(M):
        coo = M.tocoo()
        m, n = coo.shape
        order = np.lexsort((coo.col, coo.row))
        rows, cols, vals = coo.row[order], coo.col[order], coo.data[order]
    else:
        dense = np.asarray(M, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {dense.shape}")
        m, n = dense.shape
        if 2 * np.count_nonzero(dense) >= dense.size:
            fmt, vals = "array", dense.ravel(order="F")
        else:
            rows, cols = np.nonzero(dense)
            vals = dense[rows, cols]
    if not np.all(np.isfinite(vals)):
        raise ValueError("matrix contains NaN or Inf entries")
    with open(path, "wt", encoding="ascii", newline="\n") as fh:
        fh.write(f"{BANNER} matrix {fmt} real general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        if fmt == "array":
            fh.write(f"{m} {n}\n")
            fh.writelines(f"{v:.17g}\n" for v in vals.tolist())
        else:
            fh.write(f"{m} {n} {len(vals)}\n")
            fh.writelines(f"{i} {j} {v:.17g}\n" for i, j, v in
                          zip((rows + 1).tolist(), (cols + 1).tolist(), vals.tolist()))
