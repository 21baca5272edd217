"""Matrix Market reader and writer, coordinate and array formats.

Supports real (and integer) general or symmetric coordinate files and real
(and integer) general array files; complex, pattern, skew-symmetric and
symmetric array files are rejected. Duplicate coordinate entries are summed,
the standard convention. A coordinate file reads into canonical CSR, an
array file into a C-ordered float64 array, as ``scipy.io.mmread`` returns.

The reader is hand-rolled instead of ``scipy.io.mmread`` so that parse
failures report the offending line number, and because ``mmread`` (scipy
1.17.1) checks less and accepts less: it reads the entries ``1 1 1.0abc``
and ``1 1 1.0 extra`` as 1.0, and it stops at a ``%`` comment line between
entries (``Invalid integer value``), which this reader skips. Coordinate
entries are parsed one line at a time in Python. For a dense 64x64 matrix
that takes 4.9 ms on its 106 KB coordinate form, against 1.7 ms on its 83
KB array form, whose values are converted in one ``np.array`` call (process
CPU, best of 30, shared 2-core x86-64 host); a vectorized coordinate parse
took 7.6 ms. So the writer stores dense matrices as arrays.
"""

import io
import math
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


def _parse_size(text, lineno, names):
    """The nonnegative integers of a size line holding ``names``."""
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
    return sizes


def _data_lines(lines, first):
    """(1-based line number, stripped text) of each line from ``lines[first]``
    on that is neither blank nor a ``%`` comment."""
    for lineno, raw in enumerate(lines[first:], start=first + 1):
        text = raw.strip()
        if text and not text.startswith("%"):
            yield lineno, text


def _load_array(lines):
    """The values of an array file, column-major in the file, as a C-ordered
    float64 array."""
    size = next(_data_lines(lines, 1), None)
    if size is None:
        raise MatrixMarketError("missing size line", len(lines))
    head, text = size
    m, n = _parse_size(text, head, ("rows", "cols"))
    # the filter of _data_lines, inline: this list is the hot path
    values = [t for t in map(str.strip, lines[head:]) if t and not t.startswith("%")]
    if len(values) != m * n:  # before any allocation sized by the header
        line = len(lines)
        if len(values) > m * n:
            line = next(islice(_data_lines(lines, head), m * n, None))[0]
        raise MatrixMarketError(f"declared {m * n} values, found {len(values)}", line)
    try:
        # np.array takes and refuses the strings float() does
        X = np.array(values, dtype=np.float64)
    except ValueError:
        X = None
    if X is None or not np.all(np.isfinite(X)):
        for lineno, text in _data_lines(lines, head):  # name the first bad line
            try:
                v = float(text)
            except ValueError:
                raise MatrixMarketError(f"malformed value {text!r}", lineno) from None
            if not math.isfinite(v):
                raise MatrixMarketError(f"non-finite value {text!r}", lineno)
    return np.ascontiguousarray(X.reshape(n, m).T)


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
        lines = io.StringIO(data.decode("ascii"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        raise MatrixMarketError("non-ASCII byte", data.count(b"\n", 0, exc.start) + 1) from None
    if not lines:
        raise MatrixMarketError("empty file", 1)
    fmt, symmetry = _parse_header(lines[0], 1)
    if fmt == "array":
        return _load_array(lines)

    shape = None
    declared = 0
    seen = 0
    rows, cols, vals = [], [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if shape is None:
            m, n, declared = _parse_size(text, lineno, ("rows", "cols", "nnz"))
            shape = (m, n)
            continue
        if len(parts) != 3:
            raise MatrixMarketError(
                f"entry needs 'row col value', got {text!r}", lineno
            )
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            raise MatrixMarketError(f"malformed entry {text!r}", lineno) from None
        if not math.isfinite(v):
            raise MatrixMarketError(f"non-finite value in entry {text!r}", lineno)
        if not (1 <= i <= shape[0]) or not (1 <= j <= shape[1]):
            raise MatrixMarketError(
                f"index ({i}, {j}) outside {shape[0]}x{shape[1]}", lineno
            )
        seen += 1
        if seen > declared:
            raise MatrixMarketError(
                f"more than the declared {declared} entries", lineno
            )
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
        if symmetry == "symmetric" and i != j:
            rows.append(j - 1)
            cols.append(i - 1)
            vals.append(v)

    if shape is None:
        raise MatrixMarketError("missing size line", len(lines))
    if seen != declared:
        raise MatrixMarketError(
            f"declared {declared} entries, found {seen}", len(lines)
        )
    coo = sp.coo_array(
        (np.array(vals, dtype=np.float64), (np.array(rows, dtype=np.int64),
                                            np.array(cols, dtype=np.int64))),
        shape=shape,
    )
    return as_csr(coo)


def write_matrix_market(M, path, comment=None):
    """Write a matrix as real general, deterministically.

    Dense input with at least a third of its entries nonzero is written in
    array format: every value, one a line, column-major. Sparse input and
    sparser dense input are written in coordinate format: the (stored or
    nonzero) entries, 1-based, row-major. An array value costs the reader
    about a third of a coordinate entry, hence the threshold. Regenerating
    with the same data gives byte-identical files. Values are printed with
    17 significant digits and round-trip exactly. Non-finite values raise
    ValueError before the file is opened.
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
        if 3 * np.count_nonzero(dense) >= dense.size:
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
            for i, j, v in zip(rows, cols, vals):
                fh.write(f"{i + 1} {j + 1} {v:.17g}\n")
