"""Property tests of Matrix Market reading and writing.

The reader is pure Python, so hostile files run in-process: the only
allowed outcomes are a matrix or one of the typed ingestion errors the CLI
maps to exit code 3.  Writing and reading back must return every array bit
for bit, at exactly the path given.
"""

import os

import numpy as np
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from kaczlab import (
    NonFiniteEntry,
    ParseError,
    RowColMatrix,
    UnsupportedField,
    ZeroRowOrColumn,
    build_matrix,
    read_matrix_market,
    write_matrix_market,
)

# mostly small counts, so that many files parse, and hostile ones between
_SMALL = st.integers(1, 5)
_COUNTS = st.one_of(_SMALL, _SMALL, st.integers(-2, 0),
                    st.sampled_from([10**8, 10**14, 2**63, -10**12, 10**100]))
_NUMBERS = st.one_of(st.floats().map(repr), st.integers(-3, 3).map(str),
                     st.sampled_from(["5e-324", "1e400", "-1.5", "x", "1e", "0x1f", "1,5",
                                      "1_0", "\xe9"]))
_INDICES = st.integers(0, 6).map(str)
_ENTRIES = st.tuples(_INDICES, _INDICES, _NUMBERS).map(" ".join)
_LINES = st.one_of(
    _ENTRIES, _ENTRIES, _NUMBERS,
    st.lists(st.one_of(_COUNTS.map(str), _NUMBERS, st.just("%")), max_size=4).map(" ".join),
    st.sampled_from(["", "   ", "% a comment", "%"]),
)


@st.composite
def _mm_files(draw) -> str:
    """A header, then either a size line of small or hostile counts over
    random lines, or a well-formed body with lines inserted or dropped;
    lines mix numbers, garbage, wrong field counts, comments and blank
    lines, and the text after the header is sometimes cut anywhere.
    Unsupported headers are few (``test_problems`` covers them), and since
    examples lean to the ends of a range, the common choices sit at both
    ends of each list."""
    fmt = draw(st.sampled_from(["coordinate", "array", "coordinate"]))
    field = draw(st.sampled_from(["real", "pattern", "integer", "real"]))
    symmetry = draw(st.sampled_from(["general", "symmetric", "general"]))
    header = f"%%MatrixMarket matrix {fmt} {field} {symmetry}"
    if draw(st.integers(0, 7)) == 3:
        header = draw(st.sampled_from(["", "%%MatrixMarket matrix", "not a header",
                                       header.upper(), header.replace("real", "complex")]))
    if draw(st.booleans()):
        m = draw(_SMALL)
        n = m if symmetry == "symmetric" else draw(_SMALL)
        value = st.one_of(st.floats(-1e3, 1e3).map(repr), _NUMBERS)
        if fmt == "array":
            body = [f"{m} {n}", *draw(st.lists(value, min_size=m * n, max_size=m * n))]
        else:
            entries = [f"{k % m + 1} {k % n + 1}" + ("" if field == "pattern" else
                                                     " " + draw(value))
                       for k in range(max(m, n))]
            body = [f"{m} {n} {len(entries)}", *entries]
        for _ in range(draw(st.integers(0, 2))):
            body.insert(draw(st.integers(0, len(body))), draw(_LINES))
        if draw(st.integers(0, 3)) == 1:
            del body[draw(st.integers(0, len(body) - 1))]
    else:
        size_fields = draw(st.sampled_from([3 if fmt == "coordinate" else 2] * 4
                                           + [1, 2, 3, 4]))
        body = [*draw(st.lists(st.sampled_from(["", "% c"]), max_size=2)),
                " ".join(draw(st.lists(_COUNTS.map(str), min_size=size_fields,
                                       max_size=size_fields))),
                *draw(st.lists(_LINES, max_size=12))]
    text = "\n".join(body) + "\n"
    if draw(st.integers(0, 3)) == 1:
        text = text[:draw(st.integers(0, len(text)))]
    return header + "\n" + text


@given(text=_mm_files())
def test_reader_fails_only_on_typed_ingestion_errors(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "f.mtx"
    path.write_bytes(text.encode("latin-1"))
    with open(path, encoding="ascii", errors="replace") as fh:
        n_lines = len(fh.read().splitlines())
    try:
        mat = read_matrix_market(str(path))
    except ParseError as exc:
        assert 1 <= exc.line <= n_lines + 1, (exc, text)
    except (UnsupportedField, ZeroRowOrColumn, NonFiniteEntry):
        pass
    else:
        assert isinstance(mat, RowColMatrix)
        assert np.all(np.isfinite(mat.to_dense()))


# a value that alone keeps its line's squared norm above zero
_NORMAL = st.one_of(st.floats(1e-150, 1e300), st.integers(1, 10**9).map(float))
_VALUES = st.one_of(
    st.floats(-1e300, 1e300),
    st.integers(-10**15, 10**15).map(float),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1 / 3,
                     -0.0]),
)


@st.composite
def _matrices(draw) -> RowColMatrix:
    """A sparse or dense matrix with every row and column nonzero, values
    from subnormal to 1e300, and, sometimes, a full first row and column
    among short lines."""
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    dense = np.zeros((m, n))
    for _ in range(draw(st.integers(0, 40))):
        dense[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = draw(_VALUES)
    if draw(st.booleans()):
        dense[0, :] = draw(st.lists(_VALUES, min_size=n, max_size=n))
        dense[:, 0] = draw(st.lists(_VALUES, min_size=m, max_size=m))
    sign = draw(st.sampled_from([1.0, -1.0]))
    for i in range(m):
        dense[i, i % n] = sign * draw(_NORMAL)
    for j in range(n):
        dense[j % m, j] = draw(_NORMAL)
    return build_matrix(sp.csr_matrix(dense) if draw(st.booleans()) else dense)


@given(mat=_matrices(), name=st.sampled_from(["a.mtx", "a.txt", "a"]))
def test_write_read_roundtrip_bit_for_bit(tmp_path_factory, mat, name):
    folder = tmp_path_factory.mktemp("roundtrip")
    write_matrix_market(str(folder / name), mat, comment="roundtrip")
    assert os.listdir(folder) == [name]
    with open(folder / name, encoding="ascii") as fh:
        kind = "coordinate" if mat.is_sparse else "array"
        assert fh.readline() == f"%%MatrixMarket matrix {kind} real general\n"
    back = read_matrix_market(str(folder / name))
    assert (back.is_sparse, back.m, back.n, back.nnz) == (mat.is_sparse, mat.m, mat.n, mat.nnz)
    if mat.is_sparse:
        for attr in ("data", "indices", "indptr"):
            got, want = getattr(back._csr, attr), getattr(mat._csr, attr)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), attr
    else:
        assert back.to_dense().tobytes() == mat.to_dense().tobytes()
