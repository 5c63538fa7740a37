"""Exact linear algebra over fixed monomial bases, in integers.

An IntMatrix is stored sparsely in one of two forms.  A row-built matrix
holds one dict per row mapping column index to a nonzero int; a
column-built one (IntMatrix.from_columns) holds only its columns in
compressed form (columns: three flat int arrays) and derives its rows
afresh whenever a reader asks for them, keeping none.  Module harmonics
builds the Laplacian of a factor ring row by row, reads r2 off it, and
assembles the matrices of a mixed ring straight into columns;
operator_matrix, the int matrix of any map applied to each whole basis
monomial, is the tests' reference for all of them.  For products with one
sparse vector at a time, apply_columns(A, vec) reads the columns of A,
which a row-built A compresses once and holds, so the cached matrices of
module harmonics are compressed once for all their readers.  matmul forms
each column of a product as the first factor applied to a column of the
second, and returns the product column-built; kernel reads the rows of a
column-built matrix straight off its columns.  So kernels, products and
ranks make no Fraction.  Outside this module only harmonics reads the
arrays, to assemble mixed-ring matrices and to check the leads of r2.

Elimination runs fraction-free over integers.  A row's content (the gcd
of its entries) is reduced once per pivot row, not after
every elimination step: when a row becomes a pivot of the forward
elimination, after its back-substitution, and on the remainder of a
containment test, so every row that leaves the module is primitive with a
positive lead.  The entries of a row between two reductions grow by the
pivot factors it meets.  On the Fischer decomposition of (4|8), the
largest entry an elimination step returns has 20 bits at k = 10 and 27 at
k = 12, against 17 and 23 with a gcd pass after every step; at k = 10 its
148583 steps take 77634 content passes, where a pass per step takes 210606.

A Subspace is held by its canonical basis in integers: the primitive integer
multiples of its reduced row echelon rows.  Each row has content 1, a
positive entry at its pivot (its leading column), and a zero at every pivot
column other than its own.  Dividing each row by its pivot entry gives the
rational RREF and scaling an RREF row by the least common multiple of its
denominators gives the primitive row back, so the two forms determine each
other: two subspaces are equal iff their ambients agree and their rows are
identical.  Kernels, intersections, containment and ranks all work on
these integer rows.  Fractions appear only at the polynomial boundary:
_int_row scales a row of rational coordinates (the coordinates of a
polynomial with Fraction coefficients) to its primitive integer multiple, and
_fraction_row divides a canonical row by its pivot for subspace_polynomials.

Every canonical row is zero at every pivot column other than its own.  So a
vector is reduced by a subspace by eliminating, with the row of each pivot in
its support, that pivot's column, in any order: no elimination changes
whether the vector is zero at another pivot.  Kernel assembly and
back-substitution rest on the same fact.

The kernel needs a single elimination.  A's columns are reversed
(j -> cols-1-j) before the echelon, so in original indices each canonical row
has its pivot p and its other entries only at free columns f < p.  The null
vector of a free column f is e_f minus, for each row holding c at f with
pivot entry d, c/d at that row's pivot p > f.  It has a 1 at f, its other
nonzeros only at pivot columns above f, and so a zero at every other free
column.  Its leading column is f and no other null vector is nonzero there,
so, sorted by f, the null vectors already are the canonical basis of ker A
and need no second elimination.  Scaled by the lcm of the pivot entries d
involved and divided by its content, each is the primitive integer row.

Columns are positions in the canonical monomial basis of one homogeneous
degree, so a Subspace can be tagged with its (signature, degree) ambient and
converted back and forth between rows and polynomials.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .superpoly import SuperPolynomial, SuperSignature, basis_index, monomial_basis

Rational = Union[int, Fraction]


class IntMatrix:
    """Immutable sparse matrix of ints, held by its rows, one dict per row
    (column -> nonzero int), or by its compressed columns only
    (from_columns).

    The constructors trust their input, as Subspace's does; from_rows is
    the checked entry.
    """

    __slots__ = ("rows", "cols", "_data", "_columns")

    def __init__(self, cols: int, data: Sequence[Mapping[int, int]]):
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", tuple(data))
        object.__setattr__(self, "_columns", None)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(
        cls, cols: int, rows: Iterable[Mapping[int, int] | Sequence[int]]
    ) -> "IntMatrix":
        """The matrix of rows given as dicts or dense sequences of ints;
        zeros are dropped.  Raises ValueError for a column out of range and
        TypeError for an entry that is not an int (bool included)."""
        data = []
        for r in rows:
            row = {}
            for j, v in r.items() if isinstance(r, Mapping) else enumerate(r):
                if not 0 <= j < cols:
                    raise ValueError(f"column {j} out of range 0..{cols - 1}")
                if type(v) is not int:
                    raise TypeError(f"matrix entry {v!r} is not an int")
                if v:
                    row[j] = v
            data.append(row)
        return cls(cols, data)

    @classmethod
    def from_columns(cls, rows: int, data: Iterable[tuple[list[int], list[int]]]) -> "IntMatrix":
        """The matrix with `rows` rows whose column j is the j-th pair of
        lists (row indices, entries) of `data`, the rows ascending and the
        entries nonzero.  It is written straight into the arrays of columns
        and holds no row; an entry out of the C int range raises
        OverflowError."""
        starts, targets, entries = array("i", [0]), array("i"), array("i")
        for column_rows, column_entries in data:
            targets.fromlist(column_rows)
            entries.fromlist(column_entries)
            starts.append(len(targets))
        A = cls.__new__(cls)
        object.__setattr__(A, "rows", rows)
        object.__setattr__(A, "cols", len(starts) - 1)
        object.__setattr__(A, "_data", None)
        object.__setattr__(A, "_columns", (starts, targets, entries))
        return A

    def row_dicts(self) -> tuple[Mapping[int, int], ...]:
        """The rows, as dicts.  A column-built matrix derives them from its
        columns on every call and does not keep them."""
        if self._data is None:
            return tuple(_column_rows(self))
        return self._data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.row_dicts() == other.row_dicts()
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self._data is None:
            nnz = len(self._columns[1])
        else:
            nnz = sum(len(r) for r in self._data)
        return f"IntMatrix({self.rows}x{self.cols}, nnz={nnz})"


# -- integer row elimination -------------------------------------------------


def _int_row(row: Mapping[int, Rational]) -> dict[int, int]:
    """The primitive integer multiple of a row (content 1, positive leading
    entry), as a new dict.  A row of ints is only copied and reduced; an
    entry that is neither an int nor a Fraction (a bool, a float) raises
    TypeError."""
    den = 1
    ints = True
    for v in row.values():
        if type(v) is not int:
            if not isinstance(v, Fraction):
                raise TypeError(f"row entry {v!r} is neither an int nor a Fraction")
            ints = False
            d = v.denominator
            if d != 1:
                den = den * d // gcd(den, d)
    if not ints:
        out = {j: v.numerator * (den // v.denominator) for j, v in row.items() if v}
    elif 0 in row.values():
        out = {j: v for j, v in row.items() if v}
    else:
        out = dict(row)
    return _reduce_content(out)


def _reduce_content(row: dict[int, int]) -> dict[int, int]:
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    lead = min(row)
    if row[lead] < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int) -> dict[int, int]:
    """Cross-multiply col out of row using pivot; row is consumed.  The
    result's content is not reduced: callers reduce once per row."""
    a = pivot[col]
    b = row[col]
    g = gcd(a, b)
    fa, fb = a // g, b // g
    if fa != 1:
        for j in row:
            row[j] *= fa
    for j, v in pivot.items():
        nv = row.get(j, 0) - fb * v
        if nv:
            row[j] = nv
        else:
            row.pop(j, None)
    return row


def _echelon(rows: Iterable[Mapping[int, Rational]]) -> dict[int, dict[int, int]]:
    """Forward elimination of int or rational rows, each first made its
    primitive integer multiple by _int_row (the inputs are not changed);
    returns a map from pivot column to pivot row.  A row's content is
    reduced once more only when it becomes a pivot after eliminations, so
    every pivot row is primitive with a positive lead."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _int_row(row)
        eliminated = False
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _reduce_content(row) if eliminated else row
                break
            row = _eliminate(row, piv, lead)
            eliminated = True
    return pivots


def _rref_fraction_rows(rows: Iterable[Mapping[int, Rational]]) -> list[dict[int, int]]:
    """Canonical primitive integer RREF rows (module docstring), sorted by
    pivot, zero rows dropped.

    The name predates the integer form: the benchmark's tracer
    (perfbench/tracing.py) and the test that counts eliminations patch this
    function by name, so it keeps the name until the benchmark reads another.

    Back-substitution runs from the last pivot up.  The rows below are then
    fully reduced, so clearing a pivot column brings in nonzeros only at
    non-pivot columns, and each row clears just the pivot columns it holds.
    A row that cleared any is reduced once afterwards, so each row leaves
    primitive with a positive pivot.
    """
    pivots = _echelon(rows)
    leads = sorted(pivots)
    for lead in reversed(leads):
        row = pivots[lead]
        cleared = [j for j in row if j != lead and j in pivots]
        for col in cleared:
            row = _eliminate(row, pivots[col], col)
        if cleared:
            pivots[lead] = _reduce_content(row)
    return [pivots[lead] for lead in leads]


def _fraction_row(row: Mapping[int, int]) -> dict[int, Fraction]:
    """A canonical integer row divided by its pivot entry: the RREF row."""
    d = row[min(row)]
    return {j: Fraction(v, d) for j, v in row.items()}


def rank(rows: Iterable[Mapping[int, Rational]]) -> int:
    """Rank of the span of rows (column -> int or Fraction); the rows are
    not changed."""
    return len(_echelon(rows))


class Subspace:
    """Subspace of a based vector space, held by its canonical primitive
    integer RREF rows (module docstring), sorted by pivot.

    ``ambient`` is the (signature, degree) pair naming the monomial basis the
    coordinates refer to, or None for a bare coordinate space.  Construct
    with from_rows, zero or kernel; the constructor trusts its rows
    to be canonical.
    """

    __slots__ = ("ambient", "ambient_dim", "rows")

    def __init__(
        self,
        cols: int,
        rows: Sequence[dict[int, int]],
        ambient: tuple[SuperSignature, int] | None = None,
    ):
        object.__setattr__(self, "ambient_dim", cols)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "ambient", ambient)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(
        cls,
        cols: int,
        rows: Iterable[Mapping[int, Rational]],
        ambient: tuple[SuperSignature, int] | None = None,
    ) -> "Subspace":
        """Span of rows with rational or integer entries.  Raises ValueError
        for a column out of range and TypeError for an entry that is neither
        an int nor a Fraction (bool included)."""
        return cls(cols, _rref_fraction_rows(_checked_columns(cols, rows)), ambient)

    @classmethod
    def zero(cls, cols: int, ambient=None) -> "Subspace":
        return cls(cols, (), ambient)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.ambient != other.ambient or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambients")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    __hash__ = None  # type: ignore[assignment]

    def _pivot_rows(self) -> dict[int, dict[int, int]]:
        return {min(row): row for row in self.rows}

    def contains(self, vec: Mapping[int, Rational]) -> bool:
        return not _reduce_int(self._pivot_rows(), _int_row(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        pivots = self._pivot_rows()
        return not any(_reduce_int(pivots, dict(r)) for r in other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: [U|U] and [V|0] rows; echelon rows with zero left block
        carry an intersection basis in the right block."""
        self._check_compatible(other)
        c = self.ambient_dim
        doubled = [{**r, **{j + c: v for j, v in r.items()}} for r in self.rows]
        pivots = _echelon(doubled + list(other.rows))
        inter_rows = [
            {j - c: v for j, v in row.items()} for lead, row in pivots.items() if lead >= c
        ]
        return Subspace(c, _rref_fraction_rows(inter_rows), self.ambient)

    def __repr__(self) -> str:
        tag = "" if self.ambient is None else f", ambient={self.ambient[0]}@{self.ambient[1]}"
        return f"Subspace(dim={self.dim}, of={self.ambient_dim}{tag})"


def _checked_columns(
    cols: int, rows: Iterable[Mapping[int, Rational]]
) -> Iterable[Mapping[int, Rational]]:
    """The rows, each passed on once its columns are known to lie in
    0..cols-1; a column out of range raises ValueError."""
    for row in rows:
        if row:
            lo, hi = min(row), max(row)
            if lo < 0 or hi >= cols:
                raise ValueError(f"column {lo if lo < 0 else hi} out of range 0..{cols - 1}")
        yield row


def _reduce_int(pivots: Mapping[int, Mapping[int, int]], row: dict[int, int]) -> dict[int, int]:
    """The primitive multiple of row with the column of each pivot in its
    support eliminated; zero iff row lies in the span.  row is consumed."""
    for lead in [j for j in row if j in pivots]:
        row = _eliminate(row, pivots[lead], lead)
    return _reduce_content(row)


def kernel(A: IntMatrix, ambient: tuple[SuperSignature, int] | None = None) -> Subspace:
    """Null space of A, canonical basis, from one elimination of A with its
    columns reversed (module docstring).  The reversed rows of a
    column-built A are read straight off its columns.

    One pass over the nonzeros of the pivot rows collects, per free column,
    the pivot rows that hold it; each null vector is then scaled to integers
    by the lcm of their pivot entries.
    """
    last = A.cols - 1
    pivot_cols = set()
    held: dict[int, list[tuple[int, int, int]]] = {}  # f -> [(pivot col, c, d)]
    if A._data is None:
        reversed_rows = _column_rows(A, reverse=True)
    else:
        reversed_rows = ({last - j: v for j, v in r.items()} for r in A._data)
    for r in _rref_fraction_rows(reversed_rows):
        rp = min(r)
        d = r[rp]
        pc = last - rp
        pivot_cols.add(pc)
        for rf, c in r.items():
            if rf != rp:
                held.setdefault(last - rf, []).append((pc, c, d))
    rows = []
    for f in range(A.cols):
        if f in pivot_cols:
            continue
        terms = held.get(f, ())
        scale = lcm(*(d for _, _, d in terms))
        vec = {f: scale}
        for pc, c, d in terms:
            vec[pc] = -c * (scale // d)
        rows.append(_reduce_content(vec))
    return Subspace(A.cols, rows, ambient)


# -- polynomial coordinates ---------------------------------------------------


def polynomial_vector(p: SuperPolynomial, k: int) -> dict[int, Rational]:
    """Coordinates of a homogeneous polynomial in the canonical degree-k basis."""
    if not p.is_homogeneous(k):
        raise ValueError(f"polynomial is not homogeneous of degree {k}")
    idx = basis_index(p.signature, k)
    return {idx[mono]: c for mono, c in p.terms.items()}


def vector_polynomial(
    signature: SuperSignature, k: int, vec: Mapping[int, Rational]
) -> SuperPolynomial:
    """The polynomial with coordinates `vec` (int or Fraction entries) in
    the degree-k basis.  The monomials are the basis's own and zeros are
    dropped here, so the terms need no validation."""
    basis = monomial_basis(signature, k)
    return SuperPolynomial(signature, {basis[j]: c for j, c in vec.items() if c}, _clean=True)


def span_subspace(
    signature: SuperSignature, k: int, polys: Iterable[SuperPolynomial]
) -> Subspace:
    """Span of degree-k polynomials of `signature`, in the degree-k basis;
    a polynomial of another signature raises ValueError."""
    cols = len(monomial_basis(signature, k))
    rows = []
    for p in polys:
        if p.signature != signature:
            raise ValueError(f"polynomial of {p.signature} in a span over {signature}")
        rows.append(polynomial_vector(p, k))
    return Subspace.from_rows(cols, rows, (signature, k))


def subspace_polynomials(space: Subspace) -> tuple[SuperPolynomial, ...]:
    """Basis rows of an ambient-tagged subspace, as polynomials."""
    if space.ambient is None:
        raise ValueError("subspace carries no monomial ambient")
    sig, k = space.ambient
    return tuple(vector_polynomial(sig, k, _fraction_row(row)) for row in space.rows)


def operator_matrix(
    fn: Callable[[SuperPolynomial], SuperPolynomial],
    signature: SuperSignature,
    k: int,
    shift: int,
) -> IntMatrix:
    """Integer matrix of a map raising degree by `shift`, on the degree-k
    basis: the reference that the assembled Laplacian and r2 matrices of
    module harmonics are tested against.

    Columns follow the basis of P_k, rows the basis of P_(k + shift), both
    of `signature`.  Each basis monomial enters the map with the int
    coefficient 1, so a map with integer rules (laplacian, rsquare_mul)
    computes in ints; a coefficient that is not an int raises TypeError.
    """
    source = monomial_basis(signature, k)
    tidx = basis_index(signature, k + shift)
    data: list[dict[int, int]] = [{} for _ in tidx]
    for j, mono in enumerate(source):
        q = fn(SuperPolynomial(signature, {mono: 1}, _clean=True))
        for tm, c in q:
            if type(c) is not int:
                raise TypeError(f"operator_matrix needs int coefficients, got {c!r}")
            data[tidx[tm]][j] = c
    return IntMatrix(len(source), data)


def columns(A: IntMatrix) -> tuple[array, array, array]:
    """The columns of A in compressed form (starts, rows, entries): column
    j holds entries[x] in row rows[x] for x in starts[j]..starts[j+1]-1,
    ascending in row, in flat arrays of C ints, a tenth of the memory of
    the transposed rows.  A column-built matrix holds them from the start;
    a row-built one builds them on the first call and holds them, so every
    reader of a cached matrix shares one build, and a matrix made in place
    of another has columns of its own.  An entry out of the C int range
    raises OverflowError.  Read by apply_columns, matmul, and module
    harmonics."""
    if A._columns is None:
        object.__setattr__(A, "_columns", _compress(A))
    return A._columns


def _compress(A: IntMatrix) -> tuple[array, array, array]:
    """The arrays of columns(A), built from the rows of a row-built A."""
    starts = array("i", [0]) * (A.cols + 1)
    for row in A._data:
        for j in row:
            starts[j + 1] += 1
    for j in range(A.cols):
        starts[j + 1] += starts[j]
    nnz = starts[-1]
    rows, entries, fill = array("i", [0]) * nnz, array("i", [0]) * nnz, starts[:-1]
    for i, row in enumerate(A._data):
        for j, v in row.items():
            x = fill[j]
            rows[x], entries[x], fill[j] = i, v, x + 1
    return starts, rows, entries


def _column_rows(A: IntMatrix, reverse: bool = False) -> Iterator[dict[int, int]]:
    """The rows of A as new dicts, made one at a time from a row-major
    copy of its column arrays, so a caller that consumes each row holds
    one dict at a time; with reverse, column j is keyed cols-1-j, as
    kernel eliminates."""
    starts, rows, entries = columns(A)
    bounds = array("i", [0]) * (A.rows + 1)
    for i in rows:
        bounds[i + 1] += 1
    for i in range(A.rows):
        bounds[i + 1] += bounds[i]
    keys, values, fill = array("i", rows), array("i", entries), bounds[:-1]
    last = A.cols - 1
    for j in range(A.cols):
        key = last - j if reverse else j
        for x in range(starts[j], starts[j + 1]):
            i = rows[x]
            y = fill[i]
            keys[y], values[y], fill[i] = key, entries[x], y + 1
    for i in range(A.rows):
        yield {keys[y]: values[y] for y in range(bounds[i], bounds[i + 1])}


def apply_columns(A: IntMatrix, vec: Mapping[int, int]) -> dict[int, int]:
    """A vec in integers, for a sparse int vector vec, read through the
    columns that A holds (columns); zeros are dropped."""
    starts, rows, entries = columns(A)
    acc: dict[int, int] = {}
    for source, a in vec.items():
        for x in range(starts[source], starts[source + 1]):
            target = rows[x]
            acc[target] = acc.get(target, 0) + a * entries[x]
    return {t: v for t, v in acc.items() if v}


def matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """Sparse product A B, in integers, column-built: column j is A applied
    to column j of B (apply_columns), so neither factor's rows are read.
    An entry out of the C int range raises OverflowError (columns)."""
    if A.cols != B.rows:
        raise ValueError(f"cannot multiply {A.rows}x{A.cols} by {B.rows}x{B.cols}")
    starts, rows, entries = columns(B)

    def product_column(j: int) -> tuple[list[int], list[int]]:
        image = apply_columns(A, {rows[x]: entries[x] for x in range(starts[j], starts[j + 1])})
        targets = sorted(image)
        return targets, [image[t] for t in targets]

    return IntMatrix.from_columns(A.rows, map(product_column, range(B.cols)))
