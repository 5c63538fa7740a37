"""Exact rational linear algebra over fixed monomial bases.

Matrices are stored sparsely, one dict per row mapping column index to a
nonzero rational.  Elimination runs fraction-free over integers with per-row
content reduction.

A Subspace is held by its canonical basis in integers: the primitive integer
multiples of its reduced row echelon rows.  Each row has content 1, a
positive entry at its pivot (its leading column), and a zero at every pivot
column other than its own.  Dividing each row by its pivot entry gives the
rational RREF and scaling an RREF row by the least common multiple of its
denominators gives the primitive row back, so the two forms determine each
other: two subspaces are equal iff their ambients agree and their rows are
identical.  Kernels, sums, intersections, containment and ranks all work on
these integer rows; Fractions appear only at the boundary, where basis_matrix,
rref, reduce and subspace_polynomials divide by the pivots.

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

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence

from .superpoly import (
    SuperPolynomial,
    SuperSignature,
    basis_index,
    monomial_basis,
)

_ZERO = Fraction(0)


class RationalMatrix:
    """Immutable sparse matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: Sequence[Mapping[int, Fraction]]):
        if rows != len(data):
            raise ValueError("row count does not match data")
        clean = []
        for r in data:
            row = {}
            for j, v in r.items():
                if not 0 <= j < cols:
                    raise ValueError(f"column {j} out of range 0..{cols - 1}")
                if type(v) is not Fraction:
                    v = Fraction(v)
                if v:
                    row[j] = v
            clean.append(row)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", tuple(clean))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def from_rows(cls, cols: int, rows: Iterable[Mapping[int, Fraction] | Sequence[Fraction]]):
        data = []
        for r in rows:
            if isinstance(r, Mapping):
                data.append(dict(r))
            else:
                data.append({j: Fraction(v) for j, v in enumerate(r) if v})
        return cls(len(data), cols, data)

    def row_dict(self, i: int) -> dict[int, Fraction]:
        return dict(self._data[i])

    def row_dicts(self) -> tuple[Mapping[int, Fraction], ...]:
        return self._data

    def transpose(self) -> "RationalMatrix":
        data: list[dict[int, Fraction]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, v in row.items():
                data[j][i] = v
        return RationalMatrix(self.cols, self.rows, data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows and self.cols == other.cols and self._data == other._data
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={sum(len(r) for r in self._data)})"


# -- integer row elimination -------------------------------------------------


def _int_row(row: Mapping[int, Fraction | int]) -> dict[int, int]:
    den = 1
    for v in row.values():
        den = den * v.denominator // gcd(den, v.denominator)
    out = {j: v.numerator * (den // v.denominator) for j, v in row.items() if v}
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
    """Cross-multiply col out of row using pivot; row is consumed."""
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
    return _reduce_content(row)


def _echelon(int_rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Forward elimination; returns a map from pivot column to pivot row."""
    pivots: dict[int, dict[int, int]] = {}
    for row in int_rows:
        row = _reduce_content(dict(row))
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            row = _eliminate(row, piv, lead)
    return pivots


def _rref_fraction_rows(rows: Iterable[Mapping[int, Fraction | int]]) -> list[dict[int, int]]:
    """Canonical primitive integer RREF rows (module docstring), sorted by
    pivot, zero rows dropped.

    The name predates the integer form: the benchmark's tracer
    (perfbench/tracing.py) and the test that counts eliminations patch this
    function by name, so it keeps the name until the benchmark reads another.

    Back-substitution runs from the last pivot up.  The rows below are then
    fully reduced, so clearing a pivot column brings in nonzeros only at
    non-pivot columns, and each row clears just the pivot columns it holds.
    Content reduction leaves each row primitive with a positive pivot.
    """
    pivots = _echelon(_int_row(r) for r in rows)
    leads = sorted(pivots)
    for lead in reversed(leads):
        row = pivots[lead]
        for col in [j for j in row if j != lead and j in pivots]:
            row = _eliminate(row, pivots[col], col)
    return [pivots[lead] for lead in leads]


def _fraction_row(row: Mapping[int, int]) -> dict[int, Fraction]:
    """A canonical integer row divided by its pivot entry: the RREF row."""
    d = row[min(row)]
    return {j: Fraction(v, d) for j, v in row.items()}


def rref(A: RationalMatrix) -> RationalMatrix:
    """Reduced row echelon form with zero rows dropped."""
    rows = [_fraction_row(r) for r in _rref_fraction_rows(A.row_dicts())]
    return RationalMatrix(len(rows), A.cols, rows)


def rank(A: RationalMatrix | Iterable[Mapping[int, int]]) -> int:
    """Rank of a matrix, or of the span of integer rows (column -> int)."""
    if isinstance(A, RationalMatrix):
        return len(_echelon(_int_row(r) for r in A.row_dicts()))
    return len(_echelon(A))


class Subspace:
    """Subspace of a based vector space, held by its canonical primitive
    integer RREF rows (module docstring), sorted by pivot.

    ``ambient`` is the (signature, degree) pair naming the monomial basis the
    coordinates refer to, or None for a bare coordinate space.  Construct
    with from_rows, zero, kernel or image; the constructor trusts its rows
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
        rows: Iterable[Mapping[int, Fraction | int]],
        ambient: tuple[SuperSignature, int] | None = None,
    ) -> "Subspace":
        """Span of rows with rational or integer entries."""
        return cls(cols, _rref_fraction_rows(rows), ambient)

    @classmethod
    def zero(cls, cols: int, ambient=None) -> "Subspace":
        return cls(cols, (), ambient)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis_matrix(self) -> RationalMatrix:
        """The rational RREF basis, one row per dimension."""
        return RationalMatrix(
            len(self.rows), self.ambient_dim, [_fraction_row(r) for r in self.rows]
        )

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

    def reduce(self, vec: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """Remainder of vec after subtracting its projection along the RREF
        basis rows, exact."""
        pivots = self._pivot_rows()
        v = {j: Fraction(c) for j, c in vec.items() if c}
        for lead in [j for j in v if j in pivots]:
            row = pivots[lead]
            c = v[lead] / row[lead]
            for j, w in row.items():
                nv = v.get(j, _ZERO) - c * w
                if nv:
                    v[j] = nv
                else:
                    del v[j]
        return v

    def contains(self, vec: Mapping[int, Fraction | int]) -> bool:
        return not _reduce_int(self._pivot_rows(), _int_row(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        pivots = self._pivot_rows()
        return not any(_reduce_int(pivots, dict(r)) for r in other.rows)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_rows(self.ambient_dim, self.rows + other.rows, self.ambient)

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
        return Subspace.from_rows(c, inter_rows, self.ambient)

    def __repr__(self) -> str:
        tag = "" if self.ambient is None else f", ambient={self.ambient[0]}@{self.ambient[1]}"
        return f"Subspace(dim={self.dim}, of={self.ambient_dim}{tag})"


def _reduce_int(pivots: Mapping[int, Mapping[int, int]], row: dict[int, int]) -> dict[int, int]:
    """A multiple of row with the column of each pivot in its support
    eliminated; zero iff row lies in the span.  row is consumed."""
    for lead in [j for j in row if j in pivots]:
        row = _eliminate(row, pivots[lead], lead)
    return row


def kernel(A: RationalMatrix, ambient: tuple[SuperSignature, int] | None = None) -> Subspace:
    """Null space of A, canonical basis, from one elimination of A with its
    columns reversed (module docstring).

    One pass over the nonzeros of the pivot rows collects, per free column,
    the pivot rows that hold it; each null vector is then scaled to integers
    by the lcm of their pivot entries.
    """
    last = A.cols - 1
    pivot_cols = set()
    held: dict[int, list[tuple[int, int, int]]] = {}  # f -> [(pivot col, c, d)]
    reversed_rows = ({last - j: v for j, v in r.items()} for r in A.row_dicts())
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


def image(A: RationalMatrix, ambient: tuple[SuperSignature, int] | None = None) -> Subspace:
    """Column space of A, canonical basis."""
    return Subspace.from_rows(A.rows, A.transpose().row_dicts(), ambient)


# -- polynomial coordinates ---------------------------------------------------


def polynomial_vector(p: SuperPolynomial, k: int) -> dict[int, Fraction]:
    """Coordinates of a homogeneous polynomial in the canonical degree-k basis."""
    if not p.is_homogeneous(k):
        raise ValueError(f"polynomial is not homogeneous of degree {k}")
    idx = basis_index(p.signature, k)
    return {idx[mono]: c for mono, c in p.terms.items()}


def vector_polynomial(
    signature: SuperSignature, k: int, vec: Mapping[int, Fraction]
) -> SuperPolynomial:
    basis = monomial_basis(signature, k)
    return SuperPolynomial(signature, {basis[j]: c for j, c in vec.items() if c})


def span_subspace(
    signature: SuperSignature, k: int, polys: Iterable[SuperPolynomial]
) -> Subspace:
    cols = len(monomial_basis(signature, k))
    rows = [polynomial_vector(p, k) for p in polys if not p.is_zero()]
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
) -> RationalMatrix:
    """Matrix of a map raising degree by `shift`, on the degree-k basis.

    Columns follow the basis of P_k, rows the basis of P_(k + shift), both
    of `signature`.
    """
    source = monomial_basis(signature, k)
    tidx = basis_index(signature, k + shift)
    one = Fraction(1)
    data: list[dict[int, Fraction]] = [{} for _ in tidx]
    for j, mono in enumerate(source):
        q = fn(SuperPolynomial(signature, {mono: one}, _clean=True))
        for tm, c in q:
            data[tidx[tm]][j] = c
    return RationalMatrix(len(data), len(source), data)


def matmul(A: RationalMatrix, B: RationalMatrix) -> RationalMatrix:
    """Sparse product A B, exact.

    Both factors are scaled to integers by the least common denominator of
    their entries, multiplied in integers and scaled back.
    """
    if A.cols != B.rows:
        raise ValueError(f"cannot multiply {A.rows}x{A.cols} by {B.rows}x{B.cols}")
    den_a, int_a = _scaled_int_rows(A)
    den_b, int_b = _scaled_int_rows(B)
    den = den_a * den_b
    data = []
    for arow in int_a:
        acc: dict[int, int] = {}
        for j, a in arow.items():
            for col, b in int_b[j].items():
                acc[col] = acc.get(col, 0) + a * b
        data.append({col: Fraction(v, den) for col, v in acc.items() if v})
    return RationalMatrix(A.rows, B.cols, data)


def _scaled_int_rows(A: RationalMatrix) -> tuple[int, list[dict[int, int]]]:
    den = 1
    for row in A.row_dicts():
        for v in row.values():
            den = lcm(den, v.denominator)
    rows = [
        {j: v.numerator * (den // v.denominator) for j, v in row.items()}
        for row in A.row_dicts()
    ]
    return den, rows


def polynomials_rank(polys: Iterable[SuperPolynomial], k: int) -> int:
    """Rank of the span of homogeneous degree-k polynomials."""
    rows = []
    for p in polys:
        if p.is_zero():
            continue
        rows.append(_int_row(polynomial_vector(p, k)))
    if not rows:
        return 0
    return len(_echelon(rows))
