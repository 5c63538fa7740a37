"""Exact rational linear algebra over fixed monomial bases.

Matrices are stored sparsely, one dict per row mapping column index to a
nonzero rational.  Elimination runs fraction-free over integers with per-row
content reduction, then normalizes to reduced row echelon form over the
rationals.  RREF is the canonical representation of a subspace: two
subspaces are equal iff their ambients agree and their basis matrices are
identical.

Every RREF row is zero at every pivot column other than its own.  So a
vector is reduced by a subspace by subtracting v[lead] times the row of each
pivot in its support, in any order: no subtraction changes v at another
pivot.  Kernel assembly and back-substitution rest on the same fact.

The kernel needs a single elimination.  A's columns are reversed
(j -> cols-1-j) before the RREF, so in original indices each RREF row has a
1 at its pivot p and its other entries only at free columns f < p.  The null
vector of a free column f is e_f minus, for each row holding c at f, c at
that row's pivot p > f.  It has a 1 at f, its other nonzeros only at pivot
columns above f, and so a zero at every other free column.  Its leading
column is f and no other null vector is nonzero there, so, sorted by f, the
null vectors already are the canonical RREF basis of ker A and need no
second elimination.

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

    @classmethod
    def identity(cls, nn: int) -> "RationalMatrix":
        return cls(nn, nn, [{i: Fraction(1)} for i in range(nn)])

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


def _int_row(row: Mapping[int, Fraction]) -> dict[int, int]:
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


def _rref_fraction_rows(rows: Iterable[Mapping[int, Fraction]]) -> list[dict[int, Fraction]]:
    """Canonical RREF rows (pivot 1, pivots cleared above), zero rows dropped.

    Back-substitution runs from the last pivot up.  The rows below are then
    fully reduced, so clearing a pivot column brings in nonzeros only at
    non-pivot columns, and each row clears just the pivot columns it holds.
    """
    pivots = _echelon(_int_row(r) for r in rows)
    leads = sorted(pivots)
    for lead in reversed(leads):
        row = pivots[lead]
        for col in [j for j in row if j != lead and j in pivots]:
            row = _eliminate(row, pivots[col], col)
    out = []
    for lead in leads:
        row = pivots[lead]
        denom = row[lead]
        out.append({j: Fraction(v, denom) for j, v in row.items()})
    return out


def rref(A: RationalMatrix) -> RationalMatrix:
    """Reduced row echelon form with zero rows dropped."""
    rows = _rref_fraction_rows(A.row_dicts())
    return RationalMatrix(len(rows), A.cols, rows)


def rank(A: RationalMatrix) -> int:
    return len(_echelon(_int_row(r) for r in A.row_dicts()))


class Subspace:
    """Subspace of a based vector space, held as a canonical RREF matrix.

    ``ambient`` is the (signature, degree) pair naming the monomial basis the
    coordinates refer to, or None for a bare coordinate space.
    """

    __slots__ = ("ambient", "basis_matrix")

    def __init__(
        self,
        basis_matrix: RationalMatrix,
        ambient: tuple[SuperSignature, int] | None = None,
    ):
        object.__setattr__(self, "basis_matrix", basis_matrix)
        object.__setattr__(self, "ambient", ambient)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(
        cls,
        cols: int,
        rows: Iterable[Mapping[int, Fraction]],
        ambient: tuple[SuperSignature, int] | None = None,
    ) -> "Subspace":
        reduced = _rref_fraction_rows(rows)
        return cls(RationalMatrix(len(reduced), cols, reduced), ambient)

    @classmethod
    def zero(cls, cols: int, ambient=None) -> "Subspace":
        return cls(RationalMatrix(0, cols, []), ambient)

    @classmethod
    def full(cls, cols: int, ambient=None) -> "Subspace":
        return cls(RationalMatrix.identity(cols), ambient)

    @property
    def dim(self) -> int:
        return self.basis_matrix.rows

    @property
    def ambient_dim(self) -> int:
        return self.basis_matrix.cols

    def _check_compatible(self, other: "Subspace") -> None:
        if self.ambient != other.ambient or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambients")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.basis_matrix == other.basis_matrix
        )

    __hash__ = None  # type: ignore[assignment]

    def _pivot_rows(self) -> dict[int, Mapping[int, Fraction]]:
        return {min(row): row for row in self.basis_matrix.row_dicts()}

    def reduce(self, vec: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """Remainder of vec after subtracting its projection along basis rows."""
        return _reduce(self._pivot_rows(), vec)

    def contains(self, vec: Mapping[int, Fraction]) -> bool:
        return not self.reduce(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        pivots = self._pivot_rows()
        return not any(_reduce(pivots, r) for r in other.basis_matrix.row_dicts())

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        stacked = list(self.basis_matrix.row_dicts()) + list(other.basis_matrix.row_dicts())
        return Subspace.from_rows(self.ambient_dim, stacked, self.ambient)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: [U|U] and [V|0] rows; echelon rows with zero left block
        carry an intersection basis in the right block."""
        self._check_compatible(other)
        c = self.ambient_dim
        doubled: list[dict[int, int]] = []
        for r in self.basis_matrix.row_dicts():
            ir = _int_row(r)
            doubled.append({**ir, **{j + c: v for j, v in ir.items()}})
        for r in other.basis_matrix.row_dicts():
            doubled.append(_int_row(r))
        pivots = _echelon(doubled)
        inter_rows = []
        for lead, row in pivots.items():
            if lead >= c:
                inter_rows.append({j - c: Fraction(v) for j, v in row.items()})
        return Subspace.from_rows(c, inter_rows, self.ambient)

    def __repr__(self) -> str:
        tag = "" if self.ambient is None else f", ambient={self.ambient[0]}@{self.ambient[1]}"
        return f"Subspace(dim={self.dim}, of={self.ambient_dim}{tag})"


def _reduce(
    pivots: Mapping[int, Mapping[int, Fraction]], vec: Mapping[int, Fraction]
) -> dict[int, Fraction]:
    """vec minus v[lead] times the RREF row of each pivot in its support."""
    v = {j: Fraction(c) for j, c in vec.items() if c}
    for lead in [j for j in v if j in pivots]:
        c = v[lead]
        for j, w in pivots[lead].items():
            nv = v.get(j, _ZERO) - c * w
            if nv:
                v[j] = nv
            else:
                del v[j]
    return v


def kernel(A: RationalMatrix, ambient: tuple[SuperSignature, int] | None = None) -> Subspace:
    """Null space of A, canonical basis, from one elimination of A with its
    columns reversed (module docstring).

    One pass over the nonzeros of the pivot rows fills every null vector.
    """
    last = A.cols - 1
    one = Fraction(1)
    pivot_cols = set()
    free_vecs: dict[int, dict[int, Fraction]] = {}
    reversed_rows = ({last - j: v for j, v in r.items()} for r in A.row_dicts())
    for r in _rref_fraction_rows(reversed_rows):
        pc = last - min(r)
        pivot_cols.add(pc)
        for rf, c in r.items():
            f = last - rf
            if f != pc:
                free_vecs.setdefault(f, {f: one})[pc] = -c
    rows = [free_vecs.get(f) or {f: one} for f in range(A.cols) if f not in pivot_cols]
    return Subspace(RationalMatrix(len(rows), A.cols, rows), ambient)


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
    return tuple(
        vector_polynomial(sig, k, row) for row in space.basis_matrix.row_dicts()
    )


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
