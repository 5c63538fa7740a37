import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from superharm import exactla
from superharm.cli import _GRID as VERIFY_GRID
from superharm.exactla import (
    IntMatrix,
    _fraction_row,
    _int_row,
    _reduce_int,
    _rref_fraction_rows,
    Subspace,
    kernel,
    matmul,
    operator_matrix,
    polynomial_vector,
    rank,
    span_subspace,
    subspace_polynomials,
    vector_polynomial,
)
from superharm.operators import euler, laplacian, rsquare_mul
from superharm.superpoly import SuperPolynomial, SuperSignature, basis_index, monomial_basis


def rref(rows):
    """Rational reduced row echelon form, zero rows dropped: the canonical
    integer rows, each divided by its pivot entry."""
    return [_fraction_row(r) for r in _rref_fraction_rows(rows)]


def basis_matrix(S):
    """The rational RREF basis of a Subspace, one row per dimension."""
    return [_fraction_row(r) for r in S.rows]


def _dense(rows, cols):
    return [[row.get(j, Fraction(0)) for j in range(cols)] for row in rows]


def _scaled_row(row):
    """A rational row times the lcm of its denominators: integer entries,
    the same row space."""
    den = lcm(*(Fraction(v).denominator for v in row.values()))
    return {j: int(v * den) for j, v in row.items()}


def M(rows, cols=None):
    cols = cols if cols is not None else (len(rows[0]) if rows else 0)
    return IntMatrix.from_rows(cols, rows)


def test_rref_canonical_small():
    A = M([[2, 4, 6], [1, 2, 4]])
    assert _dense(rref(A.row_dicts()), A.cols) == [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_rref_idempotent_and_order_independent():
    rows = [[1, 2, 0, 3], [2, 4, 1, 1], [0, 0, 1, -5], [1, 2, 1, -2]]
    A = M(rows)
    B = M(rows[::-1])
    R = rref(A.row_dicts())
    assert R == rref(B.row_dicts())
    assert rref(R) == R


def test_rank_examples():
    assert rank(M([[1, 2], [2, 4]]).row_dicts()) == 1
    assert rank([{}, {}, {}]) == 0
    assert rank([{i: 1} for i in range(4)]) == 4
    # rational rows are scaled to integers first
    assert rank([{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: 3, 1: 2}]) == 1


def test_kernel_of_projection():
    # kernel of [1 0 0; 0 1 0] is the z-axis
    A = M([[1, 0, 0], [0, 1, 0]])
    K = kernel(A)
    assert K.dim == 1
    assert _dense(basis_matrix(K), 3) == [[Fraction(0), Fraction(0), Fraction(1)]]


def test_image_is_column_space():
    # the column space of A is the row space of its transpose
    A = M([[1, 2], [2, 4], [0, 0]])
    S = Subspace.from_rows(A.rows, A.transpose().row_dicts())
    assert S.dim == 1
    assert _dense(basis_matrix(S), 3) == [[Fraction(1), Fraction(2), Fraction(0)]]


def test_intersect_axes():
    x_axis = Subspace.from_rows(2, [{0: Fraction(1)}])
    y_axis = Subspace.from_rows(2, [{1: Fraction(1)}])
    assert x_axis.intersect(y_axis).dim == 0
    diag = Subspace.from_rows(2, [{0: Fraction(1), 1: Fraction(1)}])
    assert (x_axis + y_axis).intersect(diag) == diag


def test_sum_and_contains():
    u = Subspace.from_rows(3, [{0: Fraction(1), 1: Fraction(1)}])
    v = Subspace.from_rows(3, [{1: Fraction(1), 2: Fraction(1)}])
    w = u + v
    assert w.dim == 2
    assert w.contains({0: Fraction(1), 1: Fraction(2), 2: Fraction(1)})
    assert not w.contains({0: Fraction(1), 1: Fraction(1), 2: Fraction(1)})
    assert w.contains_subspace(u) and w.contains_subspace(v)


def test_subspace_ambient_mismatch():
    sig = SuperSignature(1, 1)
    u = span_subspace(sig, 1, [SuperPolynomial.x(sig, 1)])
    v = Subspace.from_rows(3, [{0: Fraction(1)}])
    with pytest.raises(ValueError):
        u.intersect(v)


def _random_matrix(rng, rows, cols, density=0.5):
    data = []
    for _ in range(rows):
        row = {}
        for j in range(cols):
            if rng.random() < density:
                row[j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        data.append(_scaled_row(row))
    return IntMatrix.from_rows(cols, data)


def test_rank_nullity_randomized():
    rng = random.Random(20260815)
    for _ in range(30):
        rows = rng.randint(0, 6)
        cols = rng.randint(1, 7)
        A = _random_matrix(rng, rows, cols)
        assert rank(A.row_dicts()) + kernel(A).dim == cols


def test_modular_lattice_identity_randomized():
    rng = random.Random(715)
    for _ in range(25):
        cols = rng.randint(1, 6)
        U = Subspace.from_rows(
            cols, _random_matrix(rng, rng.randint(0, 4), cols).row_dicts()
        )
        V = Subspace.from_rows(
            cols, _random_matrix(rng, rng.randint(0, 4), cols).row_dicts()
        )
        assert U.dim + V.dim == (U + V).dim + U.intersect(V).dim


def test_kernel_vectors_are_annihilated():
    rng = random.Random(99)
    for _ in range(20):
        A = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        K = kernel(A)
        products = matmul(A, IntMatrix.from_rows(A.cols, K.rows).transpose())
        assert not any(products.row_dicts())


def test_operator_matrix_euler_is_k_identity():
    sig = SuperSignature(2, 1)
    for k in (0, 1, 3):
        A = operator_matrix(euler, sig, k, 0)
        dim = len(monomial_basis(sig, k))
        expected = IntMatrix(dim, [{i: k} if k else {} for i in range(dim)])
        assert A == expected


def test_operator_matrix_laplacian_rank_one_case():
    sig = SuperSignature(1, 1)
    A = operator_matrix(laplacian, sig, 2, -2)
    assert (A.rows, A.cols) == (1, 4)
    assert rank(A.row_dicts()) == 1


def test_operator_matrix_at_degree_zero_target():
    sig = SuperSignature(1, 1)
    A = operator_matrix(laplacian, sig, 0, -2)
    assert (A.rows, A.cols) == (0, 1)
    assert kernel(A, (sig, 0)).dim == 1


def test_polynomial_vector_roundtrip():
    sig = SuperSignature(2, 2)
    basis = monomial_basis(sig, 3)
    p = SuperPolynomial(sig, {basis[0]: Fraction(2), basis[5]: Fraction(-1, 3)})
    v = polynomial_vector(p, 3)
    assert vector_polynomial(sig, 3, v) == p
    with pytest.raises(ValueError):
        polynomial_vector(p, 2)


def test_span_and_back():
    sig = SuperSignature(1, 1)
    x = SuperPolynomial.x(sig, 1)
    t1 = SuperPolynomial.t(sig, 1)
    S = span_subspace(sig, 1, [x + t1, x - t1, 2 * x])
    assert S.dim == 2
    polys = subspace_polynomials(S)
    assert span_subspace(sig, 1, polys) == S


def test_span_subspace_rejects_a_foreign_polynomial():
    # x3 of (3|0) has a degree-1 index of its own; it is not in P_1 of (1|1)
    x3 = SuperPolynomial.x(SuperSignature(3, 0), 3)
    with pytest.raises(ValueError):
        span_subspace(SuperSignature(1, 1), 1, [x3])
    with pytest.raises(ValueError):
        span_subspace(SuperSignature(1, 1), 1, [SuperPolynomial.zero(SuperSignature(2, 1))])


def test_polynomials_rank_counts_dependencies():
    sig = SuperSignature(1, 1)
    x = SuperPolynomial.x(sig, 1)
    t1 = SuperPolynomial.t(sig, 1)
    assert rank(polynomial_vector(p, 1) for p in [x, t1, x + t1]) == 2
    assert rank(polynomial_vector(p, 1) for p in [x / 2, x / 3 - t1, t1 * Fraction(5, 7)]) == 2
    assert rank([polynomial_vector(SuperPolynomial.zero(sig), 1)]) == 0


@st.composite
def _matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=5))
    entries = draw(
        st.lists(
            st.lists(
                st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4),
                min_size=cols,
                max_size=cols,
            ),
            min_size=rows,
            max_size=rows,
        )
    )
    return IntMatrix.from_rows(cols, [_scaled_row(dict(enumerate(r))) for r in entries])


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rref_preserves_row_space(A):
    R = rref(A.row_dicts())
    assert rank(A.row_dicts()) == len(R)
    S1 = Subspace.from_rows(A.cols, A.row_dicts())
    S2 = Subspace.from_rows(A.cols, R)
    assert S1 == S2


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rank_transpose_invariant(A):
    assert rank(A.row_dicts()) == rank(A.transpose().row_dicts())


# -- dense reference path ----------------------------------------------------


def _dense_rref(rows, cols):
    """Textbook Gauss-Jordan over Fraction on dense rows; zero rows dropped."""
    A = [[Fraction(r.get(j, 0)) for j in range(cols)] for r in rows]
    top = 0
    for col in range(cols):
        hit = next((i for i in range(top, len(A)) if A[i][col]), None)
        if hit is None:
            continue
        A[top], A[hit] = A[hit], A[top]
        lead = A[top][col]
        A[top] = [v / lead for v in A[top]]
        for i in range(len(A)):
            if i != top and A[i][col]:
                c = A[i][col]
                A[i] = [a - c * b for a, b in zip(A[i], A[top])]
        top += 1
    return A[:top]


def _dense_kernel(rows, cols):
    R = _dense_rref(rows, cols)
    leads = [next(j for j, v in enumerate(r) if v) for r in R]
    basis = []
    for f in (j for j in range(cols) if j not in leads):
        vec = {f: Fraction(1)}
        vec.update({lead: -r[f] for lead, r in zip(leads, R) if r[f]})
        basis.append(vec)
    return _dense_rref(basis, cols)


_NONZERO = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3
).filter(bool)


@st.composite
def _sparse_matrices(draw, cols=None):
    """Few nonzeros per row and more columns than rows, so most columns are
    free; appended combinations of earlier rows force fill-in and rank loss."""
    if cols is None:
        cols = draw(st.integers(min_value=1, max_value=12))
    entry_rows = st.dictionaries(
        st.integers(min_value=0, max_value=cols - 1), _NONZERO, max_size=3
    )
    rows = draw(st.lists(entry_rows, max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if rows else 0):
        combo: dict[int, Fraction] = {}
        for row in rows:
            c = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)]))
            for j, v in row.items():
                combo[j] = combo.get(j, Fraction(0)) + c * v
        rows.append(combo)
    return IntMatrix.from_rows(cols, [_scaled_row(r) for r in rows])


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices())
def test_rref_matches_dense_reference(A):
    assert _dense(rref(A.row_dicts()), A.cols) == _dense_rref(A.row_dicts(), A.cols)


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices())
def test_kernel_matches_dense_reference(A):
    assert _dense(basis_matrix(kernel(A)), A.cols) == _dense_kernel(A.row_dicts(), A.cols)


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices())
def test_kernel_basis_is_already_canonical(A):
    K = kernel(A)
    assert K == Subspace.from_rows(A.cols, basis_matrix(K))


def test_kernel_eliminates_once(monkeypatch):
    calls = []
    original = exactla._rref_fraction_rows

    def counting(rows):
        calls.append(1)
        return original(rows)

    monkeypatch.setattr(exactla, "_rref_fraction_rows", counting)
    A = M([[1, 2, 0, 3, 1], [0, 0, 1, -1, 2], [1, 2, 1, 2, 3]])
    assert kernel(A).dim == 3
    assert len(calls) == 1


def test_kernel_edge_shapes():
    # no rows: every column is free
    assert kernel(IntMatrix(3, [])) == Subspace.from_rows(3, [{i: 1} for i in range(3)])
    # full column rank: nothing is free
    assert kernel(M([[1, 2], [3, 4], [5, 6]])) == Subspace.zero(2)
    # no columns: the zero space of a zero-dimensional ambient
    K = kernel(IntMatrix(0, [{}, {}]))
    assert K == Subspace.zero(0) and K.dim == 0


def test_from_rows_checks_its_entries():
    A = IntMatrix.from_rows(4, [[0, 2, 0, -1], {3: 5, 0: 0}])
    assert A.row_dicts() == ({1: 2, 3: -1}, {3: 5})
    assert A == IntMatrix(4, [{1: 2, 3: -1}, {3: 5}])
    # integral or not, a Fraction is refused, and so are floats and bools
    for bad in (Fraction(1, 2), Fraction(2), 2.0, True):
        with pytest.raises(TypeError):
            IntMatrix.from_rows(2, [{0: 1, 1: bad}])
    for row in ({2: 1}, {-1: 1}, [1, 0, 3]):
        with pytest.raises(ValueError):
            IntMatrix.from_rows(2, [row])


@st.composite
def _subspace_pairs(draw):
    cols = draw(st.integers(min_value=1, max_value=10))
    U = Subspace.from_rows(cols, draw(_sparse_matrices(cols)).row_dicts())
    V = Subspace.from_rows(cols, draw(_sparse_matrices(cols)).row_dicts())
    return U, V


def _assert_canonical_integer_rows(S):
    """Sorted distinct pivots; each row primitive, with integer entries, a
    positive pivot entry and a zero at every other pivot."""
    pivots = [min(r) for r in S.rows]
    assert pivots == sorted(set(pivots))
    for row, p in zip(S.rows, pivots):
        assert all(type(v) is int and v for v in row.values())
        assert row[p] > 0
        assert gcd(*row.values()) == 1
        assert not any(q in row for q in pivots if q != p)


@settings(max_examples=100, deadline=None)
@given(_subspace_pairs())
def test_subspace_rows_are_canonical_primitive_integers(pair):
    U, V = pair
    A = IntMatrix.from_rows(U.ambient_dim, U.rows)
    for S in (U, V, U + V, U.intersect(V), kernel(A), kernel(A.transpose())):
        _assert_canonical_integer_rows(S)


@st.composite
def _reordered_rescaled(draw):
    """Rows of a sparse matrix, and the same rows permuted and each scaled
    by a nonzero rational."""
    A = draw(_sparse_matrices())
    rows = list(A.row_dicts())
    order = draw(st.permutations(range(len(rows))))
    scales = draw(st.lists(_NONZERO, min_size=len(rows), max_size=len(rows)))
    moved = [{j: c * v for j, v in rows[i].items()} for i, c in zip(order, scales)]
    return A.cols, rows, moved


@settings(max_examples=100, deadline=None)
@given(_reordered_rescaled())
def test_from_rows_ignores_row_order_and_scale(case):
    cols, rows, moved = case
    assert Subspace.from_rows(cols, moved) == Subspace.from_rows(cols, rows)


@settings(max_examples=100, deadline=None)
@given(_sparse_matrices())
def test_rank_of_integer_rows_matches_matrix_rank(A):
    rows = [dict(r) for r in A.row_dicts()]
    before = [dict(r) for r in rows]
    assert rank(rows) == len(_dense_rref(rows, A.cols))
    assert rows == before


_RANK_SIGS = [SuperSignature(2, 1), SuperSignature(1, 2), SuperSignature(0, 2)]


@st.composite
def _polynomial_families(draw):
    """Degree-k polynomials with Fraction coefficients, some of them sums of
    earlier ones."""
    sig = draw(st.sampled_from(_RANK_SIGS))
    k = draw(st.integers(min_value=0, max_value=3))
    basis = monomial_basis(sig, k)
    terms = st.dictionaries(st.sampled_from(basis), _NONZERO, max_size=4) if basis else st.just({})
    polys = [SuperPolynomial(sig, t) for t in draw(st.lists(terms, max_size=5))]
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if polys else 0):
        a, b = draw(st.sampled_from(polys)), draw(st.sampled_from(polys))
        polys.append(a * Fraction(2, 3) - b)
    return k, polys


@settings(max_examples=100, deadline=None)
@given(_polynomial_families())
def test_rank_of_fraction_polynomial_rows_matches_dense_reference(case):
    k, polys = case
    rows = [polynomial_vector(p, k) for p in polys]
    cols = len(monomial_basis(polys[0].signature, k)) if polys else 0
    assert rank(rows) == len(_dense_rref(rows, cols))


@settings(max_examples=150, deadline=None)
@given(_subspace_pairs())
def test_contains_subspace_matches_dense_reference(pair):
    U, V = pair
    u_rows = basis_matrix(U)
    for W in (U, V, U + V, U.intersect(V)):
        stacked = u_rows + basis_matrix(W)
        expected = len(_dense_rref(stacked, U.ambient_dim)) == U.dim
        assert U.contains_subspace(W) == expected
        assert all(U.contains(r) for r in basis_matrix(W)) == expected


@settings(max_examples=150, deadline=None)
@given(_subspace_pairs())
def test_intersect_matches_dense_reference(pair):
    U, V = pair
    # Coefficient vectors (a, b) with a U = b V, read off the kernel of the
    # matrix whose columns are the rows of U and of -V.
    u_rows = _dense(basis_matrix(U), U.ambient_dim)
    v_rows = _dense(basis_matrix(V), U.ambient_dim)
    columns = u_rows + [[-v for v in r] for r in v_rows]
    system = [{i: col[j] for i, col in enumerate(columns)} for j in range(U.ambient_dim)]
    meets = [
        {j: sum(a[i] * u_rows[i][j] for i in range(U.dim)) for j in range(U.ambient_dim)}
        for a in _dense_kernel(system, len(columns))
    ]
    assert _dense(basis_matrix(U.intersect(V)), U.ambient_dim) == _dense_rref(
        meets, U.ambient_dim
    )


def test_contains_fails_only_at_a_non_pivot_column():
    # Pivots at columns 0 and 1; the remainder of v lives at column 2 alone.
    U = Subspace.from_rows(
        3, [{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}]
    )
    v = {0: Fraction(1), 1: Fraction(1)}
    # the rational remainder is {2: -2}; the integer one is its primitive multiple
    assert _reduce_int(U._pivot_rows(), _int_row(v)) == {2: 1}
    assert not U.contains(v)
    assert not U.contains_subspace(Subspace.from_rows(3, [v]))
    assert U.contains({0: Fraction(1), 1: Fraction(1), 2: Fraction(2)})


def test_matmul_matches_dense_product():
    rng = random.Random(4242)
    for _ in range(20):
        inner = rng.randint(0, 5)
        A = _random_matrix(rng, rng.randint(0, 4), inner, density=0.4)
        B = _random_matrix(rng, inner, rng.randint(1, 5), density=0.4)
        b = _dense(B.row_dicts(), B.cols)
        product = [
            [sum(a * b[j][col] for j, a in enumerate(row)) for col in range(B.cols)]
            for row in _dense(A.row_dicts(), A.cols)
        ]
        assert _dense(matmul(A, B).row_dicts(), B.cols) == product
    with pytest.raises(ValueError):
        matmul(IntMatrix(2, [{0: 1}, {1: 1}]), IntMatrix(3, [{0: 1}, {1: 1}, {2: 1}]))


# -- integer rows --------------------------------------------------------------

# large pairwise coprime denominators: primes near 2^31, 2^61 and 10^9
_LARGE_DENOMINATORS = [1, 3, 2**31 - 1, 2**61 - 1, 10**9 + 7, 10**9 + 9, 2 * 3 * 5 * 7 * 11]


def _int_row_reference(row):
    """Scale by the lcm of the denominators in Fraction arithmetic, divide
    by the content, make the leading entry positive."""
    den = 1
    for v in row.values():
        den = den * v.denominator // gcd(den, v.denominator)
    scaled = {j: v * den for j, v in row.items() if v}
    assert all(v.denominator == 1 for v in scaled.values())
    if not scaled:
        return {}
    g = 0
    for v in scaled.values():
        g = gcd(g, int(v))
    if scaled[min(scaled)] < 0:
        g = -g
    return {j: int(v / g) for j, v in scaled.items()}


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=40),
        st.builds(
            Fraction,
            st.integers(min_value=-(10**30), max_value=10**30),
            st.sampled_from(_LARGE_DENOMINATORS),
        ),
        max_size=8,
    )
)
def test_int_row_matches_fraction_reference(row):
    assert _int_row(row) == _int_row_reference(row)


def test_subspace_from_rows_checks_its_entries():
    # a column outside 0..cols-1
    for rows in ([{5: 1}, {-1: 2}], [{3: 1}], [{0: 1}, {-1: 2}]):
        with pytest.raises(ValueError):
            Subspace.from_rows(3, rows)
    # an entry that is neither an int nor a Fraction; a bool is not taken as 1
    for bad in (1.5, 2.0, True, False, "1"):
        with pytest.raises(TypeError):
            Subspace.from_rows(3, [{0: 1, 2: bad}])
        with pytest.raises(TypeError):
            rank([{1: bad}])
    # ints and Fractions, integral or not, are the accepted entries
    S = Subspace.from_rows(3, [{0: Fraction(2), 2: 4}, {1: Fraction(1, 3)}])
    assert S.rows == ({0: 1, 2: 2}, {1: 1})


_BIG = st.integers(min_value=-(2**40), max_value=2**40).filter(bool)


@st.composite
def _big_int_rows(draw):
    """Sparse int rows with entries up to 2^40, some scaled by a common
    factor and some combinations of earlier ones, so eliminations meet
    content and negative leads."""
    cols = draw(st.integers(min_value=1, max_value=10))
    entries = st.dictionaries(st.integers(min_value=0, max_value=cols - 1), _BIG, max_size=4)
    factors = st.sampled_from([1, -1, 6, -35, 2**20])
    rows = [
        {j: f * v for j, v in row.items()}
        for row, f in draw(st.lists(st.tuples(entries, factors), max_size=7))
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if rows else 0):
        combo: dict[int, int] = {}
        for row in rows:
            c = draw(st.integers(min_value=-3, max_value=3))
            for j, v in row.items():
                combo[j] = combo.get(j, 0) + c * v
        rows.append({j: v for j, v in combo.items() if v})
    probes = draw(st.lists(st.tuples(entries, factors), max_size=4))
    return cols, rows, [{j: f * v for j, v in row.items()} for row, f in probes] + rows


def _assert_primitive(row):
    assert row and all(type(v) is int and v for v in row.values())
    assert row[min(row)] > 0
    assert gcd(*row.values()) == 1


@settings(max_examples=150, deadline=None)
@given(_big_int_rows())
def test_eliminations_leave_primitive_rows_with_positive_leads(case):
    cols, rows, probes = case
    for lead, row in exactla._echelon(rows).items():
        assert min(row) == lead
        _assert_primitive(row)
    for row in _rref_fraction_rows(rows):
        _assert_primitive(row)
    for row in kernel(IntMatrix.from_rows(cols, rows)).rows:
        _assert_primitive(row)
    pivots = Subspace.from_rows(cols, rows)._pivot_rows()
    for probe in probes:
        remainder = _reduce_int(pivots, dict(probe))
        if remainder:
            _assert_primitive(remainder)
        assert not any(j in pivots for j in remainder)


# -- operator matrices ----------------------------------------------------------

OPERATOR_SIGS = [SuperSignature(m, n) for m, n in VERIFY_GRID] + [
    SuperSignature(4, 4),
    SuperSignature(0, 3),
    SuperSignature(3, 0),
]


@st.composite
def _operator_degrees(draw):
    """A signature and a degree 0..7 (0..4 for (4|8)); the Laplacian's
    target is empty at degrees 0 and 1, and at m = 0 so is r2's above
    2n - 2."""
    sig = draw(st.sampled_from(OPERATOR_SIGS))
    return sig, draw(st.integers(min_value=0, max_value=4 if sig.m == 4 else 7))


def _fraction_operator_rows(fn, sig, k, shift):
    """The matrix of fn with every basis monomial entering as Fraction(1, 2)
    and every image doubled, so every entry is a Fraction (a polynomial
    stores the integral Fraction(1) as the int 1)."""
    tidx = basis_index(sig, k + shift)
    rows = [{} for _ in tidx]
    for j, mono in enumerate(monomial_basis(sig, k)):
        for tm, c in fn(SuperPolynomial(sig, {mono: Fraction(1, 2)})):
            rows[tidx[tm]][j] = 2 * c
    return rows


@settings(max_examples=60, deadline=None)
@given(_operator_degrees())
def test_operator_matrix_has_int_entries_equal_to_the_fraction_matrix(case):
    sig, k = case
    for fn, shift in ((laplacian, -2), (rsquare_mul, 2)):
        A = operator_matrix(fn, sig, k, shift)
        reference = _fraction_operator_rows(fn, sig, k, shift)
        assert (A.rows, A.cols) == (len(reference), len(monomial_basis(sig, k)))
        assert all(type(v) is Fraction for row in reference for v in row.values())
        assert all(type(v) is int for row in A.row_dicts() for v in row.values())
        assert list(A.row_dicts()) == reference
    # a map whose polynomials hold Fractions, integral or not, is refused
    # (P_k is empty at m = 0 above degree 2n, and then there is nothing to
    # refuse)
    if monomial_basis(sig, k):
        for c in (Fraction(1, 2), Fraction(2)):
            scaled = lambda p: SuperPolynomial(sig, {m: c * v for m, v in p}, _clean=True)
            with pytest.raises(TypeError):
                operator_matrix(scaled, sig, k, 0)
