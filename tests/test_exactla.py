import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from superharm import exactla
from superharm.exactla import (
    RationalMatrix,
    _int_row,
    Subspace,
    image,
    kernel,
    matmul,
    operator_matrix,
    polynomial_vector,
    polynomials_rank,
    rank,
    rref,
    span_subspace,
    subspace_polynomials,
    vector_polynomial,
)
from superharm.operators import euler, laplacian
from superharm.superpoly import SuperPolynomial, SuperSignature, monomial_basis


def _dense(A):
    return [[row.get(j, Fraction(0)) for j in range(A.cols)] for row in A.row_dicts()]


def M(rows, cols=None):
    rows = [[Fraction(v) for v in r] for r in rows]
    cols = cols if cols is not None else (len(rows[0]) if rows else 0)
    return RationalMatrix.from_rows(cols, rows)


def test_rref_canonical_small():
    A = M([[2, 4, 6], [1, 2, 4]])
    R = rref(A)
    assert _dense(R) == [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_rref_idempotent_and_order_independent():
    rows = [[1, 2, 0, 3], [2, 4, 1, 1], [0, 0, 1, -5], [1, 2, 1, -2]]
    A = M(rows)
    B = M(rows[::-1])
    assert rref(A) == rref(B)
    assert rref(rref(A)) == rref(A)


def test_rank_examples():
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(RationalMatrix(3, 5, [{}, {}, {}])) == 0
    assert rank(RationalMatrix(4, 4, [{i: 1} for i in range(4)])) == 4


def test_kernel_of_projection():
    # kernel of [1 0 0; 0 1 0] is the z-axis
    A = M([[1, 0, 0], [0, 1, 0]])
    K = kernel(A)
    assert K.dim == 1
    assert _dense(K.basis_matrix) == [[Fraction(0), Fraction(0), Fraction(1)]]


def test_image_is_column_space():
    A = M([[1, 2], [2, 4], [0, 0]])
    S = image(A)
    assert S.dim == 1
    assert _dense(S.basis_matrix) == [[Fraction(1), Fraction(2), Fraction(0)]]


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
        data.append(row)
    return RationalMatrix(rows, cols, data)


def test_rank_nullity_randomized():
    rng = random.Random(20260815)
    for _ in range(30):
        rows = rng.randint(0, 6)
        cols = rng.randint(1, 7)
        A = _random_matrix(rng, rows, cols)
        assert rank(A) + kernel(A).dim == cols


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
        products = matmul(A, K.basis_matrix.transpose())
        assert not any(products.row_dicts())


def test_operator_matrix_euler_is_k_identity():
    sig = SuperSignature(2, 1)
    for k in (0, 1, 3):
        A = operator_matrix(euler, sig, k, 0)
        dim = len(monomial_basis(sig, k))
        expected = RationalMatrix(dim, dim, [{i: Fraction(k)} if k else {} for i in range(dim)])
        assert A == expected


def test_operator_matrix_laplacian_rank_one_case():
    sig = SuperSignature(1, 1)
    A = operator_matrix(laplacian, sig, 2, -2)
    assert (A.rows, A.cols) == (1, 4)
    assert rank(A) == 1


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


def test_polynomials_rank_counts_dependencies():
    sig = SuperSignature(1, 1)
    x = SuperPolynomial.x(sig, 1)
    t1 = SuperPolynomial.t(sig, 1)
    assert polynomials_rank([x, t1, x + t1], 1) == 2
    assert polynomials_rank([SuperPolynomial.zero(sig)], 1) == 0


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
    return RationalMatrix.from_rows(cols, entries)


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rref_preserves_row_space(A):
    R = rref(A)
    assert rank(A) == R.rows
    S1 = Subspace.from_rows(A.cols, A.row_dicts())
    S2 = Subspace.from_rows(A.cols, R.row_dicts())
    assert S1 == S2


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rank_transpose_invariant(A):
    assert rank(A) == rank(A.transpose())


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
    return RationalMatrix(len(rows), cols, rows)


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices())
def test_rref_matches_dense_reference(A):
    assert _dense(rref(A)) == _dense_rref(A.row_dicts(), A.cols)


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices())
def test_kernel_matches_dense_reference(A):
    assert _dense(kernel(A).basis_matrix) == _dense_kernel(A.row_dicts(), A.cols)


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices())
def test_kernel_basis_is_already_canonical(A):
    K = kernel(A)
    assert K == Subspace.from_rows(A.cols, K.basis_matrix.row_dicts())


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
    assert kernel(RationalMatrix(0, 3, [])) == Subspace.from_rows(3, [{i: 1} for i in range(3)])
    # full column rank: nothing is free
    assert kernel(M([[1, 2], [3, 4], [5, 6]])) == Subspace.zero(2)
    # no columns: the zero space of a zero-dimensional ambient
    K = kernel(RationalMatrix(2, 0, [{}, {}]))
    assert K == Subspace.zero(0) and K.dim == 0


def test_matrix_entries_become_fractions():
    A = RationalMatrix(1, 3, [{0: 2, 1: 0, 2: Fraction(1, 3)}])
    assert A.row_dict(0) == {0: Fraction(2), 2: Fraction(1, 3)}
    assert all(type(v) is Fraction for v in A.row_dict(0).values())


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
    A = U.basis_matrix
    for S in (U, V, U + V, U.intersect(V), kernel(A), image(A.transpose())):
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
    rows = [_int_row(r) for r in A.row_dicts()]
    before = [dict(r) for r in rows]
    assert rank(rows) == rank(A)
    assert rows == before


@settings(max_examples=150, deadline=None)
@given(_subspace_pairs())
def test_contains_subspace_matches_dense_reference(pair):
    U, V = pair
    u_rows = list(U.basis_matrix.row_dicts())
    for W in (U, V, U + V, U.intersect(V)):
        stacked = u_rows + list(W.basis_matrix.row_dicts())
        expected = len(_dense_rref(stacked, U.ambient_dim)) == U.dim
        assert U.contains_subspace(W) == expected
        assert all(U.contains(r) for r in W.basis_matrix.row_dicts()) == expected


@settings(max_examples=150, deadline=None)
@given(_subspace_pairs())
def test_intersect_matches_dense_reference(pair):
    U, V = pair
    # Coefficient vectors (a, b) with a U = b V, read off the kernel of the
    # matrix whose columns are the rows of U and of -V.
    u_rows = _dense(U.basis_matrix)
    v_rows = _dense(V.basis_matrix)
    columns = u_rows + [[-v for v in r] for r in v_rows]
    system = [{i: col[j] for i, col in enumerate(columns)} for j in range(U.ambient_dim)]
    meets = [
        {j: sum(a[i] * u_rows[i][j] for i in range(U.dim)) for j in range(U.ambient_dim)}
        for a in _dense_kernel(system, len(columns))
    ]
    assert _dense(U.intersect(V).basis_matrix) == _dense_rref(meets, U.ambient_dim)


def test_contains_fails_only_at_a_non_pivot_column():
    # Pivots at columns 0 and 1; the remainder of v lives at column 2 alone.
    U = Subspace.from_rows(
        3, [{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}]
    )
    v = {0: Fraction(1), 1: Fraction(1)}
    assert U.reduce(v) == {2: Fraction(-2)}
    assert not U.contains(v)
    assert not U.contains_subspace(Subspace.from_rows(3, [v]))
    assert U.contains({0: Fraction(1), 1: Fraction(1), 2: Fraction(2)})


def test_matmul_matches_dense_product():
    rng = random.Random(4242)
    for _ in range(20):
        inner = rng.randint(0, 5)
        A = _random_matrix(rng, rng.randint(0, 4), inner, density=0.4)
        B = _random_matrix(rng, inner, rng.randint(1, 5), density=0.4)
        b = _dense(B)
        product = [
            [sum(a * b[j][col] for j, a in enumerate(row)) for col in range(B.cols)]
            for row in _dense(A)
        ]
        assert _dense(matmul(A, B)) == product
    with pytest.raises(ValueError):
        matmul(RationalMatrix(2, 2, [{0: 1}, {1: 1}]), RationalMatrix(3, 3, [{0: 1}, {1: 1}, {2: 1}]))


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
