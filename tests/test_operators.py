import pytest

from superharm import operators
from superharm.cli import _GRID as VERIFY_GRID
from superharm.exactla import matmul, operator_matrix, rank
from superharm.operators import (
    commutator_check,
    euler,
    invariance_check,
    laplacian,
    osp_generator,
    osp_generators,
    rsquare,
    rsquare_mul,
    sl2_relations_check,
    xi,
)
from superharm.superpoly import (
    SuperPolynomial,
    SuperSignature,
    monomial_basis,
    parse_polynomial,
)

SIG11 = SuperSignature(1, 1)
SIG21 = SuperSignature(2, 1)


def test_laplacian_on_fermionic_pair():
    t1t2 = parse_polynomial("t1 t2", SIG11)
    assert laplacian(t1t2) == SuperPolynomial.constant(SIG11, 4)


def test_laplacian_purely_bosonic():
    p = parse_polynomial("x1^2 + x2^2", SuperSignature(2, 0))
    assert laplacian(p) == SuperPolynomial.constant(SuperSignature(2, 0), 4)


def test_laplacian_of_rsquare_is_twice_superdimension():
    for m, n in [(1, 1), (2, 3), (0, 2), (3, 0), (0, 0)]:
        sig = SuperSignature(m, n)
        assert laplacian(rsquare(sig)) == SuperPolynomial.constant(sig, 2 * sig.M)


def test_rsquare_purely_fermionic():
    sig = SuperSignature(0, 2)
    expected = parse_polynomial("0", sig) - parse_polynomial("t1 t2 + t3 t4", sig)
    assert rsquare(sig) == expected
    one = SuperPolynomial.one(sig)
    assert rsquare_mul(one) == expected


def test_euler_multiplies_by_degree():
    p = parse_polynomial("x1 x2 t1", SuperSignature(2, 1))
    assert euler(p) == 3 * p
    assert euler(SuperPolynomial.one(SIG11)).is_zero()


def test_xi_zero_offset_classical():
    x1sq = parse_polynomial("x1^2", SuperSignature(1, 0))
    assert xi(0, x1sq) == parse_polynomial("x1^2 - x2^2", SuperSignature(2, 0))


def test_xi_terminates_on_fermionic_input():
    p = parse_polynomial("t1 t2", SuperSignature(0, 1))
    q = xi(1, p)
    sig = SuperSignature(1, 1)
    # x1/1! * t1 t2 - x1^3/3! * lap(t1 t2)
    expected = parse_polynomial("x1 t1 t2 - 2/3*x1^3", sig)
    assert q == expected


def test_xi_lifts_one_bosonic_variable_up():
    p = parse_polynomial("x1 t1 t2", SuperSignature(1, 1))
    q = xi(2, p)
    assert q.signature == SIG21
    assert q.is_homogeneous(5)
    with pytest.raises(ValueError):
        xi(-1, p)


def test_compose_shifts_add():
    # laplacian after r2 after laplacian: shifts -2 + 2 - 2, so the matrix
    # on P_4 has the rows of P_2
    sig = SIG21
    r2 = rsquare(sig)
    A = operator_matrix(lambda p: laplacian(r2 * laplacian(p)), sig, 4, -2)
    assert (A.rows, A.cols) == (len(monomial_basis(sig, 2)), len(monomial_basis(sig, 4)))
    assert rank(A) > 0


@pytest.mark.parametrize("m,n", VERIFY_GRID)
def test_matrix_products_match_composed_operators(m, n):
    sig = SuperSignature(m, n)
    r2 = rsquare(sig)
    for k in range(7):
        L = operator_matrix(laplacian, sig, k, -2)
        R = operator_matrix(lambda p: r2 * p, sig, k - 2, 2)
        composed = operator_matrix(lambda p: laplacian(r2 * laplacian(p)), sig, k, -2)
        assert matmul(matmul(L, R), L) == composed
        assert matmul(L, R) == operator_matrix(lambda p: laplacian(r2 * p), sig, k - 2, 0)


@pytest.mark.parametrize(
    "m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (0, 2), (3, 0), (0, 0), (1, 0)]
)
def test_sl2_relations_small_degrees(m, n):
    sig = SuperSignature(m, n)
    for k in range(0, 5):
        for res in sl2_relations_check(sig, k):
            assert res.ok, f"{res.name} failed at {sig} degree {k}: {res.witness_text()}"


def test_sl2_check_names_are_stable():
    # the verify suite prints these names; its output must not change
    assert [res.name for res in sl2_relations_check(SIG11, 1)] == [
        "sl2: [lap/2, r2/2] = euler + M/2",
        "sl2: [lap/2, euler + M/2] = lap",
        "sl2: [r2/2, euler + M/2] = -r2",
    ]


def test_commutator_check_reports_witness():
    sig = SuperSignature(1, 0)
    bad = commutator_check(
        laplacian, rsquare_mul, lambda p: SuperPolynomial.zero(sig), sig, 2, "broken"
    )
    assert not bad.ok
    assert bad.name == "broken"
    assert bad.witness is not None
    mono, lhs, rhs = bad.witness
    assert len(mono) == 1 and lhs != rhs
    assert "lhs" in bad.witness_text()


def test_osp_generator_bosonic_rotation():
    sig = SuperSignature(2, 0)
    L = osp_generator(sig, 1, 2)
    x1 = SuperPolynomial.x(sig, 1)
    x2 = SuperPolynomial.x(sig, 2)
    assert L(x1) == -x2
    assert L(x2) == x1
    assert L(SuperPolynomial.one(sig)).is_zero()


def test_osp_generator_index_range():
    with pytest.raises(ValueError):
        osp_generator(SIG11, 0, 1)
    with pytest.raises(ValueError):
        osp_generator(SIG11, 1, 4)


def test_osp_generator_count():
    sig = SuperSignature(2, 1)
    gens = osp_generators(sig)
    m, twon = 2, 2
    expected = m * (m - 1) // 2 + twon * (twon + 1) // 2 + m * twon
    assert len(gens) == expected


def test_osp_generator_parities():
    sig = SuperSignature(1, 1)
    x1 = SuperPolynomial.x(sig, 1)
    t1 = SuperPolynomial.t(sig, 1)
    # a fermionic pair gives an even map, a mixed pair an odd one
    assert osp_generator(sig, 2, 3)(t1).parity() == 1
    assert osp_generator(sig, 1, 2)(x1).parity() == 1
    assert osp_generator(sig, 1, 2)(t1).parity() == 0


@pytest.mark.parametrize("m,n", [(2, 1), (1, 1), (1, 2), (0, 2), (3, 0)])
def test_invariance_of_basic_operators(m, n):
    sig = SuperSignature(m, n)
    for k in range(0, 4):
        res = invariance_check(sig, k)
        assert res.ok, f"{res.name}: {res.witness_text()}"


def test_invariance_check_names_the_failing_bracket(monkeypatch):
    # multiplication by x1 does not commute with the laplacian
    sig = SIG21
    x1 = SuperPolynomial.x(sig, 1)
    monkeypatch.setattr(operators, "osp_generator", lambda sig, a, b: lambda p: x1 * p)
    res = invariance_check(sig, 1)
    assert not res.ok
    assert res.name == "invariance: [laplacian,L(1,2)] = 0 at degree 1"
    mono, lhs, rhs = res.witness
    assert len(mono) == 1 and not lhs.is_zero() and rhs.is_zero()
