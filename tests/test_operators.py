from fractions import Fraction

import pytest

from superharm.cli import _GRID as VERIFY_GRID
from superharm.exactla import matmul, operator_matrix
from superharm.operators import (
    CheckResult,
    commutator_check,
    compose,
    euler,
    euler_op,
    generalized_laplacian_op,
    graded_commutator,
    identity_op,
    invariance_check,
    laplacian,
    laplacian_op,
    op_add,
    op_scale,
    osp_generator,
    osp_generators,
    rsquare,
    rsquare_mul,
    rsquare_op,
    sl2_relations_check,
    xi,
    xi_op,
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


def test_xi_op_descriptor():
    op = xi_op(SIG21, 2)
    assert op.signature == SuperSignature(1, 1)
    assert op.target_signature == SIG21
    assert op.degree_shift == 2
    with pytest.raises(ValueError):
        xi_op(SuperSignature(0, 1), 0)


def test_operator_signature_guard():
    with pytest.raises(ValueError):
        laplacian_op(SIG11)(SuperPolynomial.one(SIG21))


def test_compose_shifts_add():
    sig = SIG21
    op = generalized_laplacian_op(sig)
    assert op.degree_shift == -2
    p = parse_polynomial("x1^2 x2^2", sig)
    lap = laplacian_op(sig)
    r2 = rsquare_op(sig)
    assert op(p) == lap(r2(lap(p)))


@pytest.mark.parametrize("m,n", VERIFY_GRID)
def test_matrix_products_match_composed_operators(m, n):
    sig = SuperSignature(m, n)
    lap, r2 = laplacian_op(sig), rsquare_op(sig)
    for k in range(7):
        L = operator_matrix(lap, k)
        R = operator_matrix(r2, k - 2)
        assert matmul(matmul(L, R), L) == operator_matrix(generalized_laplacian_op(sig), k)
        assert matmul(L, R) == operator_matrix(compose(lap, r2), k - 2)


def test_graded_commutator_even_case():
    sig = SIG11
    bracket = graded_commutator(laplacian_op(sig), rsquare_op(sig))
    p = parse_polynomial("x1 t1", sig)
    # [lap, r2] = 2 euler + 2 (M/2) * 2 = on degree 2: 2*(2) + 2*M/2... check directly
    assert bracket(p) == laplacian(rsquare_mul(p)) - rsquare_mul(laplacian(p))


@pytest.mark.parametrize(
    "m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (0, 2), (3, 0), (0, 0), (1, 0)]
)
def test_sl2_relations_small_degrees(m, n):
    sig = SuperSignature(m, n)
    for k in range(0, 5):
        for res in sl2_relations_check(sig, k):
            assert res.ok, f"{res.name} failed at {sig} degree {k}: {res.witness_text()}"


def test_commutator_check_reports_witness():
    sig = SuperSignature(1, 0)
    bad = commutator_check(
        laplacian_op(sig), rsquare_op(sig), identity_op(sig, 0), 2, "broken"
    )
    assert not bad.ok
    assert bad.name == "broken"
    assert bad.witness is not None
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
    assert osp_generator(sig, 2, 3).parity == 0
    assert osp_generator(sig, 1, 2).parity == 1


@pytest.mark.parametrize("m,n", [(2, 1), (1, 1), (1, 2), (0, 2), (3, 0)])
def test_invariance_of_basic_operators(m, n):
    sig = SuperSignature(m, n)
    for k in range(0, 4):
        res = invariance_check(sig, k)
        assert res.ok, f"{res.name}: {res.witness_text()}"


def test_op_add_requires_matching_shape():
    with pytest.raises(ValueError):
        op_add(laplacian_op(SIG11), rsquare_op(SIG11))


def test_op_scale_and_name_chains():
    sig = SIG11
    half_lap = op_scale(Fraction(1, 2), laplacian_op(sig))
    p = parse_polynomial("t1 t2", sig)
    assert half_lap(p) == SuperPolynomial.constant(sig, 2)
    chained = compose(laplacian_op(sig), rsquare_op(sig))
    assert chained.name == "laplacian*rsquare_mul"
