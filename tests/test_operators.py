from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    SuperMonomial,
    SuperPolynomial,
    SuperSignature,
    d_bosonic,
    d_fermionic,
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
    assert rank(A.row_dicts()) > 0


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


# Witness texts of the sl(2) checks with one operator broken, recorded when
# the relations were checked on Fraction coefficients (e = lap/2, f = r2/2,
# h = euler + M/2): the doubled integer checks must report the same sides.
_BROKEN_SL2_WITNESSES = [
    (
        (1, 1), 1, "laplacian", "times 3",
        ["on t1: lhs=3/2*t1, rhs=1/2*t1", "", ""],
    ),
    (
        (1, 1), 1, "euler", "times 2",
        ["on t1: lhs=1/2*t1, rhs=3/2*t1", "", "on t1: lhs=-2*x1^2 t1, rhs=-x1^2 t1"],
    ),
    (
        (1, 1), 1, "rsquare_mul", "plus t1 t2",
        ["on x1: lhs=3/2*x1, rhs=1/2*x1", "", ""],
    ),
    (
        (2, 1), 2, "rsquare_mul", "minus x1^2/3",
        ["on t1 t2: lhs=11/6*t1 t2, rhs=2*t1 t2", "", ""],
    ),
    (
        (0, 2), 2, "euler", "plus 1",
        ["on t1 t2: lhs=0, rhs=t1 t2", "", ""],
    ),
    (
        (3, 0), 3, "euler", "times 2",
        [
            "on x3^3: lhs=9/2*x3^3, rhs=15/2*x3^3",
            "on x3^3: lhs=12*x3, rhs=6*x3",
            "on x3^3: lhs=-2*x1^2 x3^3 - 2*x2^2 x3^3 - 2*x3^5, rhs=-x1^2 x3^3 - x2^2 x3^3 - x3^5",
        ],
    ),
    (
        (1, 2), 2, "laplacian", "times 3",
        ["on t1 t2: lhs=3/2*t1 t2, rhs=1/2*t1 t2", "", ""],
    ),
]


def _broken(sig, name, how):
    original = getattr(operators, name)
    if how == "times 3":
        return lambda p: original(p) * 3
    if how == "times 2":
        return lambda p: original(p) * 2
    if how == "plus 1":
        return lambda p: original(p) + p
    if how == "plus t1 t2":
        t1t2 = SuperPolynomial.t(sig, 1) * SuperPolynomial.t(sig, 2)
        return lambda p: original(p) + t1t2 * p
    x1 = SuperPolynomial.x(sig, 1)
    return lambda p: original(p) - x1 * x1 * p * Fraction(1, 3)


@pytest.mark.parametrize("mn,k,name,how,expected", _BROKEN_SL2_WITNESSES)
def test_sl2_witness_text_of_a_broken_operator(monkeypatch, mn, k, name, how, expected):
    sig = SuperSignature(*mn)
    monkeypatch.setattr(operators, name, _broken(sig, name, how))
    results = sl2_relations_check(sig, k)
    assert [res.witness_text() for res in results] == expected
    assert [res.ok for res in results] == [not text for text in expected]


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


# -- monomial rules against the derivative and product references -------------

PROPERTY_SIGS = [SuperSignature(m, n) for m, n in VERIFY_GRID] + [
    SuperSignature(4, 4),
    SuperSignature(0, 3),
    SuperSignature(3, 0),
]


def _laplacian_reference(p):
    """Sum of d^2/dx_j^2 minus 4 d/dt_(2j-1) d/dt_(2j), one whole-polynomial
    step at a time."""
    sig = p.signature
    out = SuperPolynomial.zero(sig)
    for j in range(1, sig.m + 1):
        out = out + d_bosonic(d_bosonic(p, j), j)
    for j in range(1, sig.n + 1):
        out = out - 4 * d_fermionic(d_fermionic(p, 2 * j), 2 * j - 1)
    return out


def _rsquare_reference(p):
    return rsquare(p.signature) * p


def _neighbours(sig, mono, step):
    """Monomials one rule step from mono: two more (step=1) or two fewer
    (step=-1) in one x exponent, or one fermionic pair added or removed."""
    powers, f = mono
    out = []
    for i, e in enumerate(powers):
        if e + 2 * step >= 0:
            out.append(SuperMonomial(powers[:i] + (e + 2 * step,) + powers[i + 1 :], f))
    for j in range(sig.n):
        pair = 3 << (2 * j)
        if step > 0 and not f & pair:
            out.append(SuperMonomial(powers, f | pair))
        if step < 0 and f & pair == pair:
            out.append(SuperMonomial(powers, f ^ pair))
    return out


_COEFFS = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-5, 11), Fraction(2**61 - 1, 10**9 + 7)]
)


@st.composite
def _cancelling_polynomials(draw, reference, step):
    """p mixes random terms with two sources whose images under `reference`
    cancel at one target monomial.  step is +1 for the Laplacian (the
    sources lie two degrees above the target) and -1 for r2."""
    sig = draw(st.sampled_from(PROPERTY_SIGS))
    top = 3 if sig == SuperSignature(4, 4) else 4
    shift = -2 * step  # target degree minus source degree
    k = draw(st.sampled_from([k for k in range(2, top + 1) if monomial_basis(sig, k + shift)]))
    target = draw(st.sampled_from(monomial_basis(sig, k + shift)))
    sources = _neighbours(sig, target, step)
    basis = monomial_basis(sig, k)
    terms = {
        basis[i]: c
        for i, c in draw(
            st.lists(st.tuples(st.integers(0, len(basis) - 1), _COEFFS), max_size=4)
        )
    }
    p = SuperPolynomial(sig, terms)
    if len(sources) >= 2:
        i, j = draw(
            st.lists(
                st.integers(0, len(sources) - 1), min_size=2, max_size=2, unique=True
            )
        )
        w1 = reference(SuperPolynomial(sig, {sources[i]: 1})).coefficient(target)
        w2 = reference(SuperPolynomial(sig, {sources[j]: 1})).coefficient(target)
        scale = draw(_COEFFS)
        p = p + SuperPolynomial(sig, {sources[i]: scale * w2, sources[j]: -scale * w1})
    return p


@settings(max_examples=80, deadline=None)
@given(_cancelling_polynomials(_laplacian_reference, 1))
def test_laplacian_matches_derivative_reference(p):
    assert laplacian(p) == _laplacian_reference(p)


@settings(max_examples=80, deadline=None)
@given(_cancelling_polynomials(_rsquare_reference, -1))
def test_rsquare_mul_matches_product_reference(p):
    assert rsquare_mul(p) == _rsquare_reference(p)


def test_rules_drop_cancelled_terms():
    sig = SuperSignature(1, 1)
    # lap(x1^2) = 2 and lap(t1 t2) = 4 cancel
    assert laplacian(parse_polynomial("x1^2 - 1/2*t1 t2", sig)).is_zero()
    # r2 x1^2 and r2 t1 t2 both reach x1^2 t1 t2, with opposite signs
    q = rsquare_mul(parse_polynomial("x1^2 + t1 t2", sig))
    assert q == parse_polynomial("x1^4", sig)
    assert len(q) == 1


@pytest.mark.parametrize("sig", PROPERTY_SIGS, ids=str)
def test_operator_matrices_match_reference_matrices(sig):
    top = 4 if sig == SuperSignature(4, 4) else 6
    for k in range(top + 1):
        assert operator_matrix(laplacian, sig, k, -2) == operator_matrix(
            _laplacian_reference, sig, k, -2
        )
        assert operator_matrix(rsquare_mul, sig, k, 2) == operator_matrix(
            _rsquare_reference, sig, k, 2
        )


def test_rsquare_mul_does_not_build_rsquare(monkeypatch):
    sig = SuperSignature(2, 2)
    p = parse_polynomial("x1 t1 - 3/5*x2^2 t2 t3 + t1 t2 t3 t4", sig)
    expected = rsquare(sig) * p

    def forbidden(signature):
        raise AssertionError("rsquare_mul rebuilt r2")

    monkeypatch.setattr(operators, "rsquare", forbidden)
    assert rsquare_mul(p) == expected
