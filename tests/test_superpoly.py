import math
from dataclasses import asdict, fields
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from superharm.superpoly import (
    SuperMonomial,
    SuperPolynomial,
    SuperSignature,
    basis_index,
    d_bosonic,
    d_fermionic,
    extend_signature,
    format_polynomial,
    monomial_basis,
    parse_polynomial,
    restrict_hyperplane,
    space_dimension,
    xm_coefficients,
)

SIG11 = SuperSignature(1, 1)
SIG21 = SuperSignature(2, 1)
SIG23 = SuperSignature(2, 3)


def test_signature_validation():
    with pytest.raises(ValueError):
        SuperSignature(-1, 0)
    with pytest.raises(ValueError):
        SuperSignature(0, -2)
    assert SuperSignature(3, 2).M == -1
    assert SuperSignature(0, 0).M == 0


def test_signature_hash_equality_and_order_follow_the_pair():
    pairs = [(m, n) for m in range(4) for n in range(4)]
    sigs = [SuperSignature(m, n) for m, n in pairs]
    for sig, pair in zip(sigs, pairs):
        assert hash(sig) == hash(pair) == hash(SuperSignature(*pair))
        assert asdict(sig) == {"m": pair[0], "n": pair[1]}
        assert [f.name for f in fields(sig)] == ["m", "n"]
        assert repr(sig) == f"SuperSignature(m={pair[0]}, n={pair[1]})"
        for other, other_pair in zip(sigs, pairs):
            assert (sig == other) == (pair == other_pair)
            assert (sig < other) == (pair < other_pair)
            assert (sig <= other) == (pair <= other_pair)
    assert sorted(reversed(sigs)) == sigs
    assert len({*sigs, *(SuperSignature(m, n) for m, n in pairs)}) == len(pairs)


def test_restricted_signature_is_made_once():
    sig = SuperSignature(3, 2)
    lower = sig.restricted()
    assert lower == SuperSignature(2, 2) and sig.restricted() is lower
    assert lower.restricted() is lower.restricted() is sig.restricted().restricted()
    # a fresh equal signature makes its own, equal one
    assert SuperSignature(3, 2).restricted() == lower
    assert asdict(sig) == {"m": 3, "n": 2}
    with pytest.raises(ValueError):
        SuperSignature(0, 2).restricted()


def test_tensor_factors_are_made_once_and_lead_the_basis_order():
    cases = {
        (3, 2): ((3, 0), (0, 2)),
        (1, 1): ((1, 0), (0, 1)),
        (4, 0): ((1, 0), (3, 0)),
        (2, 0): ((1, 0), (1, 0)),
        (0, 3): ((0, 1), (0, 2)),
        (0, 2): ((0, 1), (0, 1)),
    }
    for (m, n), (major, minor) in cases.items():
        sig = SuperSignature(m, n)
        assert sig.factors() == (SuperSignature(*major), SuperSignature(*minor))
        assert sig.factors() is sig.factors()
    for m, n in ((1, 0), (0, 1), (0, 0)):
        assert SuperSignature(m, n).factors() is None
    # the rank-one rings are one instance each, whichever ring splits them off
    line = SuperSignature(5, 0).factors()[0]
    assert line is SuperSignature(2, 0).factors()[1] is SuperSignature(1, 3).factors()[0]
    assert SuperSignature(0, 4).factors()[0] is SuperSignature(0, 2).factors()[1]

    # the degree-d basis lists the major monomials u in order, each times the
    # minor basis of degree d - |u|: x1 before (x2..xm), the top pair before
    # the lower pairs, the exponent vector before the mask
    def joined(sig, u, v):
        if sig.m and sig.n:
            return SuperMonomial(u.powers, v.fermions)
        if sig.m:
            return SuperMonomial(u.powers + v.powers, 0)
        return SuperMonomial((), v.fermions | u.fermions << (2 * sig.n - 2))

    for m, n in ((3, 2), (1, 2), (4, 0), (2, 0), (0, 3), (0, 2)):
        sig = SuperSignature(m, n)
        major, minor = sig.factors()
        for d in range(8):
            majors = sorted(u for e in range(d + 1) for u in monomial_basis(major, e))
            listed = [joined(sig, u, v) for u in majors for v in monomial_basis(minor, d - u.degree)]
            assert tuple(listed) == monomial_basis(sig, d), (sig, d)


def test_degenerate_signatures_are_legal():
    assert monomial_basis(SuperSignature(0, 1), 1) == (
        SuperMonomial((), 1),
        SuperMonomial((), 2),
    )
    assert monomial_basis(SuperSignature(0, 0), 0) == (SuperMonomial((), 0),)
    assert monomial_basis(SuperSignature(0, 0), 1) == ()
    assert monomial_basis(SuperSignature(3, 0), 1) == (
        SuperMonomial((0, 0, 1), 0),
        SuperMonomial((0, 1, 0), 0),
        SuperMonomial((1, 0, 0), 0),
    )


def test_square_with_fermionic_part():
    p = SuperPolynomial.x(SIG11, 1) + SuperPolynomial.t(SIG11, 1) * SuperPolynomial.t(SIG11, 2)
    sq = p * p
    x1 = SuperPolynomial.x(SIG11, 1)
    t12 = SuperPolynomial.t(SIG11, 1) * SuperPolynomial.t(SIG11, 2)
    assert sq == x1 * x1 + 2 * x1 * t12


def test_anticommutation_and_nilpotence():
    t1 = SuperPolynomial.t(SIG23, 1)
    t2 = SuperPolynomial.t(SIG23, 2)
    assert t1 * t2 == -(t2 * t1)
    assert (t1 * t1).is_zero()


def test_left_fermionic_derivative():
    t1t2 = SuperPolynomial.t(SIG11, 1) * SuperPolynomial.t(SIG11, 2)
    assert d_fermionic(t1t2, 2) == -SuperPolynomial.t(SIG11, 1)
    assert d_fermionic(t1t2, 1) == SuperPolynomial.t(SIG11, 2)


def test_derivative_out_of_range():
    p = SuperPolynomial.one(SIG11)
    with pytest.raises(ValueError):
        d_bosonic(p, 2)
    with pytest.raises(ValueError):
        d_fermionic(p, 3)


def _count_monomials(sig, k):
    # independent count: choose fermionic subset, then weak composition
    total = 0
    for f in range(min(2 * sig.n, k) + 1):
        bos = k - f
        if sig.m == 0:
            bosonic = 1 if bos == 0 else 0
        else:
            bosonic = math.comb(bos + sig.m - 1, sig.m - 1)
        total += math.comb(2 * sig.n, f) * bosonic
    return total


@pytest.mark.parametrize("m,n,k", [(2, 3, 2), (3, 2, 5), (0, 3, 4), (1, 0, 7), (0, 0, 0), (2, 2, 6)])
def test_basis_size_against_counting(m, n, k):
    sig = SuperSignature(m, n)
    basis = monomial_basis(sig, k)
    assert len(basis) == _count_monomials(sig, k)
    assert len(set(basis)) == len(basis)
    assert all(mono.degree == k for mono in basis)
    # canonical order is strictly increasing
    keys = [mono.sort_key() for mono in basis]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "sig, degrees",
    [(SuperSignature(4, 4), range(8)), (SuperSignature(0, 2), range(6)), (SuperSignature(3, 0), range(8))],
    ids=str,
)
def test_basis_sorted_without_a_key_is_in_sort_key_order(sig, degrees):
    # within one degree the plain tuple order (powers, fermions) is the
    # canonical order (degree, powers, fermions)
    for k in degrees:
        basis = monomial_basis(sig, k)
        assert list(basis) == sorted(basis, key=SuperMonomial.sort_key), k


def test_space_dimension_counts_without_listing():
    for m in range(4):
        for n in range(4):
            sig = SuperSignature(m, n)
            assert space_dimension(sig, -1) == 0
            for k in range(8):
                cached = monomial_basis.cache_info().currsize
                dim = space_dimension(sig, k)
                assert monomial_basis.cache_info().currsize == cached
                assert dim == len(monomial_basis(sig, k)), (m, n, k)


def test_basis_size_example():
    assert len(monomial_basis(SIG23, 2)) == 30


def test_basis_index_consistent():
    idx = basis_index(SIG23, 3)
    for i, mono in enumerate(monomial_basis(SIG23, 3)):
        assert idx[mono] == i


def test_restrict_and_embed_roundtrip():
    p = parse_polynomial("x1 x2 + x2^2 + t1 t2 x2 + t3 t4", SIG23)
    r = restrict_hyperplane(p)
    assert r.signature == SuperSignature(1, 3)
    assert r == parse_polynomial("t3 t4", SuperSignature(1, 3))
    q = parse_polynomial("x1 + t1", SuperSignature(1, 3))
    assert restrict_hyperplane(extend_signature(q, SIG23)) == q
    assert extend_signature(q, SIG23).signature == SIG23


def test_extend_signature_rejects_shrinking():
    p = SuperPolynomial.one(SIG23)
    with pytest.raises(ValueError):
        extend_signature(p, SuperSignature(1, 3))


def test_xm_coefficients_conventions():
    p = SuperPolynomial.x(SIG21, 2) * SuperPolynomial.t(SIG21, 1)
    q2, q1, q0 = xm_coefficients(p, 2)
    assert q2.is_zero() and q0.is_zero()
    assert q1 == SuperPolynomial.t(SuperSignature(1, 1), 1)
    # factorial convention: top slice of x_m^k is k!
    xm = SuperPolynomial.x(SIG21, 2)
    q2, q1, q0 = xm_coefficients(xm * xm, 2)
    assert q0 == SuperPolynomial.constant(SuperSignature(1, 1), 2)
    assert q2.is_zero() and q1.is_zero()


def test_xm_coefficients_reassemble():
    p = parse_polynomial("x1^2 x2 + 3*x2^3 + x2 t1 t2 - x1^3", SuperSignature(2, 1))
    slices = xm_coefficients(p, 3)
    xm = SuperPolynomial.x(SuperSignature(2, 1), 2)
    rebuilt = SuperPolynomial.zero(SuperSignature(2, 1))
    for j in range(4):
        lifted = extend_signature(slices[j], p.signature)
        rebuilt = rebuilt + lifted * xm**j * Fraction(1, math.factorial(j))
    assert rebuilt == p


def test_xm_coefficients_requires_homogeneous():
    p = parse_polynomial("x1 + x1^2", SuperSignature(1, 0))
    with pytest.raises(ValueError):
        xm_coefficients(p)
    with pytest.raises(ValueError):
        xm_coefficients(SuperPolynomial.zero(SuperSignature(1, 0)))
    zeros = xm_coefficients(SuperPolynomial.zero(SuperSignature(1, 0)), 2)
    assert len(zeros) == 3 and all(z.is_zero() for z in zeros)


def test_restrict_requires_bosonic_variable():
    with pytest.raises(ValueError):
        restrict_hyperplane(SuperPolynomial.one(SuperSignature(0, 1)))


def test_parse_grammar_example():
    sig = SuperSignature(3, 2)
    p = parse_polynomial("3/2*x1^2 x3 t1 t4 - t2 t3", sig)
    mono = SuperMonomial((2, 0, 1), 0b1001)
    assert p.coefficient(mono) == Fraction(3, 2)
    assert p.coefficient(SuperMonomial((0, 0, 0), 0b0110)) == -1
    assert format_polynomial(p) == "3/2*x1^2 x3 t1 t4 - t2 t3"


def test_parse_unordered_fermions_sign():
    sig = SuperSignature(0, 1)
    assert parse_polynomial("t2 t1", sig) == -parse_polynomial("t1 t2", sig)
    assert parse_polynomial("t1 t1", sig).is_zero()


def test_parse_errors():
    sig = SuperSignature(1, 1)
    for bad in ["", "x1 +", "x2", "t3", "x1 3/2", "1/0", "y1", "x1^", "+ - x1"]:
        with pytest.raises(ValueError):
            parse_polynomial(bad, sig)


def test_parse_leading_sign_and_constants():
    sig = SuperSignature(1, 0)
    assert parse_polynomial("-x1 + 2", sig) == 2 * SuperPolynomial.one(sig) - SuperPolynomial.x(sig, 1)
    assert parse_polynomial("0", sig).is_zero()
    assert format_polynomial(SuperPolynomial.zero(sig)) == "0"


def test_format_omits_unit_coefficients():
    sig = SuperSignature(2, 1)
    p = SuperPolynomial.x(sig, 1) - SuperPolynomial.t(sig, 2)
    assert format_polynomial(p) == "x1 - t2"


# -- property tests ----------------------------------------------------------

_small_scalars = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


def _polys(sig: SuperSignature, max_degree: int = 3):
    monos = [
        mono for k in range(max_degree + 1) for mono in monomial_basis(sig, k)
    ]
    return st.lists(
        st.tuples(st.sampled_from(monos), _small_scalars), max_size=4
    ).map(lambda items: SuperPolynomial(sig, items))


_SIG = SuperSignature(2, 2)


@settings(max_examples=60, deadline=None)
@given(_polys(_SIG), _polys(_SIG), _polys(_SIG))
def test_multiplication_associative_and_distributive(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(_polys(_SIG), _polys(_SIG))
def test_supercommutativity(p, q):
    # restrict to parity-homogeneous inputs
    pp, qp = p.parity(), q.parity()
    if pp is None or qp is None:
        return
    sign = -1 if (pp and qp) else 1
    assert p * q == sign * (q * p)


@settings(max_examples=60, deadline=None)
@given(_polys(_SIG), _polys(_SIG), st.integers(min_value=1, max_value=4))
def test_fermionic_derivative_graded_leibniz(p, q, j):
    if p.parity() is None:
        return
    sign = -1 if p.parity() else 1
    lhs = d_fermionic(p * q, j)
    rhs = d_fermionic(p, j) * q + sign * (p * d_fermionic(q, j))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(_polys(_SIG), st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2))
def test_bosonic_derivative_commutes_with_variable_bracket(p, i, j):
    # [d_i, x_j] = delta_ij as operators
    xj = SuperPolynomial.x(_SIG, j)
    lhs = d_bosonic(xj * p, i) - xj * d_bosonic(p, i)
    assert lhs == (p if i == j else SuperPolynomial.zero(_SIG))


@settings(max_examples=60, deadline=None)
@given(_polys(_SIG), st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_fermionic_derivative_variable_anticommutator(p, i, j):
    # {d_i, t_j} = delta_ij as operators
    tj = SuperPolynomial.t(_SIG, j)
    lhs = d_fermionic(tj * p, i) + tj * d_fermionic(p, i)
    assert lhs == (p if i == j else SuperPolynomial.zero(_SIG))


@settings(max_examples=40, deadline=None)
@given(_polys(_SIG))
def test_text_roundtrip(p):
    assert parse_polynomial(format_polynomial(p), _SIG) == p or p.is_zero()


@settings(max_examples=40, deadline=None)
@given(_polys(SuperSignature(2, 1)))
def test_restrict_is_ring_map_on_even_inputs(p):
    q = extend_signature(restrict_hyperplane(p * p), p.signature)
    r = restrict_hyperplane(p)
    assert restrict_hyperplane(p * p) == r * r


# -- int-or-Fraction coefficients ----------------------------------------------


def _coefficient_types(p):
    return [(type(c), c) for _, c in sorted(p.terms.items(), key=lambda kv: kv[0].sort_key())]


def test_integral_coefficients_are_stored_as_ints():
    one = SuperMonomial((0, 0), 0)
    for c in (3, Fraction(6, 2)):
        assert _coefficient_types(SuperPolynomial(SIG21, {one: c})) == [(int, 3)]
        assert _coefficient_types(SuperPolynomial.constant(SIG21, c)) == [(int, 3)]
    halves = [(one, Fraction(1, 2)), (one, Fraction(5, 2))]
    assert _coefficient_types(SuperPolynomial(SIG21, halves)) == [(int, 3)]
    assert _coefficient_types(SuperPolynomial.x(SIG21, 2)) == [(int, 1)]
    assert _coefficient_types(SuperPolynomial.t(SIG21, 1)) == [(int, 1)]
    assert _coefficient_types(parse_polynomial("3 x1 - 6/2 t1 t2", SIG21)) == [(int, 3), (int, -3)]
    assert _coefficient_types(parse_polynomial("1/2 x1 + 5/2 x1", SIG21)) == [(int, 3)]
    assert _coefficient_types(parse_polynomial("3/2 x1 t2 t1", SIG21)) == [
        (Fraction, Fraction(-3, 2))
    ]
    assert SuperPolynomial(SIG21, {one: 0}).is_zero()
    assert SuperPolynomial(SIG21).coefficient(one) == 0
    with pytest.raises(TypeError):
        SuperPolynomial(SIG21, {one: 0.5})


def test_int_arithmetic_stays_in_ints():
    p = parse_polynomial("2 x1^2 - x2 t1 + 3 t1 t2", SIG21)
    q = parse_polynomial("x1 + 5 t2", SIG21)
    for r in (p + q, p - q, p * q, -p, p * 3, 3 * p, p * Fraction(4, 2), p / Fraction(1, 3), p**2):
        assert all(type(c) is int for c in r.terms.values()), r


def test_division_is_exact():
    p = parse_polynomial("3 x1 - x2 t1", SIG21)
    for divisor, expected in ((2, "3/2*x1 - 1/2*x2 t1"), (Fraction(2, 3), "9/2*x1 - 3/2*x2 t1")):
        got = p / divisor
        assert got == parse_polynomial(expected, SIG21)
        assert all(type(c) is Fraction for c in got.terms.values())
    assert p / 1 == p and p / Fraction(-1) == -p
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            p / zero


def test_format_ignores_the_coefficient_type():
    monos = monomial_basis(SIG21, 2)
    for values in ((3, -1, 1, 7), (Fraction(3, 2), -1, Fraction(-5, 3), 2)):
        ints = dict(zip(monos, values))
        fractions = {mono: Fraction(c) for mono, c in ints.items()}
        as_int = SuperPolynomial(SIG21, ints, _clean=True)
        as_fraction = SuperPolynomial(SIG21, fractions, _clean=True)
        assert as_int == as_fraction
        assert format_polynomial(as_int).encode() == format_polynomial(as_fraction).encode()
