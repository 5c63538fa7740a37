"""Extension from hyperplane data and its inverse."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superharm import ck, harmonics, operators
from superharm.branching import branch_harmonic
from superharm.ck import (
    SLOTS,
    CKData,
    ck_data,
    ck_extend,
    ck_extend_recursive,
    restriction_triple,
    slot_ambient,
)
from superharm.cli import _GRID as VERIFY_GRID, _SUITE_KMAX
from superharm.exactla import polynomial_vector, vector_polynomial
from superharm.harmonics import defect_kernel
from superharm.operators import laplacian, xi
from superharm.superpoly import (
    SuperMonomial,
    SuperPolynomial,
    SuperSignature,
    extend_signature,
    monomial_basis,
    restrict_hyperplane,
    space_dimension,
    xm_coefficients,
)

SIGS = [SuperSignature(1, 1), SuperSignature(2, 1), SuperSignature(3, 2)]


def _random_homogeneous(sig, k, rng):
    terms = {
        mono: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        for mono in monomial_basis(sig, k)
        if rng.random() < 0.6
    }
    return SuperPolynomial(sig, terms)


@pytest.mark.parametrize("sig", SIGS)
def test_extend_inverts_restriction_on_monomials(sig):
    for k in range(6):
        for mono in monomial_basis(sig, k):
            p = SuperPolynomial(sig, {mono: 1})
            assert ck_extend(ck_data(p, k)) == p


@pytest.mark.parametrize("sig", SIGS)
def test_closed_form_matches_recursion(sig):
    import random

    rng = random.Random(97)
    for k in range(7):
        p = _random_homogeneous(sig, k, rng)
        data = ck_data(p, k)
        assert ck_extend(data) == ck_extend_recursive(data) == p


def test_restriction_inverts_extension():
    import random

    rng = random.Random(11)
    sig = SuperSignature(2, 2)
    lower = sig.restricted()
    k = 4
    data = CKData(
        k,
        _random_homogeneous(lower, k, rng),
        _random_homogeneous(lower, k - 1, rng),
        _random_homogeneous(sig, k - 2, rng),
    )
    Q = ck_extend(data)
    back = ck_data(Q, k)
    assert back == data
    assert laplacian(Q) == data.laplacian


def test_zero_laplacian_part_gives_harmonic_extension():
    import random

    rng = random.Random(5)
    sig = SuperSignature(2, 1)
    lower = sig.restricted()
    for k in range(1, 6):
        data = CKData.from_parts(
            sig,
            k,
            boundary=_random_homogeneous(lower, k, rng),
            normal=_random_homogeneous(lower, k - 1, rng),
        )
        Q = ck_extend(data)
        assert laplacian(Q).is_zero()
        assert restrict_hyperplane(Q) == data.boundary


def test_pure_laplacian_part_has_zero_boundary_data():
    sig = SuperSignature(2, 1)
    w = SuperPolynomial.x(sig, 1) * SuperPolynomial.t(sig, 1)
    data = CKData.from_parts(sig, 4, laplacian=w)
    Q = ck_extend(data)
    back = ck_data(Q, 4)
    assert back.boundary.is_zero() and back.normal.is_zero()
    assert laplacian(Q) == w


def test_degree_zero_and_one():
    sig = SuperSignature(1, 1)
    lower = sig.restricted()
    one = SuperPolynomial.one(lower)
    Q = ck_extend(CKData.from_parts(sig, 0, boundary=one))
    assert Q == SuperPolynomial.one(sig)
    Q1 = ck_extend(CKData.from_parts(sig, 1, normal=one))
    assert Q1 == SuperPolynomial.x(sig, 1)


def test_dimension_identity():
    for sig in SIGS + [SuperSignature(1, 2)]:
        lower = sig.restricted()
        for k in range(8):
            assert space_dimension(sig, k) == (
                space_dimension(lower, k)
                + space_dimension(lower, k - 1)
                + space_dimension(sig, k - 2)
            )


def test_data_validation():
    sig = SuperSignature(2, 1)
    lower = sig.restricted()
    x1 = SuperPolynomial.x(lower, 1)
    with pytest.raises(ValueError):
        CKData(3, x1, SuperPolynomial.zero(lower), SuperPolynomial.zero(sig))
    with pytest.raises(ValueError):
        CKData(
            1,
            SuperPolynomial.x(sig, 1),  # wrong ring for the boundary part
            SuperPolynomial.zero(sig),
            SuperPolynomial.zero(sig),
        )
    with pytest.raises(ValueError):
        CKData(-1, SuperPolynomial.zero(lower), SuperPolynomial.zero(lower), SuperPolynomial.zero(sig))
    with pytest.raises(ValueError):
        ck_data(SuperPolynomial.t(SuperSignature(0, 1), 1))
    with pytest.raises(ValueError):
        ck_data(SuperPolynomial.zero(sig))


def only_in_slot(triple, slot, p):
    """The triple is p in `slot` and zero in the other two slots."""
    return all((got == p) if name == slot else got.is_zero() for name, got in zip(SLOTS, triple))


def test_slot_protocol_reads_the_data_back():
    # each slot's data lives in the ring and degree of the slot table, the
    # read-back of an extension is its data, and the predicate holds in the
    # data's slot only
    import random

    rng = random.Random(23)
    sig, k = SuperSignature(2, 1), 4
    for slot, (down, drop) in ck.SLOTS.items():
        ring, d = ck.slot_ambient(sig, k, slot)
        assert d == k - drop and down == (slot != "laplacian")
        assert ring == (sig if slot == "laplacian" else sig.restricted())
        w = _random_homogeneous(ring, d, rng)
        assert not w.is_zero()
        triple = ck.restriction_triple(ck_extend(CKData.from_parts(sig, k, **{slot: w})))
        assert only_in_slot(triple, slot, w)
        others = [other for other in ck.SLOTS if other != slot]
        assert not any(only_in_slot(triple, other, w) for other in others)


def test_inhomogeneous_rejected():
    sig = SuperSignature(1, 1)
    p = SuperPolynomial.one(sig) + SuperPolynomial.x(sig, 1)
    with pytest.raises(ValueError):
        ck_data(p)


@st.composite
def _triples(draw):
    sig = SuperSignature(2, 1)
    lower = sig.restricted()
    k = draw(st.integers(min_value=0, max_value=5))

    def poly(s, deg):
        if deg < 0:
            return SuperPolynomial.zero(s)
        basis = monomial_basis(s, deg)
        coeffs = draw(
            st.lists(
                st.fractions(min_value=-4, max_value=4, max_denominator=3),
                min_size=len(basis),
                max_size=len(basis),
            )
        )
        return SuperPolynomial(s, dict(zip(basis, coeffs)))

    return CKData(k, poly(lower, k), poly(lower, k - 1), poly(sig, k - 2))


@given(_triples(), _triples())
@settings(max_examples=40, deadline=None)
def test_extension_is_linear(a, b):
    if a.degree != b.degree:
        return
    summed = CKData(
        a.degree, a.boundary + b.boundary, a.normal + b.normal, a.laplacian + b.laplacian
    )
    assert ck_extend(summed) == ck_extend(a) + ck_extend(b)


@given(_triples())
@settings(max_examples=40, deadline=None)
def test_round_trip_property(data):
    assert ck_data(ck_extend(data), data.degree) == data


# -- the CK series against polynomial products ---------------------------------

LOWER_SIGS = [SuperSignature(m, n) for m, n in VERIFY_GRID] + [
    SuperSignature(3, 3),
    SuperSignature(0, 3),
    SuperSignature(4, 1),
]


def _xm_power(sig, j):
    """x_m^j / j! in signature sig, built as a polynomial product."""
    return SuperPolynomial.x(sig, sig.m) ** j * Fraction(1, factorial(j))


def _int_when_integral(p):
    """Every coefficient is an int exactly when its value is integral."""
    return all((type(c) is int) == (Fraction(c).denominator == 1) for c in p.terms.values())


def _xi_by_products(ell, p):
    """The series xi summed by polynomial products, one step at a time."""
    sig = p.signature.extended()
    out = SuperPolynomial.zero(sig)
    q, j = p, ell
    while not q.is_zero():
        out = out + extend_signature(q, sig) * _xm_power(sig, j)
        q = -laplacian(q)
        j += 2
    return out


def _recursive_by_products(data):
    """ck_extend_recursive with the slices summed by polynomial products."""
    k = data.degree
    coeffs = [data.boundary, data.normal][: k + 1]
    slices = xm_coefficients(data.laplacian, k - 2) if k >= 2 else ()
    for j in range(k - 1):
        coeffs.append(slices[j] - laplacian(coeffs[j]))
    out = SuperPolynomial.zero(data.signature)
    for j, c in enumerate(coeffs):
        out = out + extend_signature(c, data.signature) * _xm_power(data.signature, j)
    return out


@st.composite
def _sparse_polynomials(draw, sig, k):
    """Up to six terms of degree k in sig, int or Fraction coefficients,
    sometimes only on the purely fermionic monomials; zero when empty."""
    if k < 0:
        return SuperPolynomial.zero(sig)
    basis = monomial_basis(sig, k)
    slots = range(len(basis))
    if draw(st.booleans()):
        slots = [j for j, mono in enumerate(basis) if not any(mono.powers)]
    if not slots:
        return SuperPolynomial.zero(sig)
    coefficient = st.one_of(
        st.integers(min_value=-5, max_value=5),
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
    )
    vec = draw(st.dictionaries(st.sampled_from(slots), coefficient, max_size=6))
    return vector_polynomial(sig, k, vec)


@st.composite
def _series_inputs(draw):
    sig = draw(st.sampled_from(LOWER_SIGS))
    p = draw(_sparse_polynomials(sig, draw(st.integers(min_value=0, max_value=4))))
    return draw(st.integers(min_value=0, max_value=4)), p


@settings(max_examples=80, deadline=None)
@given(_series_inputs())
def test_xi_matches_the_product_series(case):
    ell, p = case
    got = xi(ell, p)
    assert got.signature == p.signature.extended()
    assert dict(got.terms) == dict(_xi_by_products(ell, p).terms)
    assert _int_when_integral(got)


@settings(max_examples=80, deadline=None)
@given(_series_inputs())
def test_xi_solves_its_laplace_equation(case):
    # lap xi(ell, p) = x_m^(ell-2)/(ell-2)! p, and 0 for ell = 0, 1
    ell, p = case
    image = laplacian(xi(ell, p))
    if ell < 2:
        assert image.is_zero()
    else:
        assert image == extend_signature(p, image.signature) * _xm_power(image.signature, ell - 2)


@st.composite
def _lifted_triples(draw):
    lower = draw(st.sampled_from(LOWER_SIGS))
    sig = lower.extended()
    k = draw(st.integers(min_value=0, max_value=4))
    return CKData(
        k,
        draw(_sparse_polynomials(lower, k)),
        draw(_sparse_polynomials(lower, k - 1)),
        draw(_sparse_polynomials(sig, k - 2)),
    )


@settings(max_examples=80, deadline=None)
@given(_lifted_triples())
def test_recursive_extension_matches_the_product_sum(data):
    got = ck_extend_recursive(data)
    assert dict(got.terms) == dict(_recursive_by_products(data).terms)
    assert _int_when_integral(got)
    assert got == ck_extend(data)


def _xi_scales_variant(alternate, grow):
    """The scale rule of the xi series, optionally without the sign
    alternation (alternate=False) or with ell! in place of (ell+2s)!
    (grow=False)."""

    def variant(ell, top):
        j, scale = ell, top // factorial(ell)
        while True:
            yield j, scale
            if grow:
                scale //= (j + 1) * (j + 2)
            if alternate:
                scale = -scale
            j += 2

    return variant


@pytest.mark.parametrize(
    "alternate,grow,faithful",
    [(True, True, True), (False, True, False), (True, False, False)],
    ids=["faithful", "no-sign", "ell-factorial"],
)
def test_broken_series_fails_round_trip_and_branching(monkeypatch, alternate, grow, faithful):
    # the scale rule is shared: the polynomial series (xi_into) and the
    # index-space series of branching's slot checks both read it
    variant = _xi_scales_variant(alternate, grow)
    for module in (operators, ck):
        monkeypatch.setattr(module, "xi_scales", variant)
    for sig in (SuperSignature(2, 1), SuperSignature(2, 2)):
        round_trips = [
            ck_extend(ck_data(p, k)) == p
            for k in range(2, 5)
            for p in (SuperPolynomial(sig, {mono: 1}) for mono in monomial_basis(sig, k))
        ]
        assert all(round_trips) if faithful else not all(round_trips)
    rep = branch_harmonic(SuperSignature(3, 2), 4)
    assert dict(rep.checks)["boundary-slot generators verify"] is faithful
    assert rep.verified is faithful


# -- the index-space extension against the polynomial one ------------------------


def _slot_rows(sig, k):
    """slot -> integer rows of its data: the unit rows of its basis, and the
    lower Fischer generators (boundary, normal) or the defect kernel
    (Laplacian)."""
    rows = {}
    for slot in SLOTS:
        ring, d = slot_ambient(sig, k, slot)
        rows[slot] = [{i: 1} for i in range(space_dimension(ring, d))]
        if slot == "laplacian":
            rows[slot] += list(defect_kernel(ring, d).rows)
        elif d >= 0:
            plan, _ = harmonics._decomposition_plan(ring, d)
            for kind, degree, _ in plan:
                rows[slot] += harmonics._component_rows(ring, kind, degree, d)
    return rows


# the verify grid (m >= 1, k <= 5) and (4|6) at k = 6
EXTENSION_CASES = [
    (SuperSignature(m, n), k)
    for m, n in VERIFY_GRID
    if m
    for k in range(_SUITE_KMAX["branching"] + 1)
] + [(SuperSignature(4, 3), 6)]


@pytest.mark.parametrize("sig,k", EXTENSION_CASES, ids=[f"{s}-{k}" for s, k in EXTENSION_CASES])
def test_slot_extension_matches_the_polynomial_extension(sig, k):
    # each extended row is k! times the coordinates of ck_extend of the same
    # data, and its slices are k! times the boundary and normal data
    top = factorial(k)
    for slot, rows in _slot_rows(sig, k).items():
        ring, d = slot_ambient(sig, k, slot)
        extend = ck.slot_extension(sig, k, slot)
        for row in rows:
            ext, boundary, normal = extend(row)
            Q = ck_extend(CKData.from_parts(sig, k, **{slot: vector_polynomial(ring, d, row)}))
            assert ext == {i: top * c for i, c in polynomial_vector(Q, k).items()}, (slot, row)
            data = restriction_triple(Q)
            assert boundary == {i: top * c for i, c in polynomial_vector(data[0], k).items()}
            assert normal == {i: top * c for i, c in polynomial_vector(data[1], k - 1).items()}


# -- the common denominator against the Fraction series --------------------------


def _xi_fraction_terms(ell, p):
    """xi with every term written as the Fraction (-1)^s c/(ell+2s)!."""
    terms = {}
    q, j, scale = p, ell, factorial(ell)
    while not q.is_zero():
        for (powers, f), c in q:
            c = Fraction(c)
            terms[SuperMonomial(powers + (j,), f)] = Fraction(c.numerator, c.denominator * scale)
        q = laplacian(q)
        scale *= -(j + 1) * (j + 2)
        j += 2
    return SuperPolynomial(p.signature.extended(), terms, _clean=True)


def _ck_extend_by_fraction_series(data):
    """ck_extend as a sum of separate Fraction series, one per slot and slice."""
    out = _xi_fraction_terms(0, data.boundary) + _xi_fraction_terms(1, data.normal)
    if data.degree >= 2:
        for j, w in enumerate(xm_coefficients(data.laplacian, data.degree - 2)):
            out = out + _xi_fraction_terms(j + 2, w)
    return out


@settings(max_examples=120, deadline=None)
@given(_lifted_triples())
def test_common_denominator_matches_the_fraction_series(data):
    got = ck_extend(data)
    reference = _ck_extend_by_fraction_series(data)
    assert all(type(c) is Fraction for c in reference.terms.values())
    assert dict(got.terms) == dict(reference.terms)
    assert _int_when_integral(got)
    assert dict(ck_extend_recursive(data).terms) == dict(reference.terms)


# -- the row path of ck_extend against the polynomial recursion ------------------


@pytest.mark.parametrize("seed", range(4))
def test_row_extension_matches_the_recursion_on_rational_data(seed):
    # GT data is rational: every part of the triple carries Fraction
    # coefficients, and the closed form on rows must equal the recursion on
    # polynomials term for term, with ints exactly where a value is integral
    import random

    rng = random.Random(4100 + seed)
    for lower in LOWER_SIGS:
        sig = lower.extended()
        for k in range(7 if sig.m + sig.n <= 4 else 5):
            data = CKData(
                k,
                _random_homogeneous(lower, k, rng),
                _random_homogeneous(lower, k - 1, rng),
                _random_homogeneous(sig, k - 2, rng),
            )
            got = ck_extend(data)
            assert dict(got.terms) == dict(ck_extend_recursive(data).terms), (sig, k)
            assert _int_when_integral(got)
            assert ck_data(got, k) == data
