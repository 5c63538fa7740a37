"""Harmonic spaces and Fischer decompositions.

Dimension oracles used here were computed independently before the module
existed: binomial counts for fermionic harmonics, dim P_k - dim P_{k-2} for
regular signatures, and a hand-checked table of kernel dimensions at (2|6).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from superharm import exactla, harmonics
from superharm.cli import _GRID as VERIFY_GRID
from superharm.exactla import (
    Subspace,
    kernel,
    polynomial_vector,
    rank,
    span_subspace,
    subspace_polynomials,
)
from superharm.harmonics import (
    defect_kernel,
    exceptional_indices,
    fischer_decomposition,
    fischer_index_sets,
    generalized_harmonic_space,
    harmonic_basis,
    harmonic_space,
    laplacian_matrix,
    rsquare_lift,
    rsquare_lift_rows,
    rsquare_matrix,
    socle_space,
    verify_theorem_A,
)
from superharm.operators import laplacian, rsquare
from superharm.superpoly import (
    SuperPolynomial,
    SuperSignature,
    monomial_basis,
    space_dimension,
)

REGULAR = [SuperSignature(1, 1), SuperSignature(3, 2), SuperSignature(3, 0)]
S23 = SuperSignature(2, 3)


def test_exceptional_indices():
    assert sorted(exceptional_indices(-4)) == [4, 5, 6]
    assert sorted(exceptional_indices(-2)) == [3, 4]
    assert sorted(exceptional_indices(0)) == [2]
    assert exceptional_indices(3) == frozenset()
    assert exceptional_indices(-3) == frozenset()
    assert exceptional_indices(2) == frozenset()


def test_exceptional_indices_size():
    # |I_M| = 1 - M/2 for even M <= 0
    for M in (0, -2, -4, -6, -8):
        assert len(exceptional_indices(M)) == 1 - M // 2


@pytest.mark.parametrize("sig", REGULAR)
def test_regular_harmonic_dimension_formula(sig):
    for k in range(7):
        expected = space_dimension(sig, k) - space_dimension(sig, k - 2)
        assert harmonic_space(sig, k).dim == max(expected, 0)


def test_pure_polynomial_harmonics_match_classical_count():
    # m = 3, n = 0: dim H_k = 2k + 1
    sig = SuperSignature(3, 0)
    for k in range(6):
        assert harmonic_space(sig, k).dim == 2 * k + 1


def test_small_mixed_dims():
    sig = SuperSignature(1, 1)
    assert [harmonic_space(sig, k).dim for k in range(5)] == [1, 3, 3, 1, 0]


def test_mixed_dim_table_at_2_6():
    dims = [harmonic_space(S23, k).dim for k in range(9)]
    assert dims == [1, 8, 29, 64, 99, 120, 127, 128, 128]


def test_generalized_defect_at_2_6():
    diffs = [
        generalized_harmonic_space(S23, k).dim - harmonic_space(S23, k).dim
        for k in range(9)
    ]
    assert diffs == [0, 0, 0, 0, 29, 8, 1, 0, 0]
    # defect at k equals dim H_{2 - M - k}, M = -4
    for k in (4, 5, 6):
        assert diffs[k] == harmonic_space(S23, 6 - k).dim


def test_fermionic_harmonic_dims_binomial():
    for n in (1, 2, 3):
        sig = SuperSignature(0, n)
        for k in range(n + 1):
            lower = math.comb(2 * n, k - 2) if k >= 2 else 0
            expected = math.comb(2 * n, k) - lower
            assert harmonic_space(sig, k).dim == expected


def test_harmonic_basis_is_annihilated():
    for sig in (SuperSignature(2, 1), SuperSignature(0, 2)):
        for k in range(4):
            for h in harmonic_basis(sig, k):
                assert laplacian(h).is_zero()


def test_socle_trivial_below_degree_two():
    assert socle_space(S23, 0).dim == 0
    assert socle_space(S23, 1).dim == 0


def test_socle_inside_both_spaces():
    H0 = socle_space(S23, 4)
    assert harmonic_space(S23, 4).contains_subspace(H0)
    img_rank = rank(rsquare_matrix(S23, 2).row_dicts())
    assert H0.dim <= img_rank


def _zassenhaus_socle(sig, k):
    """H_k intersect r2 P_(k-2) by the Zassenhaus intersection: the
    reference for the socle cut from the defect kernel."""
    H = harmonic_space(sig, k)
    if k < 2:
        return Subspace.zero(H.ambient_dim, (sig, k))
    image = Subspace.from_rows(
        H.ambient_dim, harmonics._rsquare_columns(sig, k - 2), (sig, k)
    )
    return H.intersect(image)


# m = 0..4, n = 0..3 at k <= 6, and (4|8) at k = 4..7; m = 0 included, where
# r2 is not injective
SOCLE_GRID = [(SuperSignature(m, n), range(7)) for m in range(5) for n in range(4)] + [
    (SuperSignature(4, 4), range(4, 8))
]


@pytest.mark.parametrize("sig, degrees", SOCLE_GRID, ids=lambda v: str(v))
def test_socle_matches_the_zassenhaus_intersection(sig, degrees):
    for k in degrees:
        assert socle_space(sig, k) == _zassenhaus_socle(sig, k), k


def test_socle_grid_meets_nonzero_socles():
    # the exceptional windows of (2|6) and (4|8), M = -4: degrees 4..6
    for sig in (S23, SuperSignature(4, 4)):
        assert [socle_space(sig, k).dim for k in (4, 5, 6)] == [
            harmonic_space(sig, 2 - sig.M - k).dim for k in (4, 5, 6)
        ]
        assert all(socle_space(sig, k).dim for k in (4, 5, 6))


@pytest.fixture
def fresh_socles():
    socle_space.cache_clear()
    yield
    socle_space.cache_clear()


def test_socle_cut_from_the_wrong_kernel_fails_the_socle_check(monkeypatch, fresh_socles):
    # r2 times the degree-(k-2) harmonics in place of r2 times the defect
    # kernel: a space of the right degree that is not the socle.  At the
    # bottom of the window, k = 4, the mirror degree is k - 2 and the two
    # kernels coincide (both are H_2), so only k = 5, 6 can tell them apart.
    def harmonic_kernel(sig, degree):
        return kernel(laplacian_matrix(sig, degree), (sig, degree))

    assert defect_kernel(S23, 2) == harmonic_kernel(S23, 2)
    monkeypatch.setattr(harmonics, "defect_kernel", harmonic_kernel)
    for k in (5, 6):
        checks = dict(verify_theorem_A(S23, k).checks)
        assert not checks["socle is r-power of mirror harmonics"], k


def test_defect_kernel_is_shared_with_branching():
    from superharm import branching

    assert branching.defect_kernel is defect_kernel


def test_rsquare_powers_at_one_fermionic_pair():
    sig = SuperSignature(0, 1)
    one = SuperPolynomial.one(sig)
    assert (rsquare(sig) ** 0).is_zero() is False
    # r2 = -t1 t2 here, so (r2)^2 = 0
    assert (rsquare(sig) ** 2).is_zero()
    with pytest.raises(ValueError):
        rsquare(sig) ** -1
    for j in range(3):
        assert rsquare_lift(one, j) == rsquare(sig) ** j
    with pytest.raises(ValueError):
        rsquare_lift(one, -1)


LIFT_SIGS = [SuperSignature(m, n) for m, n in VERIFY_GRID] + [
    SuperSignature(4, 4),
    SuperSignature(0, 3),
    SuperSignature(3, 0),
]


@st.composite
def _lift_cases(draw):
    """A random polynomial of degree at most 2 (mixed degrees included) and
    a power 0..3 of r2."""
    sig = draw(st.sampled_from(LIFT_SIGS))
    monos = [mono for k in range(3) for mono in monomial_basis(sig, k)]
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    terms = draw(st.dictionaries(st.sampled_from(monos), coeff, max_size=5))
    return SuperPolynomial(sig, terms), draw(st.integers(min_value=0, max_value=3))


@settings(max_examples=80, deadline=None)
@given(_lift_cases())
def test_rsquare_lift_matches_power_product(case):
    p, j = case
    assert rsquare_lift(p, j) == rsquare(p.signature) ** j * p


@st.composite
def _space_lift_cases(draw):
    """The span of up to three random polynomials of one degree 0..2, and a
    power 0..3 of r2."""
    sig = draw(st.sampled_from(LIFT_SIGS))
    d = draw(st.integers(min_value=0, max_value=2))
    monos = monomial_basis(sig, d)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    polys = draw(
        st.lists(st.dictionaries(st.sampled_from(monos), coeff, max_size=4), max_size=3)
    )
    space = span_subspace(sig, d, [SuperPolynomial(sig, terms) for terms in polys])
    return space, draw(st.integers(min_value=0, max_value=3))


@settings(max_examples=80, deadline=None)
@given(_space_lift_cases())
def test_coordinate_lift_matches_polynomial_lift(case):
    """Each canonical integer row is its RREF polynomial times its pivot
    entry, so its lift is the polynomial lift times that entry."""
    space, j = case
    _, d = space.ambient
    lifted = rsquare_lift_rows(space, j, d + 2 * j)
    assert len(lifted) == space.dim
    for row, lifted_row, poly in zip(space.rows, lifted, subspace_polynomials(space)):
        scale = row[min(row)]
        expected = polynomial_vector(rsquare_lift(poly, j), d + 2 * j)
        assert lifted_row == {t: scale * c for t, c in expected.items()}


def test_coordinate_lift_guards_its_degree():
    space = harmonic_space(S23, 2)
    assert rsquare_lift_rows(space, 0, 2) == list(space.rows)
    with pytest.raises(ValueError):
        rsquare_lift_rows(space, 1, 6)
    with pytest.raises(ValueError):
        rsquare_lift_rows(space, 2, 4)
    with pytest.raises(ValueError):
        rsquare_lift_rows(space, -1, 0)


def test_rsquare_lift_rejects_negative_power():
    sig = SuperSignature(2, 1)
    p = SuperPolynomial.x(sig, 1)
    assert rsquare_lift(p, 0) is p
    with pytest.raises(ValueError):
        rsquare_lift(p, -1)


def test_index_sets_regular_signature():
    sets = fischer_index_sets(SuperSignature(3, 0), 5)
    assert sets.degrees == (5, 3, 1)
    assert sets.exceptional == ()
    assert sets.suppressed == ()
    assert sets.ordinary == (5, 3, 1)


def test_index_sets_exceptional_pattern():
    # M = -4: columns worked out by hand from the index-set definitions
    expectations = {
        4: ((4,), (2,), (0,)),
        5: ((5,), (1,), (3,)),
        6: ((6, 4), (2, 0), ()),
        7: ((5,), (1,), (7, 3)),
        8: ((6, 4), (2, 0), (8,)),
    }
    for k, (exc, supp, ordi) in expectations.items():
        sets = fischer_index_sets(S23, k)
        assert sets.exceptional == exc
        assert sets.suppressed == supp
        assert sets.ordinary == ordi


@pytest.mark.parametrize("sig", REGULAR)
def test_regular_decomposition_verifies(sig):
    for k in range(7):
        rep = fischer_decomposition(sig, k)
        assert rep.verified, rep.failure_witness
        assert rep.suppressed == ()
        assert all(s.kind == "H" for s in rep.summands)
        assert rep.total_dim == rep.space_dim


def test_decomposition_pattern_at_2_6():
    expected = {
        0: (["H_0"], ()),
        1: (["H_1"], ()),
        2: (["r^2*H_0", "H_2"], ()),
        3: (["r^2*H_1", "H_3"], ()),
        4: (["r^4*H_0", "Ht_4"], (2,)),
        5: (["r^2*H_3", "Ht_5"], (1,)),
        6: (["r^2*Ht_4", "Ht_6"], (0, 2)),
        7: (["r^4*H_3", "r^2*Ht_5", "H_7"], (1,)),
        8: (["r^4*Ht_4", "r^2*Ht_6", "H_8"], (0, 2)),
    }
    for k, (pattern, suppressed) in expected.items():
        rep = fischer_decomposition(S23, k)
        assert rep.verified, rep.failure_witness
        assert [s.describe() for s in rep.summands] == pattern
        assert rep.suppressed == suppressed


def test_summands_listed_by_ascending_degree():
    rep = fischer_decomposition(S23, 8)
    degrees = [s.degree for s in rep.summands]
    assert degrees == sorted(degrees)


def test_fermionic_decomposition():
    sig = SuperSignature(0, 2)
    # degree 3 decomposes through degree 1 only: P_3 = r^2 H_1
    rep = fischer_decomposition(sig, 3)
    assert rep.verified
    assert [(s.kind, s.degree, s.rpower) for s in rep.summands] == [("H", 1, 2)]
    assert rep.suppressed == (3,)
    assert "m=0" in rep.notes[0] and "DISAGREES" not in rep.notes[0]


def test_fermionic_decomposition_above_top_degree_is_empty():
    sig = SuperSignature(0, 2)
    rep = fischer_decomposition(sig, 5)
    assert rep.verified
    assert rep.summands == ()
    assert rep.space_dim == 0


def test_fermionic_full_range_verifies():
    for n in (1, 2, 3):
        sig = SuperSignature(0, n)
        for k in range(2 * n + 2):
            rep = fischer_decomposition(sig, k)
            assert rep.verified, (sig, k, rep.failure_witness)


def test_fermionic_disagreement_fails_verification(monkeypatch):
    monkeypatch.setattr(harmonics, "_plans_agree", lambda *args: False)
    rep = fischer_decomposition(SuperSignature(0, 2), 3)
    assert not rep.verified
    assert rep.failure_witness
    assert "DISAGREES" in rep.notes[0]


def test_duplicated_component_fails_verification(monkeypatch):
    original = harmonics._decomposition_plan

    def duplicated(signature, k):
        plan, suppressed = original(signature, k)
        return plan + plan[:1], suppressed

    monkeypatch.setattr(harmonics, "_decomposition_plan", duplicated)
    rep = fischer_decomposition(S23, 5)
    assert not rep.verified
    assert rep.total_dim == 64 + 64 + 128
    assert rep.failure_witness == (
        "rank 192 of stacked components vs sum of dims 256 vs dim P_5 = 192"
    )


def test_joint_rank_takes_every_stacked_row(monkeypatch):
    calls = []

    def counting(rows):
        rows = list(rows)
        calls.append(len(rows))
        return exactla.rank(rows)

    monkeypatch.setattr(harmonics, "rank", counting)
    rep = fischer_decomposition(S23, 7)
    assert rep.verified
    assert calls == [rep.space_dim]


def test_matrices_are_built_once_per_degree(monkeypatch):
    cached = (
        harmonics.laplacian_matrix,
        harmonics.rsquare_matrix,
        harmonics._rsquare_columns,
        harmonics.harmonic_space,
        harmonics.generalized_harmonic_space,
        harmonics.socle_space,
        harmonics.defect_kernel,
    )
    for fn in cached:
        fn.cache_clear()
    built = []
    original = harmonics.operator_matrix

    def counting(fn, signature, k, shift):
        built.append((fn.__name__, signature, k))
        return original(fn, signature, k, shift)

    monkeypatch.setattr(harmonics, "operator_matrix", counting)
    for k in (4, 5, 6, 7):
        assert fischer_decomposition(S23, k).verified
    for k in (4, 5, 6):
        assert verify_theorem_A(S23, k).verified
    assert built and len(built) == len(set(built))


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        fischer_decomposition(S23, -1)


def test_theorem_A_rejects_negative_degree():
    with pytest.raises(ValueError, match="negative degree"):
        verify_theorem_A(S23, -1)


def test_filtration_collapses_at_regular_degrees():
    rep = verify_theorem_A(S23, 3)
    assert not rep.exceptional
    assert rep.verified
    assert rep.dim_h == rep.dim_ht == 64
    assert rep.dim_socle == 0
    assert dict(rep.checks)["generalized equals harmonic"]


def test_filtration_strict_at_exceptional_degrees():
    for k, mirror in ((4, 29), (5, 8), (6, 1)):
        rep = verify_theorem_A(S23, k)
        assert rep.exceptional
        assert rep.verified, rep.checks
        assert rep.dim_mirror == mirror
        assert rep.dim_ht - rep.dim_h == rep.dim_socle == mirror
        assert rep.quotient_dim == rep.dim_h - rep.dim_socle


def test_wrong_mirror_lift_power_fails_socle_check(monkeypatch):
    # Lift the mirror's neighbour H_(l+2) by one power of r2 fewer: the
    # degree still comes out at k, the space is not the socle.  The socle
    # itself is an r2-lift too, so it is built before the lift is broken.
    original = harmonics.rsquare_lift_rows
    for k in (4, 5):
        socle_space(S23, k)

    def one_power_short(space, j, k):
        signature, degree = space.ambient
        return original(harmonic_space(signature, degree + 2), j - 1, k)

    monkeypatch.setattr(harmonics, "rsquare_lift_rows", one_power_short)
    for k in (4, 5):
        rep = verify_theorem_A(S23, k)
        checks = dict(rep.checks)
        assert not rep.verified
        assert not checks["socle is r-power of mirror harmonics"]
        assert checks["strict chain socle < H < Ht"] and checks["defect dimensions agree"]


def test_filtration_smallest_exceptional_signature():
    # (2|2) has M = 0, so degree 2 is the single exceptional degree
    sig = SuperSignature(2, 1)
    rep = verify_theorem_A(sig, 2)
    assert rep.exceptional and rep.verified
    assert rep.dim_ht == 8  # all of P_2
    assert rep.dim_h == 7
    assert rep.dim_socle == 1
    for k in (0, 1, 3, 4):
        other = verify_theorem_A(sig, k)
        assert not other.exceptional and other.verified
