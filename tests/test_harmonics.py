"""Harmonic spaces and Fischer decompositions.

Dimension oracles used here were computed independently before the module
existed: binomial counts for fermionic harmonics, dim P_k - dim P_{k-2} for
regular signatures, and a hand-checked table of kernel dimensions at (2|6).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superharm import ck, exactla, harmonics
from superharm.ck import CKData, ck_extend
from superharm.cli import _GRID as VERIFY_GRID, _SUITE_KMAX
from superharm.exactla import (
    IntMatrix,
    Subspace,
    apply_columns,
    columns,
    kernel,
    matmul,
    operator_matrix,
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
    harmonic_space,
    laplacian_matrix,
    lifted_mirror,
    rsquare_lift_rows,
    rsquare_matrix,
    socle_space,
    verify_theorem_A,
)
from superharm.operators import laplacian, rsquare, rsquare_mul
from superharm.superpoly import (
    SuperMonomial,
    SuperPolynomial,
    SuperSignature,
    basis_index,
    monomial_basis,
    space_dimension,
)

def rsquare_lift(p, j):
    """(r2)^j p, as j applications of rsquare_mul; p itself at j = 0.  The
    polynomial reference for the coordinate lifts of module harmonics."""
    if j < 0:
        raise ValueError("negative power of r2")
    for _ in range(j):
        p = rsquare_mul(p)
    return p


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


def harmonic_basis(sig, k):
    return subspace_polynomials(harmonic_space(sig, k))


def test_harmonic_basis_is_annihilated():
    for sig in (SuperSignature(2, 1), SuperSignature(0, 2)):
        for k in range(4):
            for h in harmonic_basis(sig, k):
                assert laplacian(h).is_zero()


def _extension_along_x1(sig, k, mono):
    """The harmonic CK extension along x1 of unit data on one monomial with
    a1 <= 1: x1 is moved to the last place, where ck_extend works, and back.
    A monomial with a1 = 0 is boundary data, x1 * s is normal data s."""
    powers, fermions = mono
    lower = sig.restricted()
    unit = SuperPolynomial(lower, {SuperMonomial(powers[1:], fermions): 1})
    Q = ck_extend(CKData.from_parts(sig, k, **{("boundary", "normal")[powers[0]]: unit}))
    back = {SuperMonomial((a[-1],) + a[:-1], f): c for (a, f), c in Q}
    return SuperPolynomial(sig, back)


def _primitive(vec):
    den = math.lcm(*(Fraction(v).denominator for v in vec.values()))
    ints = {i: int(v * den) for i, v in vec.items()}
    g = math.gcd(*ints.values())
    return {i: v // g for i, v in ints.items()}


@pytest.mark.parametrize(
    "sig, degrees",
    [
        (SuperSignature(1, 1), range(6)),
        (SuperSignature(2, 1), range(7)),
        (S23, range(2, 6)),
        (SuperSignature(3, 2), (4, 5)),
    ],
    ids=str,
)
def test_harmonic_rows_are_primitive_ck_extensions_along_x1(sig, degrees):
    # a closed-form reference for kernel: the columns with a1 >= 2 come
    # last, so each canonical row of H_k is the primitive extension of unit
    # data on its pivot monomial, one with a1 <= 1
    for k in degrees:
        expected = [
            _primitive(polynomial_vector(_extension_along_x1(sig, k, mono), k))
            for mono in monomial_basis(sig, k)
            if mono.powers[0] <= 1
        ]
        assert list(harmonic_space(sig, k).rows) == expected, k


def test_socle_trivial_below_degree_two():
    assert socle_space(S23, 0).dim == 0
    assert socle_space(S23, 1).dim == 0


def test_socle_inside_both_spaces():
    H0 = socle_space(S23, 4)
    assert harmonic_space(S23, 4).contains_subspace(H0)
    img_rank = rank(rsquare_matrix(S23, 2).row_dicts())
    assert H0.dim <= img_rank


def _column_dicts(A):
    """The columns of A as dicts {row: entry}, read off the arrays it holds."""
    starts, rows, entries = columns(A)
    return [
        {rows[x]: entries[x] for x in range(starts[j], starts[j + 1])} for j in range(A.cols)
    ]


def _zassenhaus_socle(sig, k):
    """H_k intersect r2 P_(k-2) by the Zassenhaus intersection: the
    reference for the socle cut from the defect kernel."""
    H = harmonic_space(sig, k)
    if k < 2:
        return Subspace.zero(H.ambient_dim, (sig, k))
    image = Subspace.from_rows(H.ambient_dim, _column_dicts(rsquare_matrix(sig, k - 2)), (sig, k))
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


def test_socle_cut_from_the_wrong_kernel_fails_the_socle_check(monkeypatch):
    # a mirror that is not harmonic, of the right dimension: at the bottom of
    # the (2|6) window, k = 4, the mirror degree is 2, and its lift by r2 to
    # P_4 is not killed by L_4.  The counts all hold, so only the socle check
    # can tell.
    H2 = harmonic_space(S23, 2)
    lap = laplacian_matrix(S23, 2)
    outside = next(j for j in range(H2.ambient_dim) if apply_columns(lap, {j: 1}))
    wrong = Subspace.from_rows(H2.ambient_dim, [{outside: 1}, *H2.rows[1:]], H2.ambient)
    assert wrong.dim == H2.dim and not H2.contains_subspace(wrong)
    original = harmonics.harmonic_space
    monkeypatch.setattr(
        harmonics, "harmonic_space", lambda sig, d: wrong if (sig, d) == (S23, 2) else original(sig, d)
    )
    rep = verify_theorem_A(S23, 4)
    assert not rep.verified
    assert [name for name, ok in rep.checks if not ok] == ["socle is r-power of mirror harmonics"]


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
    lifted = rsquare_lift_rows(space, d + 2 * j)
    assert len(lifted) == space.dim
    for row, lifted_row, poly in zip(space.rows, lifted, subspace_polynomials(space)):
        scale = row[min(row)]
        expected = polynomial_vector(rsquare_lift(poly, j), d + 2 * j)
        assert lifted_row == {t: scale * c for t, c in expected.items()}


def test_coordinate_lift_guards_its_degree():
    space = harmonic_space(S23, 2)
    assert rsquare_lift_rows(space, 2) == list(space.rows)
    with pytest.raises(ValueError):
        rsquare_lift_rows(space, 5)
    with pytest.raises(ValueError):
        rsquare_lift_rows(space, 3)
    with pytest.raises(ValueError):
        rsquare_lift_rows(space, 0)


@pytest.mark.parametrize(
    "sig,k",
    [
        (SuperSignature(m, n), k)
        for m, n in ((2, 1), (2, 2), (2, 3), (4, 4))
        for k in sorted(exceptional_indices(m - 2 * n))
        if k <= 6
    ],
)
def test_lifted_mirror_is_the_socle_and_the_defect_kernel(sig, k):
    # one lift of H_(2-M-k) serves Theorem A at degree k and the
    # prescribed-Laplacian slot of generalized branching at degree k - 2
    assert lifted_mirror(sig, k, k) == socle_space(sig, k)
    assert lifted_mirror(sig, k, k - 2) == defect_kernel(sig, k - 2)


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


def _with_plan(monkeypatch, edit):
    original = harmonics._decomposition_plan

    def edited(signature, k):
        plan, suppressed = original(signature, k)
        return edit(plan), suppressed

    monkeypatch.setattr(harmonics, "_decomposition_plan", edited)


@pytest.mark.parametrize("sig, k", [(S23, 6), (S23, 7), (SuperSignature(4, 4), 8)], ids=str)
def test_broken_plan_below_an_exceptional_start_fails_the_report(monkeypatch, sig, k):
    # the counted defect dimension at an exceptional start l rests on the
    # decomposition of P_(l-2): a plan of P_(l-2) that repeats or loses a
    # component, with every other degree's plan intact, fails the report at k
    original = harmonics._decomposition_plan
    starts = fischer_index_sets(sig, k).exceptional
    reference = fischer_decomposition(sig, k)
    assert starts and reference.verified
    for l in starts:
        for edit in (lambda plan: plan + plan[:1], lambda plan: plan[1:]):
            monkeypatch.setattr(
                harmonics,
                "_decomposition_plan",
                lambda s, d, l=l, edit=edit: (
                    (edit(original(s, d)[0]), original(s, d)[1]) if d == l - 2 else original(s, d)
                ),
            )
            lower = fischer_decomposition(sig, l - 2)
            rep = fischer_decomposition(sig, k)
            assert not lower.verified and not rep.verified, l
            assert rep.failure_witness == (
                f"P_{l - 2} below the exceptional start {l}: {lower.failure_witness}"
            ), l
            assert rep.summands == reference.summands, l


def test_duplicated_component_fails_verification(monkeypatch):
    _with_plan(monkeypatch, lambda plan: plan + plan[:1])
    rep = fischer_decomposition(S23, 5)
    assert not rep.verified
    assert rep.total_dim == 64 + 64 + 128
    # r^2*H_3 twice: both copies carry the eigenvalue 2 (2*3 + 2 - 4 - 2) = 4
    assert rep.failure_witness == "r2 lap eigenvalue 4 repeats at starts 3 and 3"


def test_no_fischer_path_takes_a_rank(monkeypatch):
    # the sl(2) certificate is the one proof for every m: neither m >= 1 nor
    # m = 0 ranks a stack of rows
    calls = []

    def counting(rows):
        calls.append(rows)
        return rank(rows)

    monkeypatch.setattr(exactla, "rank", counting)
    assert "rank" not in vars(harmonics)
    assert fischer_decomposition(S23, 7).verified
    assert fischer_decomposition(SuperSignature(0, 3), 3).verified
    assert calls == []


_HARMONIC_CACHES = (
    laplacian_matrix,
    rsquare_matrix,
    harmonic_space,
    generalized_harmonic_space,
    defect_kernel,
)


def _clear_harmonic_caches():
    for fn in _HARMONIC_CACHES:
        fn.cache_clear()


@pytest.fixture
def fresh_caches():
    _clear_harmonic_caches()
    yield
    _clear_harmonic_caches()


def test_matrices_are_built_once_per_degree(monkeypatch, fresh_caches):
    # the Laplacian is built from polynomials only on the factor rings (2|0)
    # and (0|6), once per degree, each basis monomial imaged once per build;
    # the mixed ring's matrices are assembled from theirs and image no
    # polynomial, and r2 is read off the Laplacian
    log = []
    cached = laplacian_matrix
    factor_rings = (SuperSignature(2, 0), SuperSignature(0, 3))

    def tracking(signature, k):
        misses = cached.cache_info().misses
        log.append(("enter",))
        matrix = cached(signature, k)
        log.append(("exit", (signature, k), cached.cache_info().misses > misses))
        return matrix

    def recording_laplacian(p):
        log.append(("image", p))
        return laplacian(p)

    def unreachable(*args):
        raise AssertionError("operator_matrix reached from harmonics")

    monkeypatch.setattr(harmonics, "laplacian_matrix", tracking)
    monkeypatch.setattr(harmonics, "laplacian", recording_laplacian)
    monkeypatch.setattr(exactla, "operator_matrix", unreachable)
    assert not hasattr(harmonics, "operator_matrix")
    for k in (4, 5, 6, 7):
        assert fischer_decomposition(S23, k).verified
    for k in (4, 5, 6):
        assert verify_theorem_A(S23, k).verified

    builds = []
    open_builds = []  # the images of each build entered and not yet left
    for entry in log:
        if entry[0] == "enter":
            open_builds.append([])
        elif entry[0] == "exit":
            _, (signature, k), built = entry
            images = open_builds.pop()
            if built:
                builds.append((signature, k))
            if built and signature in factor_rings:
                assert images == list(monomial_basis(signature, k)), (signature, k)
            else:
                assert not images, (signature, k)
        else:
            ((mono, c),) = entry[1].terms.items()
            assert c == 1 and entry[1].signature in factor_rings, mono
            open_builds[-1].append(mono)  # IndexError outside a build: no stray image
    assert len(builds) == len(set(builds))
    # the identity at bosonic degree 5 reads the bosonic L_7; the mixed L_7,
    # which only a certificate on P_5 would need, is never built
    assert (factor_rings[0], 7) in builds and (S23, 7) not in builds
    assert {sig for sig, _ in builds} == {S23, *factor_rings}


def test_mixed_assembly_reads_held_factor_columns(monkeypatch, fresh_caches):
    # the lower Laplacians of the ck suite's grid: a mixed one is assembled
    # from the columns its factor matrices hold, with no row read or
    # derived from columns, and each factor matrix is compressed once,
    # however many assemblies read it
    def refuse(self):
        raise AssertionError("IntMatrix.row_dicts called")

    built = []
    original = exactla._compress

    def counting(A):
        built.append(A)
        return original(A)

    cached = laplacian_matrix
    matrices = {}

    def recording(signature, k):
        matrices[signature, k] = cached(signature, k)
        return matrices[signature, k]

    monkeypatch.setattr(IntMatrix, "row_dicts", refuse)
    monkeypatch.setattr(exactla, "_compress", counting)
    monkeypatch.setattr(harmonics, "laplacian_matrix", recording)
    monkeypatch.setattr(ck, "laplacian_matrix", recording)
    kmax = _SUITE_KMAX["ck"]
    lowers = {SuperSignature(m, n).restricted() for m, n in VERIFY_GRID if m}
    for lower in lowers:
        for k in range(kmax + 1):
            ck._lower_laplacians(lower, k)
    assert cached.cache_info().misses == len(matrices) == 37
    # a mixed L_k reads its bosonic factor on degrees 0..k and its
    # fermionic factor on 0..min(k, 2n)
    read = {
        (ring, d)
        for lower in lowers
        if lower.m and lower.n
        for ring, top in zip(harmonics._factor_rings(lower), (kmax, min(kmax, 2 * lower.n)))
        for d in range(top + 1)
    }
    assert len(built) == len({id(A) for A in built}) == len(read)
    assert {id(A) for A in built} == {id(matrices[key]) for key in read}
    # the mixed matrices are written as columns and hold no rows
    assert all(A._data is None for (sig, _), A in matrices.items() if sig.m and sig.n)


# the verify grid at every suite's degrees, (4|8) and (0|4), (3|0) to k = 8;
# every range starts at k = 0 and 1, where P_(k-2) = 0
ASSEMBLY_CASES = [
    (SuperSignature(m, n), range(max(_SUITE_KMAX.values()) + 1)) for m, n in VERIFY_GRID
] + [(SuperSignature(4, 4), range(9)), (SuperSignature(0, 2), range(9)), (SuperSignature(3, 0), range(9))]


@pytest.mark.parametrize("sig, degrees", ASSEMBLY_CASES, ids=lambda v: str(v))
def test_assembled_laplacian_matches_the_operator_matrix(sig, degrees):
    # also column by column, each column in row order (the reference's
    # columns are compressed from its rows, so each lists its rows
    # ascending); a mixed matrix holds its columns only
    for k in degrees:
        reference = operator_matrix(laplacian, sig, k, -2)
        assert laplacian_matrix(sig, k) == reference, k
        assert columns(laplacian_matrix(sig, k)) == columns(reference), k
        assert (laplacian_matrix(sig, k)._data is None) == bool(sig.m and sig.n), k
        if k < 2:
            assert reference.rows == 0 and reference.cols == len(monomial_basis(sig, k))


@pytest.mark.parametrize("sig, degrees", ASSEMBLY_CASES, ids=lambda v: str(v))
def test_assembled_rsquare_matches_the_operator_matrix(sig, degrees):
    for d in degrees:
        R = rsquare_matrix(sig, d)
        reference = operator_matrix(rsquare_mul, sig, d, 2)
        assert R == reference and columns(R) == columns(reference), d
        assert (R._data is None) == bool(sig.m and sig.n), d


# the verify grid, (0|4) and (3|0) among it, then (4|8) and (2|8), each up to
# k = 8
ROW_READER_SIGS = [SuperSignature(m, n) for m, n in VERIFY_GRID] + [
    SuperSignature(4, 4),
    SuperSignature(2, 4),
]


@pytest.mark.parametrize("sig", ROW_READER_SIGS, ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_row_reader_matches_the_assembled_matrix(sig, data):
    # lap or r2 on a few random sparse integer rows, empty rows included:
    # the column rule read on the rows' support, the whole assembled matrix,
    # and the operator on the rows' polynomials agree
    k = data.draw(st.integers(min_value=0, max_value=8), label="k")
    name = data.draw(st.sampled_from(["lap", "r2"]), label="operator")
    factor_matrix, shift, operator = {
        "lap": (laplacian_matrix, -2, laplacian),
        "r2": (rsquare_matrix, 2, rsquare_mul),
    }[name]
    dim = space_dimension(sig, k)
    entry = st.integers(min_value=-5, max_value=5).filter(bool)
    row = st.dictionaries(st.integers(0, dim - 1), entry, max_size=6) if dim else st.just({})
    rows = data.draw(st.lists(row, max_size=4), label="rows")
    got = harmonics._apply_rows(sig, k, shift, factor_matrix, rows)
    assert got == [apply_columns(factor_matrix(sig, k), r) for r in rows]
    assert got == [
        polynomial_vector(operator(exactla.vector_polynomial(sig, k, r)), k + shift) for r in rows
    ]


@pytest.mark.parametrize("sig", [SuperSignature(2, 2), SuperSignature(0, 2)], ids=str)
def test_assembled_laplacian_sees_the_pair_terms(monkeypatch, fresh_caches, sig):
    # a Laplacian without its pair terms must change the assembled matrix
    def without_pairs(p):
        ((_, f),) = p.terms
        return SuperPolynomial(
            p.signature, {mono: c for mono, c in laplacian(p) if mono.fermions == f}
        )

    monkeypatch.setattr(harmonics, "laplacian", without_pairs)
    for k in (2, 3, 4):
        assert laplacian_matrix(sig, k) != operator_matrix(laplacian, sig, k, -2), k


def _recorded_kernels(monkeypatch):
    """(ambient degree, columns) of every kernel harmonics takes."""
    calls = []

    def recording(A, ambient=None):
        calls.append((ambient[1], A.cols))
        return kernel(A, ambient)

    monkeypatch.setattr(harmonics, "kernel", recording)
    return calls


@pytest.mark.parametrize("sig", [S23, SuperSignature(4, 4)], ids=str)
def test_no_fischer_start_takes_a_kernel_on_its_degree(monkeypatch, fresh_caches, sig):
    # for m >= 1 the start dimensions are counted, and so is the defect
    # dimension below the exceptional start (here Ht_5): no kernel at all
    calls = _recorded_kernels(monkeypatch)
    rep = fischer_decomposition(sig, 7)
    assert rep.verified
    assert [s.describe() for s in rep.summands] == ["r^4*H_3", "r^2*Ht_5", "H_7"]
    assert calls == []


def test_fermionic_fischer_starts_keep_their_kernels(monkeypatch, fresh_caches):
    sig = SuperSignature(0, 3)
    calls = _recorded_kernels(monkeypatch)
    rep = fischer_decomposition(sig, 3)
    assert rep.verified
    assert sorted(set(calls)) == [(l, len(monomial_basis(sig, l))) for l in (1, 3)]


# the m >= 1 signatures of the verify grid at the fischer suite's degrees, and
# (4|8) through its exceptional window 4..6 and one degree past it
COUNTED_START_CASES = [
    (SuperSignature(m, n), range(_SUITE_KMAX["fischer"] + 1)) for m, n in VERIFY_GRID if m
] + [(SuperSignature(4, 4), range(8))]


def _kernel_start_dim(sig, kind, degree):
    space = harmonic_space if kind == "H" else generalized_harmonic_space
    return space(sig, degree).dim


@pytest.mark.parametrize("sig, degrees", COUNTED_START_CASES, ids=lambda v: str(v))
def test_counted_start_dims_match_the_kernels(monkeypatch, sig, degrees):
    # the reference report takes every start dimension from the kernel on
    # P_l: dims, verdicts and witnesses must all agree with it
    counted = [fischer_decomposition(sig, k) for k in degrees]
    monkeypatch.setattr(harmonics, "start_dim", _kernel_start_dim)
    for k, rep in zip(degrees, counted):
        assert rep == fischer_decomposition(sig, k), k
        assert rep.verified, (k, rep.failure_witness)


def test_wrong_defect_kernel_fails_the_dimension_sum(monkeypatch):
    # the defect dimension at degree 3 counted one short: the Ht_5 start of
    # (2|6) k = 5 is one too small, and nothing but the sum can see it
    original = harmonics._counted_defect_dim
    monkeypatch.setattr(
        harmonics, "_counted_defect_dim", lambda sig, degree: original(sig, degree) - (degree == 3)
    )
    rep = fischer_decomposition(S23, 5)
    assert not rep.verified
    assert rep.failure_witness == "sum of dims 191 vs dim P_5 = 192"


# m = 1..5, n = 0..4 at every start l <= 10 whose P_(l-2) has dim <= 3000
DEFECT_COUNT_GRID = [
    (SuperSignature(m, n), l)
    for m in range(1, 6)
    for n in range(5)
    for l in range(11)
    if space_dimension(SuperSignature(m, n), l - 2) <= 3000
]


def _mirror_count(sig, s):
    return space_dimension(sig, s) - space_dimension(sig, s - 2)


def test_counted_defect_dims_match_the_defect_kernels():
    # the count of D_(l-2) against its kernel; two wrong counts must fail on
    # the same grid: one with no exceptional guard (it fires at odd M and
    # outside the window, where D = 0), and one with the mirror off by 2
    assert len(DEFECT_COUNT_GRID) == 264
    dims = [defect_kernel(sig, l - 2).dim for sig, l in DEFECT_COUNT_GRID]

    def mismatches(count):
        return sum(count(sig, l - 2) != dim for (sig, l), dim in zip(DEFECT_COUNT_GRID, dims))

    def unguarded(sig, degree):
        return _mirror_count(sig, -sig.M - degree)

    def mirror_off_by_two(sig, degree):
        if degree + 2 not in exceptional_indices(sig.M):
            return 0
        return _mirror_count(sig, -sig.M - degree - 2)

    assert mismatches(harmonics._counted_defect_dim) == 0
    assert mismatches(unguarded) == 87
    assert mismatches(mirror_off_by_two) == 16


# the m >= 1 signatures of the verify grid at the theoremA suite's degrees,
# and (4|8) and (2|6) to k = 8, through both windows 4..6 and past them
COUNTED_THEOREM_A_CASES = [
    (SuperSignature(m, n), range(_SUITE_KMAX["theoremA"] + 1)) for m, n in VERIFY_GRID if m
] + [(SuperSignature(4, 4), range(9)), (S23, range(9))]


@pytest.mark.parametrize("sig, degrees", COUNTED_THEOREM_A_CASES, ids=lambda v: str(v))
def test_counted_theorem_A_matches_the_kernel_reference(sig, degrees):
    # the whole report, dims, check names and verdicts, against the one
    # built from the kernels H_k, Ht_k and the socle
    for k in degrees:
        rep = verify_theorem_A(sig, k)
        assert rep == harmonics._kernel_theorem_A(sig, k), k
        assert rep.verified, (k, rep.checks)


@pytest.mark.parametrize("sig", [S23, SuperSignature(4, 4)], ids=str)
def test_theorem_A_takes_one_kernel_on_the_mirror(monkeypatch, fresh_caches, sig):
    # at an exceptional k the one kernel is the mirror H_(2-M-k) on
    # P_(2-M-k); off the window Theorem A takes none, and neither do the
    # Fischer reports at k and k - 2 that it reads, k = 0..8
    calls = _recorded_kernels(monkeypatch)
    window = exceptional_indices(sig.M)
    for k in range(9):
        _clear_harmonic_caches()
        calls.clear()
        assert verify_theorem_A(sig, k).verified, k
        s = 2 - sig.M - k
        assert calls == ([(s, len(monomial_basis(sig, s)))] if k in window else []), k


@pytest.mark.parametrize(
    "sig, degrees", [(SuperSignature(4, 4), range(4, 7)), (SuperSignature(6, 6), [5])], ids=str
)
def test_theorem_A_assembles_no_mixed_matrix_above_the_mirror(
    monkeypatch, fresh_caches, sig, degrees
):
    # the mirror's rows are lifted to k and killed by L_k through the factor
    # columns, so the one mixed matrix assembled is the mirror's own L on
    # P_(2-M-k), for its kernel; no mixed R_d on the way up, no mixed L_k
    assembled = []
    original = harmonics._assemble

    def recording(signature, k, shift, factor_matrix):
        assembled.append((signature, k, shift))
        return original(signature, k, shift, factor_matrix)

    monkeypatch.setattr(harmonics, "_assemble", recording)
    for k in degrees:
        _clear_harmonic_caches()
        assembled.clear()
        assert verify_theorem_A(sig, k).verified, k
        assert assembled == [(sig, 2 - sig.M - k, -2)], k


FAST_PATH_GRID = [SuperSignature(m, n) for m in range(5) for n in range(4)]


@pytest.mark.parametrize("sig", FAST_PATH_GRID, ids=str)
def test_rsquare_read_off_the_laplacian_matches_the_operator_matrix(sig):
    for d in range(6):
        reference = operator_matrix(rsquare_mul, sig, d, 2)
        assert rsquare_matrix(sig, d) == reference, d
        assert columns(rsquare_matrix(sig, d)) == columns(reference), d


def _plan_mutations(plan):
    """The plan itself, with its first component duplicated, and with its
    first component dropped."""
    return [plan, plan + plan[:1], plan[1:]]


def _joint_rank(sig, plan, k):
    """Rank of the lifted component rows of a plan, stacked: the reference
    verdict on directness, built here and not in the library."""
    return rank(
        row
        for kind, degree, _ in plan
        for row in harmonics._component_rows(sig, kind, degree, k)
    )


@pytest.mark.parametrize("sig", FAST_PATH_GRID, ids=str)
def test_certificate_verdict_matches_the_joint_rank(monkeypatch, sig):
    # the joint rank of the stacked lifted components is the reference
    # verdict, on the real plan of P_k and on two broken ones, for m = 0 as
    # well; the plans of the other degrees, which the report reads below
    # its exceptional starts, stay the real ones
    original = harmonics._decomposition_plan
    for k in range(7):
        plan, suppressed = original(sig, k)
        for mutated in _plan_mutations(plan):
            monkeypatch.setattr(
                harmonics,
                "_decomposition_plan",
                lambda s, d, k=k, mutated=mutated, suppressed=suppressed: (
                    (mutated, suppressed) if d == k else original(s, d)
                ),
            )
            rep = fischer_decomposition(sig, k)
            joint = _joint_rank(sig, mutated, k)
            assert rep.verified == (joint == rep.total_dim == rep.space_dim), (k, mutated)
            if mutated is plan:
                assert rep.verified, (k, rep.failure_witness)


@pytest.mark.parametrize(
    "edit, witness",
    [
        # r^4*H_3 in place of r^2*H_3: a lift to degree 7, not 5
        (
            lambda plan: [("H", 3, 4)] + plan[1:],
            "r2 lap eigenvalue: r^4*H_3 is not a component of P_5",
        ),
        # the suppressed mirror 1 = 2 - M - 5 of the exceptional start 5
        (lambda plan: plan + [("H", 1, 4)], "r2 lap eigenvalue 0 repeats at starts 5 and 1"),
        (lambda plan: plan[1:], "sum of dims 128 vs dim P_5 = 192"),
    ],
    ids=["wrong-lift-power", "unsuppressed-mirror", "dropped-component"],
)
def test_broken_plan_fails_the_certificate(monkeypatch, edit, witness):
    assert [item[1:] for item in harmonics._decomposition_plan(S23, 5)[0]] == [(3, 2), (5, 0)]
    _with_plan(monkeypatch, edit)
    rep = fischer_decomposition(S23, 5)
    assert not rep.verified
    assert rep.failure_witness == witness


@pytest.mark.parametrize(
    "plan, witness, joint",
    [
        # c_1 = 2 (2*3 + 2 - 6 - 2) = 0: r^2*H_3 is zero, though 3 + 2 = 5
        ([("H", 3, 2)], "r2 lift injectivity: c_1 = 0 on r^2*H_3", 0),
        # Ht_1 = H_1 outside the window 5..8, so these rows span P_5; the
        # certificate still refuses, as its argument covers plain H only
        ([("Ht", 1, 4)], "r2 lift injectivity: r^4*Ht_1 is not an r-power of H", 6),
    ],
    ids=["vanishing-lift", "generalized-component"],
)
def test_fermionic_plan_fails_the_injectivity_check(monkeypatch, plan, witness, joint):
    sig = SuperSignature(0, 3)
    assert harmonics._decomposition_plan(sig, 5)[0] == [("H", 1, 4)]
    _with_plan(monkeypatch, lambda _: plan)
    rep = fischer_decomposition(sig, 5)
    assert not rep.verified
    assert rep.failure_witness == witness
    # checked per component, before the dimension sum (14 vs 6 for H_3)
    assert rep.space_dim == 6
    assert _joint_rank(sig, plan, 5) == joint


REGULAR_MIXED = SuperSignature(3, 2)  # M = -1: no Ht, so the spaces take no r2


def _with_rsquare_matrix(monkeypatch, edit):
    """Patch harmonics.rsquare_matrix with the matrix whose columns, as
    dicts {row: entry}, are edit(signature, degree, columns): a new
    column-built IntMatrix.  Uncached, so the mixed matrices are assembled
    afresh from the edited factor matrices."""
    original = harmonics.rsquare_matrix.__wrapped__

    def edited(sig, d):
        R = original(sig, d)
        cols = tuple(_column_dicts(R))
        new = edit(sig, d, cols)
        if new is cols:
            return R
        return IntMatrix.from_columns(
            R.rows, ((sorted(c), [c[t] for t in sorted(c)]) for c in new)
        )

    monkeypatch.setattr(harmonics, "rsquare_matrix", edited)


def _drop_lead(monkeypatch, ring, degree, column):
    """Drop the x1^2 lead of one column of R_degree on a factor ring."""

    def edit(sig, d, columns):
        if (sig, d) != (ring, degree):
            return columns
        powers, fermions = monomial_basis(sig, d)[column]
        lead = basis_index(sig, d + 2)[SuperMonomial((powers[0] + 2,) + powers[1:], fermions)]
        dropped = {t: v for t, v in columns[column].items() if t != lead}
        return columns[:column] + (dropped,) + columns[column + 1 :]

    _with_rsquare_matrix(monkeypatch, edit)


def _flip_pair_signs(monkeypatch, ring):
    """+1 where a pair is added, in place of -1, in r2 on a fermionic ring."""

    def edit(sig, d, columns):
        if sig != ring:
            return columns
        return tuple({t: abs(v) for t, v in column.items()} for column in columns)

    _with_rsquare_matrix(monkeypatch, edit)


def _add_to_laplacian_entry(monkeypatch, ring, degree):
    """Add 1 to the first entry of row 0 of L_degree on a factor ring: an
    entry already nonzero, so r2, read off the Laplacian, keeps its support
    and every lead."""
    original = harmonics.laplacian_matrix

    def edited(sig, d):
        A = original(sig, d)
        if (sig, d) != (ring, degree):
            return A
        rows = [dict(row) for row in A.row_dicts()]
        rows[0][min(rows[0])] += 1
        return IntMatrix(A.cols, rows)

    monkeypatch.setattr(harmonics, "laplacian_matrix", edited)


def _bosonic(sig):
    return SuperSignature(sig.m, 0)


def _fermionic(sig):
    return SuperSignature(0, sig.n)


def _full_ring_matrices_changed(sig, k):
    """Whether L_d or R_(d-2) of the mixed ring differs from the reference
    at some d <= k: a corrupted factor entry has reached them."""
    return any(
        laplacian_matrix(sig, d) != operator_matrix(laplacian, sig, d, -2)
        or rsquare_matrix(sig, d - 2) != operator_matrix(rsquare_mul, sig, d - 2, 2)
        for d in range(2, k + 1)
    )


def test_dropped_rsquare_lead_fails_the_lead_certificate(monkeypatch, fresh_caches):
    # x3^3 in bosonic degree 3, below H_5: every start is an H, so the counted
    # dimensions telescope to dim P_5 whatever the leads say.  The mixed R_3
    # is assembled from the bosonic one and loses the lead too.
    _drop_lead(monkeypatch, _bosonic(REGULAR_MIXED), 3, 0)
    rep = fischer_decomposition(REGULAR_MIXED, 5)
    assert not rep.verified
    assert rep.failure_witness == "bosonic r2 lead certificate fails at degree 3, column 0"
    assert rsquare_matrix(REGULAR_MIXED, 3) != operator_matrix(rsquare_mul, REGULAR_MIXED, 3, 2)


@pytest.mark.parametrize(
    "column, defect_dim, witness",
    [
        # x1 x2^3: the defect kernel on P_4 keeps its dimension
        (1, 1, "bosonic r2 lead certificate fails at degree 4, column 1"),
        # x2^4: the defect kernel shrinks, but the report counts its
        # dimension, so the lead check is what fails
        (0, 0, "bosonic r2 lead certificate fails at degree 4, column 0"),
    ],
    ids=["lead-witness", "sum-witness"],
)
def test_dropped_rsquare_lead_below_an_exceptional_start_fails(
    monkeypatch, fresh_caches, column, defect_dim, witness
):
    # degree 4 lies below the Ht_6 start of (2|6) k = 6, whose counted
    # dimension adds the counted defect dimension on P_4; the defect kernel,
    # built with the mixed R_4 that is assembled from this bosonic R_4, may
    # shrink, and the count rests on the lead check that fails
    assert defect_kernel(S23, 4).dim == 1
    _clear_harmonic_caches()
    _drop_lead(monkeypatch, _bosonic(S23), 4, column)
    assert rsquare_matrix(S23, 4) != operator_matrix(rsquare_mul, S23, 4, 2)
    rep = fischer_decomposition(S23, 6)
    assert not rep.verified
    assert rep.failure_witness == witness
    assert defect_kernel(S23, 4).dim == defect_dim


def test_flipped_rsquare_sign_fails_the_commutator_identity(monkeypatch, fresh_caches):
    # +1 where a pair is added, in place of -1, in the fermionic factor: every
    # lead is still a 1 at x1^2 times its monomial, so only [lap, r2] = 4E + 2M
    # can tell.  The mixed R_3 takes the flipped signs.
    _flip_pair_signs(monkeypatch, _fermionic(REGULAR_MIXED))
    rep = fischer_decomposition(REGULAR_MIXED, 5)
    assert not rep.verified
    # at fermionic degree 0: 4*0 - 4*2 = -8
    assert rep.failure_witness.startswith("fermionic [lap, r2] = -8 fails at degree 0, row ")
    assert rsquare_matrix(REGULAR_MIXED, 3) != operator_matrix(rsquare_mul, REGULAR_MIXED, 3, 2)


@pytest.mark.parametrize(
    "factor, witness",
    [
        # 4*2 + 2*4 = 16 on (4|0)
        (_bosonic, "bosonic [lap, r2] = 16 fails at degree 2, row 0"),
        # 4*2 - 4*2 = 0 on (0|4)
        (_fermionic, "fermionic [lap, r2] = 0 fails at degree 2, row 0"),
    ],
    ids=["bosonic", "fermionic"],
)
def test_wrong_factor_laplacian_entry_fails_the_commutator_identity(
    monkeypatch, fresh_caches, factor, witness
):
    # one entry of a factor ring's L_4 off by one on (4|4): the leads hold, the
    # mixed L_4 takes the wrong entry, and the identity fails at the lowest
    # degree that reads L_4
    sig = SuperSignature(4, 2)
    _add_to_laplacian_entry(monkeypatch, factor(sig), 4)
    assert laplacian_matrix(sig, 4) != operator_matrix(laplacian, sig, 4, -2)
    rep = fischer_decomposition(sig, 6)
    assert not rep.verified
    assert rep.failure_witness == witness


def _full_size_certificate(sig, k):
    """The lead check (b) and the identity (a) on P_d itself, at
    d = k - 2, k - 4, .. >= 0 ((a) alone at m = 0): the reference for the
    certificate on the factor rings."""
    checks = (harmonics._lead_failure, harmonics._commutator_failure)
    for check in checks if sig.m else checks[1:]:
        for d in range(k - 2, -1, -2):
            witness = check(sig, d)
            if witness:
                return witness
    return None


# the m >= 1 signatures of the verify grid at the fischer suite's degrees, and
# (4|8) through its exceptional window up to k = 10
FACTOR_CERTIFICATE_CASES = [
    (SuperSignature(m, n), range(_SUITE_KMAX["fischer"] + 1)) for m, n in VERIFY_GRID if m
] + [(SuperSignature(4, 4), range(11))]


@pytest.mark.parametrize("sig, degrees", FACTOR_CERTIFICATE_CASES, ids=lambda v: str(v))
def test_factor_certificate_verdict_matches_the_full_size_certificate(sig, degrees):
    for k in degrees:
        rep = fischer_decomposition(sig, k)
        assert rep.verified == (_full_size_certificate(sig, k) is None), k
        assert rep.verified, (k, rep.failure_witness)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda patch, sig: _drop_lead(patch, _bosonic(sig), 2, 0),
        lambda patch, sig: _flip_pair_signs(patch, _fermionic(sig)),
        lambda patch, sig: _add_to_laplacian_entry(patch, _bosonic(sig), 4),
        lambda patch, sig: _add_to_laplacian_entry(patch, _fermionic(sig), 4),
    ],
    ids=["bosonic-lead", "fermionic-sign", "bosonic-laplacian", "fermionic-laplacian"],
)
@pytest.mark.parametrize("sig", [S23, REGULAR_MIXED, SuperSignature(4, 2)], ids=str)
def test_corrupted_factor_entry_fails_both_certificates(monkeypatch, fresh_caches, corrupt, sig):
    # a wrong factor entry reaches the mixed ring's matrices, and the
    # certificate on P_d itself rejects them as the factor certificate does
    corrupt(monkeypatch, sig)
    assert _full_ring_matrices_changed(sig, 6)
    assert not fischer_decomposition(sig, 6).verified
    assert _full_size_certificate(sig, 6) is not None


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda patch, sig: _drop_lead(patch, _bosonic(sig), 2, 0),
        lambda patch, sig: _flip_pair_signs(patch, _fermionic(sig)),
    ],
    ids=["bosonic-lead", "fermionic-sign"],
)
def test_corrupted_factor_entry_fails_every_theorem_A_check(monkeypatch, fresh_caches, corrupt):
    # Theorem A's counts rest on the Fischer certificate: with it broken,
    # every check fails, on the (2|6) window 4..6 and past it
    corrupt(monkeypatch, S23)
    for k in range(4, 8):
        assert not any(ok for _, ok in verify_theorem_A(S23, k).checks), k


# the verify grid at the theoremA suite's degrees, (2|6) to k = 8 and (4|8) to
# k = 7, through both exceptional windows 4..6
PREIMAGE_CASES = [
    (SuperSignature(m, n), range(_SUITE_KMAX["theoremA"] + 1)) for m, n in VERIFY_GRID
] + [(S23, range(9)), (SuperSignature(4, 4), range(8))]


@pytest.mark.parametrize("sig, degrees", PREIMAGE_CASES, ids=lambda v: str(v))
def test_preimage_ht_matches_the_triple_product_kernel(sig, degrees):
    # Ht_k = ker(L_k R_(k-2) L_k), the reference built here from the product
    for k in degrees:
        lap = laplacian_matrix(sig, k)
        triple = matmul(matmul(lap, rsquare_matrix(sig, k - 2)), lap)
        assert generalized_harmonic_space(sig, k) == kernel(triple, (sig, k)), k


def _row_built(A):
    """The row-built twin of a matrix: its rows, derived once and held."""
    return IntMatrix(A.cols, A.row_dicts())


@pytest.mark.parametrize("sig, degrees", PREIMAGE_CASES, ids=lambda v: str(v))
def test_column_built_mixed_matrices_give_the_row_built_spaces(
    monkeypatch, fresh_caches, sig, degrees
):
    # H, Ht and the defect kernel from the assembled, column-built L and R,
    # and again from row-built twins of the same matrices: kernel, matmul
    # and the preimage reduction of Ht read both forms alike
    spaces = (harmonic_space, generalized_harmonic_space, defect_kernel)
    columnwise = {(fn, k): fn(sig, k) for fn in spaces for k in degrees}
    twins = {}

    def twin(matrix):
        def built(signature, d):
            if (matrix, signature, d) not in twins:
                twins[matrix, signature, d] = _row_built(matrix(signature, d))
            return twins[matrix, signature, d]

        return built

    for fn in spaces:
        fn.cache_clear()
    monkeypatch.setattr(harmonics, "laplacian_matrix", twin(laplacian_matrix))
    monkeypatch.setattr(harmonics, "rsquare_matrix", twin(rsquare_matrix))
    for (fn, k), space in columnwise.items():
        assert fn(sig, k) == space, (fn, k)
    assert all(A._data is not None for A in twins.values())


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
    # degree still comes out at k, the space is not the socle.  The counts
    # take no lift, so only the socle check fails.
    original = harmonics.rsquare_lift_rows

    def one_power_short(space, k):
        signature, degree = space.ambient
        return original(harmonic_space(signature, degree + 2), k)

    monkeypatch.setattr(harmonics, "rsquare_lift_rows", one_power_short)
    for k in (4, 5):
        rep = verify_theorem_A(S23, k)
        assert not rep.verified
        assert [name for name, ok in rep.checks if not ok] == [
            "socle is r-power of mirror harmonics"
        ], k


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
