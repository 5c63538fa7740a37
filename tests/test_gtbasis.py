"""Chain-adapted bases and their labels."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd
from types import MappingProxyType

import pytest

from superharm import ck, gtbasis, harmonics, operators
from superharm.ck import CKData, ck_extend, ck_extend_recursive
from superharm.cli import _GRID as VERIFY_GRID, _SUITE_KMAX
from superharm.exactla import IntMatrix, polynomial_vector
from superharm.gtbasis import (
    GTBasisElement,
    GTLabel,
    gt_basis,
    theta_factor,
    verify_gt_basis,
)
from superharm.harmonics import (
    exceptional_indices,
    generalized_harmonic_space,
    harmonic_space,
)
from superharm.operators import laplacian, rsquare_mul
from superharm.superpoly import (
    SuperMonomial,
    SuperPolynomial,
    SuperSignature,
    basis_index,
    extend_signature,
    format_polynomial,
    monomial_basis,
)


def rsquare_lift(p, j):
    """(r2)^j p, as j applications of rsquare_mul; p itself at j = 0.  The
    polynomial reference for the coordinate lifts of module harmonics."""
    if j < 0:
        raise ValueError("negative power of r2")
    for _ in range(j):
        p = rsquare_mul(p)
    return p


def test_smallest_mixed_basis():
    basis = gt_basis(SuperSignature(1, 1), 1)
    assert [format_polynomial(el.polynomial) for el in basis] == ["t1", "t2", "x1"]
    texts = [el.label.text() for el in basis]
    assert texts == [
        "1:ordinary-b3:1:0/1:fermionic-base:1:0",
        "1:ordinary-b3:1:1/1:fermionic-base:1:1",
        "1:ordinary-b4:0:0/1:fermionic-base:0:0",
    ]


def test_generalized_basis_with_prescribed_laplacian_element():
    sig = SuperSignature(2, 1)
    basis = gt_basis(sig, 2, "Ht")
    assert len(basis) == 8
    a3 = [el for el in basis if el.label.chain[0].kind == "generalized-a3"]
    assert len(a3) == 1
    # the extra element solves lap Q = 1 with vanishing hyperplane data
    assert laplacian(a3[0].polynomial) == SuperPolynomial.one(sig)
    plain = gt_basis(sig, 2, "H")
    assert len(plain) == 7
    assert basis[:7] == plain


def test_target_normalizes_away_from_exceptional_degrees():
    sig = SuperSignature(3, 2)  # odd superdimension: never exceptional
    for k in range(5):
        assert gt_basis(sig, k, "Ht") is gt_basis(sig, k, "H")
    # even superdimension, but k outside the window
    assert gt_basis(SuperSignature(2, 1), 3, "Ht") is gt_basis(SuperSignature(2, 1), 3, "H")


def _fermionic_oracle(n, k):
    """Independent re-derivation of the pair-removal recursion, polynomials
    only."""
    sig = SuperSignature(0, n)
    if k < 0 or k > n:
        return []
    if n == 0:
        return [SuperPolynomial.one(sig)]
    if n == 1:
        if k == 0:
            return [SuperPolynomial.one(sig)]
        return [SuperPolynomial.t(sig, 1), SuperPolynomial.t(sig, 2)]
    theta = theta_factor(sig, k)
    out = [extend_signature(p, sig) for p in _fermionic_oracle(n - 1, k)]
    out += [SuperPolynomial.t(sig, 2 * n - 1) * extend_signature(p, sig) for p in _fermionic_oracle(n - 1, k - 1)]
    out += [SuperPolynomial.t(sig, 2 * n) * extend_signature(p, sig) for p in _fermionic_oracle(n - 1, k - 1)]
    out += [theta * extend_signature(p, sig) for p in _fermionic_oracle(n - 1, k - 2)]
    return out


def test_fermionic_recursion_element_for_element():
    for n in (1, 2, 3):
        for k in range(n + 1):
            basis = gt_basis(SuperSignature(0, n), k)
            assert [el.polynomial for el in basis] == _fermionic_oracle(n, k)
            # the cached elements are shared: their rows are read-only
            assert all(type(el.row) is MappingProxyType for el in basis)


def test_fermionic_gate():
    assert gt_basis(SuperSignature(0, 2), 3) == ()
    assert gt_basis(SuperSignature(0, 2), -1) == ()


def test_fermionic_generalized_harmonics_vanish_in_the_window():
    # the window of M = -2n starts at n + 2, above every nonzero harmonic,
    # so the plain basis serves the generalized target
    for n in range(1, 6):
        sig = SuperSignature(0, n)
        for k in exceptional_indices(sig.M):
            assert generalized_harmonic_space(sig, k).dim == 0, (n, k)
            assert gt_basis(sig, k, "Ht") == gt_basis(sig, k, "H") == ()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fermionic_generalized_target_is_verified_as_the_plain_one(n):
    # at m = 0 Ht_k = H_k = 0 over the whole window, so the Ht report is
    # the H report
    sig = SuperSignature(0, n)
    for k in sorted(exceptional_indices(sig.M)):
        assert harmonic_space(sig, k).dim == generalized_harmonic_space(sig, k).dim == 0
        ht, h = verify_gt_basis(sig, k, "Ht"), verify_gt_basis(sig, k, "H")
        assert (ht.size, ht.expected_dim, ht.checks) == (h.size, h.expected_dim, h.checks)
        assert ht.verified


def test_theta_factor():
    sig = SuperSignature(0, 2)
    t = [SuperPolynomial.t(sig, i) for i in range(1, 5)]
    assert theta_factor(sig, 2) == t[0] * t[1] - t[2] * t[3]
    assert theta_factor(sig, 3) == t[0] * t[1] + 0 * t[2] * t[3]
    with pytest.raises(ValueError):
        theta_factor(SuperSignature(1, 1), 2)


def test_empty_ring_base():
    basis = gt_basis(SuperSignature(0, 0), 0)
    assert len(basis) == 1
    assert basis[0].polynomial == SuperPolynomial.one(SuperSignature(0, 0))
    assert gt_basis(SuperSignature(0, 0), 1) == ()


def test_pure_bosonic_tower_sizes():
    sig = SuperSignature(3, 0)
    for k in range(5):
        assert len(gt_basis(sig, k)) == 2 * k + 1


def test_labels_unique_and_levels_descend():
    for sig, k, target in (
        (SuperSignature(2, 2), 4, "H"),
        (SuperSignature(2, 3), 4, "Ht"),
        (SuperSignature(3, 2), 3, "H"),
    ):
        basis = gt_basis(sig, k, target)
        texts = [el.label.text() for el in basis]
        assert len(set(texts)) == len(texts)
        for el in basis:
            # bosonic descent steps come first with non-increasing m, then
            # fermionic steps with non-increasing n
            kinds = [step.kind for step in el.label.chain]
            first_fermionic = next(
                (i for i, kd in enumerate(kinds) if kd.startswith("fermionic")),
                len(kinds),
            )
            bosonic = [s.level for s in el.label.chain[:first_fermionic]]
            fermionic = [s.level for s in el.label.chain[first_fermionic:]]
            assert all(not kd.startswith("fermionic") for kd in kinds[:first_fermionic])
            assert all(kd.startswith("fermionic") for kd in kinds[first_fermionic:])
            assert bosonic == sorted(bosonic, reverse=True)
            assert fermionic == sorted(fermionic, reverse=True)


def test_chain_tail_points_into_lower_basis():
    sig = SuperSignature(2, 1)
    lower = sig.restricted()
    for el in gt_basis(sig, 3):
        step = el.label.chain[0]
        lower_el = gt_basis(lower, step.degree, "H")[step.pos]
        assert lower_el.label.chain == el.label.chain[1:]


def test_invalid_target():
    with pytest.raises(ValueError):
        gt_basis(SuperSignature(1, 1), 2, "X")


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (0, 2), (3, 0)])
def test_verification_sweep(m, n):
    sig = SuperSignature(m, n)
    for k in range(6):
        for target in ("H", "Ht"):
            rep = verify_gt_basis(sig, k, target)
            assert rep.verified, (sig, k, target, rep.checks)
            assert rep.size == rep.expected_dim


def test_report_shape():
    rep = verify_gt_basis(SuperSignature(2, 1), 2, "Ht")
    assert rep.size == 8
    assert rep.target == "Ht"
    assert dict(rep.checks)["restriction data matches one level down"]
    assert isinstance(rep.flagged, tuple)


def _data_check_with(monkeypatch, sig, k, target, kind, make_bad):
    """Verify the basis with its first element of `kind` replaced by
    make_bad(element); return the restriction-data verdict."""
    basis = list(gt_basis(sig, k, target))
    i = next(i for i, el in enumerate(basis) if el.label.chain[0].kind == kind)
    basis[i] = make_bad(basis[i])
    monkeypatch.setitem(gtbasis._CACHE, (sig.m, sig.n, k, target), tuple(basis))
    rep = verify_gt_basis(sig, k, target)
    assert not rep.verified
    return dict(rep.checks)["restriction data matches one level down"]


@pytest.mark.parametrize(
    "m,n,k,target,kind,wrong",
    [
        (2, 3, 5, "Ht", "ordinary-a1", "ordinary-a2"),
        (3, 2, 5, "H", "tilde-b5", "tilde-b6"),
        (0, 6, 2, "H", "fermionic-1", "fermionic-2"),
        (0, 6, 2, "H", "fermionic-3", "fermionic-0"),
        # kinds that do not step down from the element's level fail, not raise
        (0, 2, 1, "H", "fermionic-0", "ordinary-a1"),
        (0, 0, 0, "H", "fermionic-base", "fermionic-1"),
        (2, 0, 2, "H", "ordinary-a1", "fermionic-1"),
    ],
)
def test_relabelled_slot_fails_restriction_data(monkeypatch, m, n, k, target, kind, wrong):
    # an element labelled with another kind: a boundary-slot element as a
    # normal-slot one, a pair-removal step as another, or a step of the
    # wrong half of the chain
    def relabel(el):
        chain = el.label.chain
        label = GTLabel((replace(chain[0], kind=wrong),) + chain[1:])
        return GTBasisElement.from_polynomial(label, el.polynomial, k)

    assert not _data_check_with(monkeypatch, SuperSignature(m, n), k, target, kind, relabel)


def test_nonzero_laplacian_fails_a_boundary_step(monkeypatch):
    # x2^2 t1 t2 vanishes on x2 = 0 with its normal derivative, so the
    # element keeps its degree and its hyperplane data; its Laplacian part
    # is no longer zero, which the boundary slot requires
    sig = SuperSignature(2, 3)
    x2, t1, t2 = (SuperPolynomial.x(sig, 2), SuperPolynomial.t(sig, 1), SuperPolynomial.t(sig, 2))
    extra = x2 * x2 * t1 * t2

    def add_extra(el):
        return GTBasisElement.from_polynomial(el.label, el.polynomial + extra, 4)

    assert not _data_check_with(monkeypatch, sig, 4, "H", "ordinary-a1", add_extra)


def test_empty_chain_fails_restriction_data(monkeypatch):
    # an element with no chain step: a failed check, not an IndexError
    sig = SuperSignature(2, 2)
    basis = list(gt_basis(sig, 2))
    basis[0] = GTBasisElement.from_polynomial(GTLabel(()), basis[0].polynomial, 2)
    monkeypatch.setitem(gtbasis._CACHE, (2, 2, 2, "H"), tuple(basis))
    rep = verify_gt_basis(sig, 2)
    checks = dict(rep.checks)
    assert not rep.verified
    assert not checks["restriction data matches one level down"]
    assert checks["element count equals space dimension"]


@pytest.mark.parametrize(
    "donor",
    [
        lambda: gt_basis(SuperSignature(2, 2), 3)[0],  # (2|4), one degree up
        lambda: gt_basis(SuperSignature(2, 1), 2)[0],  # (2|2), same degree
    ],
    ids=["degree-3-of-(2|4)", "degree-2-of-(2|2)"],
)
def test_element_of_another_basis_fails_without_raising(monkeypatch, donor):
    # an element whose row lies on another basis, in the cached degree-2
    # basis of (2|4): failed checks, not an IndexError from its row
    sig = SuperSignature(2, 2)
    basis = list(gt_basis(sig, 2))
    basis[0] = donor()
    monkeypatch.setitem(gtbasis._CACHE, (2, 2, 2, "H"), tuple(basis))
    rep = verify_gt_basis(sig, 2)
    checks = dict(rep.checks)
    assert not rep.verified
    assert not checks["every element is annihilated"]
    assert not checks["elements are linearly independent"]
    assert not checks["restriction data matches one level down"]
    assert [name for name, _ in rep.checks] == [
        "element count equals space dimension",
        "every element is annihilated",
        "elements are linearly independent",
        "restriction data matches one level down",
    ]


@pytest.mark.parametrize(
    "m,n,k,kind,level",
    [(0, 3, 2, "fermionic-0", 10), (2, 3, 4, "ordinary-a1", 9)],
)
def test_wrong_level_fails_restriction_data(monkeypatch, m, n, k, kind, level):
    # the first step claims level 10 on (0|6) (not n = 3), or level 9 on
    # (2|6) (not m = 2); the restriction data alone would still match
    def relabel(el):
        chain = el.label.chain
        label = GTLabel((replace(chain[0], level=level),) + chain[1:])
        return GTBasisElement.from_polynomial(label, el.polynomial, k)

    assert not _data_check_with(monkeypatch, SuperSignature(m, n), k, "H", kind, relabel)


@pytest.mark.parametrize(
    "m,n,k", [(0, 0, 0), (0, 1, 1), (0, 2, 1), (0, 3, 2), (1, 1, 1), (2, 0, 2), (3, 2, 2)]
)
def test_step_check_judges_every_kind_without_raising(m, n, k):
    # each element passes under its own label; under any kind, an empty
    # chain or a negative position the check answers with a bool
    kinds = [*gtbasis._BOSONIC_KINDS, *gtbasis._FERMIONIC_KINDS, "fermionic-base", "no-such-kind"]
    sig = SuperSignature(m, n)
    for el in gt_basis(sig, k):
        step, rest = el.label.chain[0], el.label.chain[1:]
        assert gtbasis._step_data_ok(sig, k, el) is True
        for bad in [replace(step, kind=kind) for kind in kinds] + [replace(step, pos=-1)]:
            relabelled = GTBasisElement.from_polynomial(GTLabel((bad,) + rest), el.polynomial, k)
            assert isinstance(gtbasis._step_data_ok(sig, k, relabelled), bool)
        unlabelled = GTBasisElement.from_polynomial(GTLabel(()), el.polynomial, k)
        assert gtbasis._step_data_ok(sig, k, unlabelled) is False


_FOREIGN = [
    (2, 3, 5, "Ht", "ordinary-a1", "ordinary-a1"),
    (2, 3, 5, "Ht", "ordinary-a2", "ordinary-a2"),
    (3, 2, 5, "H", "tilde-b5", "tilde-b5"),
    (3, 2, 5, "H", "tilde-b6", "tilde-b6"),
    (0, 6, 2, "H", "fermionic-3", "fermionic-0"),
]


@pytest.mark.parametrize(
    "m,n,k,target,kind,donor",
    _FOREIGN,
    ids=["-".join(map(str, case[:5])) for case in _FOREIGN],
)
def test_foreign_polynomial_fails_restriction_data(monkeypatch, m, n, k, target, kind, donor):
    # a valid label carrying the polynomial of another element: the next one
    # of its own kind, or the first one of the donor kind
    sig = SuperSignature(m, n)
    basis = gt_basis(sig, k, target)
    first = next(el for el in basis if el.label.chain[0].kind == kind)
    other = next(el for el in basis if el.label.chain[0].kind == donor and el is not first)

    def foreign(el):
        return GTBasisElement.from_polynomial(el.label, other.polynomial, k)

    assert not _data_check_with(monkeypatch, sig, k, target, kind, foreign)


@pytest.mark.parametrize("k,shift", [(4, 1), (6, -1)])
def test_a3_lift_off_by_one_fails_restriction_data(monkeypatch, k, shift):
    # same label, but the prescribed Laplacian carries r2 to the power
    # j + shift of the GT element two degrees lower (or higher) at the same
    # position, where the label asks for the power j of the mirror element
    sig = SuperSignature(2, 3)

    def off_by_one(el):
        step = el.label.chain[0]
        j = (k - 2 - step.degree) // 2
        source = gt_basis(sig, step.degree - 2 * shift, "H")[step.pos]
        lap = rsquare_lift(source.polynomial, j + shift)
        Q = ck_extend(CKData.from_parts(sig, k, laplacian=lap))
        return GTBasisElement.from_polynomial(el.label, Q, k)

    assert not _data_check_with(monkeypatch, sig, k, "Ht", "generalized-a3", off_by_one)


@pytest.mark.parametrize("k,target", [(-1, "H"), (-2, "Ht")])
def test_verification_rejects_negative_degree(k, target):
    with pytest.raises(ValueError, match="negative degree"):
        verify_gt_basis(SuperSignature(2, 3), k, target)


# -- the row path against the polynomial construction ---------------------------

# the verify grid (m >= 1), (3|4) at k = 6 and (2|6) at k <= 6, both targets
_ROW_CASES = sorted(
    {
        (m, n, k)
        for m, n in VERIFY_GRID
        if m
        for k in range(_SUITE_KMAX["gt"] + 1)
    }
    | {(3, 2, 6)}
    | {(2, 3, k) for k in range(7)}
)


@pytest.mark.parametrize("m,n,k", _ROW_CASES, ids=[f"({m}|{2 * n})-{k}" for m, n, k in _ROW_CASES])
def test_row_descent_matches_the_polynomial_construction(m, n, k):
    # every bosonic element is the recursive CK extension of its lower
    # element, lifted by r2 as a polynomial, in the slot of its kind; its
    # row is canonical, numerators over their least common denominator, and
    # read-only, as the cached elements are shared
    sig = SuperSignature(m, n)
    for target in ("H", "Ht"):
        for el in gt_basis(sig, k, target):
            assert (el.signature, el.degree) == (sig, k)
            assert el.den > 0 and gcd(el.den, *el.row.values()) == 1, el.label.text()
            assert type(el.row) is MappingProxyType
            rational = {i: Fraction(v, el.den) for i, v in el.row.items()}
            assert polynomial_vector(el.polynomial, k) == rational, el.label.text()
            step = el.label.chain[0]
            slot, lower_target = gtbasis._BOSONIC_KINDS[step.kind]
            source, degree = ck.slot_ambient(sig, k, slot)
            lower = gt_basis(source, step.degree, lower_target)[step.pos].polynomial
            data = rsquare_lift(lower, (degree - step.degree) // 2)
            expected = ck_extend_recursive(CKData.from_parts(sig, k, **{slot: data}))
            assert dict(el.polynomial.terms) == dict(expected.terms), (target, el.label.text())


def _corrupt_bosonic_rsquare(monkeypatch, ring, degree):
    """+1 on the x1^2 lead of column 0 of R_degree on the bosonic factor
    ring, in a new IntMatrix with columns of its own: every r2 matrix
    assembled from it changes with it."""
    original = harmonics.rsquare_matrix.__wrapped__
    powers, fermions = monomial_basis(ring, degree)[0]
    lead = basis_index(ring, degree + 2)[SuperMonomial((powers[0] + 2,) + powers[1:], fermions)]

    def edited(sig, d):
        R = original(sig, d)
        if (sig, d) != (ring, degree):
            return R
        rows = [dict(row) for row in R.row_dicts()]
        rows[lead][0] += 1
        return IntMatrix(R.cols, rows)

    monkeypatch.setattr(harmonics, "rsquare_matrix", edited)


@pytest.mark.parametrize("m,n,k,target", [(3, 2, 5, "H"), (2, 3, 5, "Ht"), (3, 0, 4, "H")])
def test_wrong_rsquare_factor_entry_fails_restriction_data(monkeypatch, m, n, k, target):
    # the basis is built with the true r2; one entry of the lower ring's
    # bosonic factor column off by one reaches the lift of the lower
    # coordinates in the step check, which no longer matches the elements'
    # slot data.  The upper bosonic ring (m|0) is (1|0) (x) (m-1|0), so the
    # entry reaches the upper r2 too.  Annihilation of H reads L_k only;
    # that of Ht reads the upper R_(k-2).  Below (1|3) the lower factor is
    # (1|0) itself, whose leads the upper Fischer certificate reads, so
    # the count fails there too
    sig = SuperSignature(m, n)
    lower = sig.restricted()
    assert verify_gt_basis(sig, k, target).verified
    before = harmonics.rsquare_matrix(lower, 1)
    _corrupt_bosonic_rsquare(monkeypatch, SuperSignature(lower.m, 0), 1)
    assert harmonics.rsquare_matrix(lower, 1) != before
    checks = dict(verify_gt_basis(sig, k, target).checks)
    assert not checks["restriction data matches one level down"]
    assert checks["elements are linearly independent"]
    assert checks["every element is annihilated"] == (target == "H")
    assert checks["element count equals space dimension"] == (lower.m > 1)


@pytest.mark.parametrize("m,n,k,target", [(3, 3, 5, "Ht"), (3, 2, 5, "H"), (2, 3, 5, "Ht")])
def test_bosonic_basis_builds_no_polynomial_above_the_fermionic_floor(monkeypatch, m, n, k, target):
    # with the m = 0 floors and the matrices warm, building and verifying a
    # bosonic basis makes SuperPolynomials in no ring with m >= 1: every
    # element is extended, lifted, read and checked as an integer row.
    # (3|6) and (3|4) descend over exceptional levels (b3-b6), (2|6) at its
    # exceptional degree 5 adds the a3 elements.
    sig = SuperSignature(m, n)
    assert verify_gt_basis(sig, k, target).verified
    floors = {key: els for key, els in gtbasis._CACHE.items() if key[0] == 0}
    warm = len(floors)
    monkeypatch.setattr(gtbasis, "_CACHE", floors)
    built = Counter()
    init = SuperPolynomial.__init__

    def counted(self, signature, *args, **kwargs):
        built[signature] += 1
        init(self, signature, *args, **kwargs)

    monkeypatch.setattr(SuperPolynomial, "__init__", counted)
    assert verify_gt_basis(sig, k, target).verified
    assert len(floors) > warm
    assert {s: c for s, c in built.items() if s.m >= 1} == {}


@pytest.mark.parametrize("m,n,k", [(2, 1, 3), (3, 2, 4), (2, 3, 4)])
def test_wrong_laplacian_entry_fails_annihilation(monkeypatch, m, n, k):
    # one entry of L_k off by one, in a column where the first element is
    # nonzero: its image is no longer 0.  The patched matrix is a new
    # IntMatrix, and the check reads that matrix's own columns.
    sig = SuperSignature(m, n)
    basis = gt_basis(sig, k)
    assert verify_gt_basis(sig, k).verified
    original = gtbasis.laplacian_matrix
    L = original(sig, k)
    j = basis_index(sig, k)[next(iter(basis[0].polynomial.terms))]
    rows = [dict(row) for row in L.row_dicts()]
    rows[0][j] = rows[0].get(j, 0) + 1
    wrong = IntMatrix(L.cols, rows)
    monkeypatch.setattr(
        gtbasis, "laplacian_matrix", lambda s, d: wrong if (s, d) == (sig, k) else original(s, d)
    )
    checks = dict(verify_gt_basis(sig, k).checks)
    assert not checks["every element is annihilated"]
    assert checks["element count equals space dimension"]


@pytest.mark.parametrize(
    "m,n,k,target",
    [(2, 3, 5, "Ht"), (3, 2, 5, "H"), (2, 1, 2, "Ht"), (3, 0, 4, "H"), (0, 3, 2, "H"), (0, 2, 1, "Ht")],
)
def test_bosonic_verification_runs_no_polynomial_operator(monkeypatch, m, n, k, target):
    # with the basis and the matrices built, the verification reads every
    # element through integer rows: no restriction triple, no Laplacian or
    # r2 applied to a polynomial.  At m = 0 too the annihilation is L_k
    # applied to the coordinates; gtbasis imports no polynomial operator.
    sig = SuperSignature(m, n)
    assert verify_gt_basis(sig, k, target).verified
    assert not hasattr(gtbasis, "laplacian")

    def refuse(*args):
        raise AssertionError("polynomial operator called")

    for module, name in (
        (ck, "restriction_triple"),
        (ck, "laplacian"),
        (operators, "laplacian"),
        (operators, "rsquare_mul"),
        (harmonics, "laplacian"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert verify_gt_basis(sig, k, target).verified


@pytest.mark.parametrize("m,n,k", [(2, 2, 4), (2, 3, 5)])
def test_element_outside_ht_fails_annihilation(monkeypatch, m, n, k):
    # x1^k in place of an a3 element: lap r2 lap x1^k is not 0, so the
    # generalized target's annihilation check fails, and only the check
    # through L_k R_(k-2) L_k can see it (its Laplacian part is not 0 either
    # for the element it replaces)
    sig = SuperSignature(m, n)

    def power(el):
        return GTBasisElement.from_polynomial(el.label, SuperPolynomial.x(sig, 1) ** k, k)

    _data_check_with(monkeypatch, sig, k, "Ht", "generalized-a3", power)
    checks = dict(verify_gt_basis(sig, k, "Ht").checks)
    assert not checks["every element is annihilated"]


def _first_element(m, n, k):
    return gt_basis(SuperSignature(m, n), k)[0]


def _lifted_lower_element(m, n, k):
    """The lower element of the first element of H_k of (m|2n) that is lifted
    by a positive power of r2 into its slot."""
    sig = SuperSignature(m, n)
    for el in gt_basis(sig, k):
        step = el.label.chain[0]
        slot, target = gtbasis._BOSONIC_KINDS[step.kind]
        source, degree = ck.slot_ambient(sig, k, slot)
        if degree > step.degree:
            return gt_basis(source, step.degree, target)[step.pos]


def _plus_one(el):
    return el.polynomial + SuperPolynomial.one(el.signature)


_NON_HOMOGENEOUS = {
    # the constant 1 in place of an element of degree 2
    "one-in-degree-2": lambda: (_first_element(0, 3, 2), lambda el: SuperPolynomial.one(el.signature)),
    # a bosonic element with a part of another degree, harmonic or not
    "plus-1": lambda: (_first_element(2, 2, 3), _plus_one),
    "plus-x1^2": lambda: (
        _first_element(2, 2, 3),
        lambda el: el.polynomial + SuperPolynomial.x(el.signature, 1) ** 2,
    ),
    # a lower element, lifted by r2 into the step above, with a constant added
    "lower-plus-1-(3|4)-5": lambda: (_lifted_lower_element(3, 2, 5), _plus_one),
    "lower-plus-1-(2|4)-4": lambda: (_lifted_lower_element(2, 2, 4), _plus_one),
}


@pytest.mark.parametrize("case", list(_NON_HOMOGENEOUS))
def test_non_homogeneous_polynomial_is_not_an_element(case):
    # an element is a row on the degree-k basis, so a polynomial with a part
    # of another degree cannot be stored in one
    el, change = _NON_HOMOGENEOUS[case]()
    with pytest.raises(ValueError, match="not homogeneous"):
        GTBasisElement.from_polynomial(el.label, change(el), el.degree)
