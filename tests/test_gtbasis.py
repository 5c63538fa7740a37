"""Chain-adapted bases and their labels."""

from dataclasses import replace

import pytest

from superharm import gtbasis
from superharm.ck import CKData, ck_extend
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
    rsquare_lift,
)
from superharm.operators import laplacian
from superharm.superpoly import (
    SuperPolynomial,
    SuperSignature,
    extend_signature,
    format_polynomial,
)


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
            built = [el.polynomial for el in gt_basis(SuperSignature(0, n), k)]
            assert built == _fermionic_oracle(n, k)


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
        return GTBasisElement(GTLabel((replace(chain[0], kind=wrong),) + chain[1:]), el.polynomial)

    assert not _data_check_with(monkeypatch, SuperSignature(m, n), k, target, kind, relabel)


def test_nonzero_laplacian_fails_a_boundary_step(monkeypatch):
    # x2^2 t1 t2 vanishes on x2 = 0 with its normal derivative, so the
    # element keeps its degree and its hyperplane data; its Laplacian part
    # is no longer zero, which the boundary slot requires
    sig = SuperSignature(2, 3)
    x2, t1, t2 = (SuperPolynomial.x(sig, 2), SuperPolynomial.t(sig, 1), SuperPolynomial.t(sig, 2))
    extra = x2 * x2 * t1 * t2

    def add_extra(el):
        return GTBasisElement(el.label, el.polynomial + extra)

    assert not _data_check_with(monkeypatch, sig, 4, "H", "ordinary-a1", add_extra)


def test_empty_chain_fails_restriction_data(monkeypatch):
    # an element with no chain step: a failed check, not an IndexError
    sig = SuperSignature(2, 2)
    basis = list(gt_basis(sig, 2))
    basis[0] = GTBasisElement(GTLabel(()), basis[0].polynomial)
    monkeypatch.setitem(gtbasis._CACHE, (2, 2, 2, "H"), tuple(basis))
    rep = verify_gt_basis(sig, 2)
    checks = dict(rep.checks)
    assert not rep.verified
    assert not checks["restriction data matches one level down"]
    assert checks["element count equals space dimension"]


@pytest.mark.parametrize(
    "m,n,k,kind,level",
    [(0, 3, 2, "fermionic-0", 10), (2, 3, 4, "ordinary-a1", 9)],
)
def test_wrong_level_fails_restriction_data(monkeypatch, m, n, k, kind, level):
    # the first step claims level 10 on (0|6) (not n = 3), or level 9 on
    # (2|6) (not m = 2); the restriction data alone would still match
    def relabel(el):
        chain = el.label.chain
        return GTBasisElement(GTLabel((replace(chain[0], level=level),) + chain[1:]), el.polynomial)

    assert not _data_check_with(monkeypatch, SuperSignature(m, n), k, "H", kind, relabel)


def test_non_homogeneous_element_fails_independence(monkeypatch):
    # the constant 1 in a degree-2 basis: a failed check, not a ValueError
    sig = SuperSignature(0, 3)
    basis = list(gt_basis(sig, 2))
    basis[0] = GTBasisElement(basis[0].label, SuperPolynomial.one(sig))
    monkeypatch.setitem(gtbasis._CACHE, (0, 3, 2, "H"), tuple(basis))
    rep = verify_gt_basis(sig, 2)
    checks = dict(rep.checks)
    assert not rep.verified
    assert not checks["elements are linearly independent"]
    assert checks["element count equals space dimension"]
    assert list(checks) == [name for name, _ in verify_gt_basis(SuperSignature(0, 2), 1).checks]


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
            relabelled = GTBasisElement(GTLabel((bad,) + rest), el.polynomial)
            assert isinstance(gtbasis._step_data_ok(sig, k, relabelled), bool)
        assert gtbasis._step_data_ok(sig, k, GTBasisElement(GTLabel(()), el.polynomial)) is False


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
        return GTBasisElement(el.label, other.polynomial)

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
        return GTBasisElement(el.label, ck_extend(CKData.from_parts(sig, k, laplacian=lap)))

    assert not _data_check_with(monkeypatch, sig, k, "Ht", "generalized-a3", off_by_one)


@pytest.mark.parametrize("k,target", [(-1, "H"), (-2, "Ht")])
def test_verification_rejects_negative_degree(k, target):
    with pytest.raises(ValueError, match="negative degree"):
        verify_gt_basis(SuperSignature(2, 3), k, target)
