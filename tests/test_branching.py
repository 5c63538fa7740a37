"""Branching of (generalized) harmonics one bosonic variable down."""

import pytest

from superharm import branching
from superharm.branching import (
    branch_generalized,
    branch_harmonic,
    branching_index_sets,
    defect_kernel,
)
from superharm.ck import CKData
from superharm.exactla import Subspace
from superharm.harmonics import harmonic_space
from superharm.superpoly import SuperPolynomial, SuperSignature, space_dimension

S33 = SuperSignature(3, 3)
S23 = SuperSignature(2, 3)


def test_index_sets_at_3_6():
    # worked out by hand: M = -3, exceptional window one level down is {4,5,6}
    s = branching_index_sets(S33, 5)
    assert s.exceptional == (4, 5)
    assert s.suppressed == (1, 2)
    assert s.ordinary == (0, 3)


def test_index_sets_partition():
    for sig in (S33, SuperSignature(1, 1), SuperSignature(2, 2)):
        for k in range(7):
            s = branching_index_sets(sig, k)
            combined = sorted(s.exceptional + s.suppressed + s.ordinary)
            assert combined == list(range(k + 1))


@pytest.mark.parametrize(
    "sig", [SuperSignature(2, 1), SuperSignature(2, 2), S23, SuperSignature(3, 0)]
)
def test_classical_degeneration(sig):
    # even superdimension: one level down is odd, hence regular, and the
    # branching is multiplicity-free over all degrees
    for k in range(5):
        rep = branch_harmonic(sig, k)
        assert rep.mode == "classical"
        assert rep.verified, rep.checks
        assert [s.degree for s in rep.summands] == list(range(k + 1))
        assert all(s.kind == "H" and s.multiplicity == 1 for s in rep.summands)


def test_branched_dimension_is_two_lower_space_dimensions():
    for sig in (S33, SuperSignature(2, 2), SuperSignature(1, 2)):
        lower = sig.restricted()
        for k in range(5):
            rep = branch_harmonic(sig, k)
            assert rep.lhs_dim == space_dimension(lower, k) + space_dimension(lower, k - 1)


def test_exceptional_branching_at_3_6():
    rep = branch_harmonic(S33, 5)
    assert rep.mode == "harmonic"
    assert rep.verified, rep.checks
    assert [s.describe() for s in rep.summands] == ["H'_0", "H'_3", "Ht'_4", "Ht'_5"]
    assert rep.index_sets.suppressed == (1, 2)


def test_exceptional_branching_window_3_6():
    expected = {
        6: ["H'_3", "Ht'_4", "Ht'_5", "Ht'_6"],
        7: ["H'_3", "Ht'_4", "Ht'_5", "Ht'_6", "H'_7"],
    }
    for k, pattern in expected.items():
        rep = branch_harmonic(S33, k)
        assert rep.verified, rep.checks
        assert [s.describe() for s in rep.summands] == pattern


def test_one_bosonic_variable_always_branches_exceptionally_in_range():
    # m = 1: the level below is purely fermionic with superdimension -2n
    sig = SuperSignature(1, 1)
    rep = branch_harmonic(sig, 3)
    assert rep.mode == "harmonic"
    assert rep.verified
    assert rep.lhs_dim == 1
    assert rep.index_sets.suppressed == (1,)
    # the suppressed degree is what shrinks H_3 to a single line
    assert [s.describe() for s in rep.summands] == ["H'_0", "H'_2", "Ht'_3"]


def test_one_bosonic_variable_series():
    for n in (1, 2):
        sig = SuperSignature(1, n)
        for k in range(6):
            rep = branch_harmonic(sig, k)
            assert rep.verified, (sig, k, rep.checks)


def test_every_check_passes_at_scale():
    rep = branch_harmonic(S33, 8)
    assert rep.verified
    assert all(ok for _, ok in rep.checks)
    assert rep.lhs_dim == 704


def test_generalized_smallest_case():
    rep = branch_generalized(SuperSignature(2, 1), 2)
    assert rep.verified, rep.checks
    assert rep.lhs_kind == "Ht"
    assert rep.lhs_dim == 8
    assert [s.describe() for s in rep.summands] == ["2*H'_0", "H'_1", "H'_2"]


def test_generalized_window_2_6():
    # M = -4, window {4,5,6}; mirror degree 6-k gets doubled coverage
    for k in (4, 5, 6):
        rep = branch_generalized(S23, k)
        assert rep.verified, (k, rep.checks)
        assert rep.lhs_dim == 128
        doubled = [s.degree for s in rep.summands if s.multiplicity == 2]
        assert doubled == list(range(6 - k + 1))
        single = [s.degree for s in rep.summands if s.multiplicity == 1]
        assert single == list(range(6 - k + 1, k + 1))


def test_defect_kernel_matches_mirror_dimension():
    # admissible Laplacian parts in degree k-2 form a copy of the mirror
    # harmonics H_{2-M-k}
    for k, mirror in ((4, 2), (5, 1), (6, 0)):
        ker = defect_kernel(S23, k - 2)
        assert ker.dim == harmonic_space(S23, mirror).dim


def test_defect_kernel_trivial_degree():
    assert defect_kernel(S23, -1).dim == 0


def test_guards():
    with pytest.raises(ValueError):
        branch_generalized(S33, 5)  # odd superdimension, Ht = H
    with pytest.raises(ValueError):
        branch_generalized(S23, 3)  # degree outside the window
    with pytest.raises(ValueError):
        branch_harmonic(SuperSignature(0, 2), 1)
    with pytest.raises(ValueError):
        branch_harmonic(SuperSignature(2, 1), -1)


def test_dependent_lower_stack_fails_completeness(monkeypatch):
    # one row repeated: the count still equals dim P', the rank does not
    original = branching.fischer_rows

    def duplicated(sig, k):
        rows = list(original(sig, k))
        if len(rows) > 1:
            rows[-1] = rows[0]
        return tuple(rows)

    monkeypatch.setattr(branching, "fischer_rows", duplicated)
    for rep in (branch_harmonic(S33, 3), branch_generalized(S23, 4)):
        checks = dict(rep.checks)
        assert not checks["lower spanning sets are complete"]
        assert not rep.verified


@pytest.mark.parametrize(
    "slot,name",
    [
        ("boundary", "boundary-slot generators verify"),
        ("normal", "normal-slot generators verify"),
        ("laplacian", "Laplacian-slot generators verify"),
    ],
)
def test_slot_check_fails_when_extension_drops_its_term(monkeypatch, slot, name):
    # the extension ignores one slot of its data: that slot's generators
    # no longer read their data back, and only that check fails
    original = branching.ck_extend

    def dropping(data):
        parts = {"boundary": data.boundary, "normal": data.normal, "laplacian": data.laplacian}
        parts[slot] = SuperPolynomial.zero(parts[slot].signature)
        return original(CKData(data.degree, **parts))

    monkeypatch.setattr(branching, "ck_extend", dropping)
    reports = [branch_generalized(S23, 4)]
    if slot != "laplacian":
        reports.append(branch_harmonic(S33, 3))
    for rep in reports:
        failed = [check for check, ok in rep.checks if not ok]
        assert failed == [name]
        assert not rep.verified


def test_summands_ascend_and_suppressed_absent():
    rep = branch_harmonic(S33, 7)
    degrees = [s.degree for s in rep.summands]
    assert degrees == sorted(degrees)
    assert set(degrees).isdisjoint(rep.index_sets.suppressed)


def test_inadmissible_laplacian_part_fails_its_slot_check(monkeypatch):
    # every w of degree k - 2 offered as a prescribed Laplacian: each still
    # reads back, but lap(r2 w) = 0 fails for most, so the extensions are
    # not generalized harmonics
    def everything(sig, degree):
        dim = space_dimension(sig, degree)
        return Subspace.from_rows(dim, [{i: 1} for i in range(dim)], (sig, degree))

    monkeypatch.setattr(branching, "defect_kernel", everything)
    checks = dict(branch_generalized(S23, 4).checks)
    assert not checks["Laplacian-slot generators verify"]
