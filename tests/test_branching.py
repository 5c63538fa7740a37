"""Branching of (generalized) harmonics one bosonic variable down."""

from math import factorial

import pytest

from superharm import branching, ck, exactla, harmonics
from superharm.branching import (
    branch_generalized,
    branch_harmonic,
    branching_index_sets,
    defect_kernel,
)
from superharm.cli import _GRID as VERIFY_GRID, _SUITE_KMAX
from superharm.exactla import IntMatrix, Subspace, apply_columns, columns
from superharm.gtbasis import verify_gt_basis
from superharm.harmonics import exceptional_indices, generalized_harmonic_space, harmonic_space
from superharm.superpoly import SuperSignature, space_dimension

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


def test_broken_lower_plan_fails_completeness(monkeypatch):
    # the lower Fischer plan of one degree, k or k - 1, and of the lower
    # signature only, repeats or loses a component: completeness is the
    # lower Fischer verdict, so exactly that check fails, and the slot
    # checks on the monomial bases still hold
    original = harmonics._decomposition_plan
    for edit in (lambda plan: plan + plan[:1], lambda plan: plan[1:]):
        for sig, branch, k in ((S33, branch_harmonic, 3), (S23, branch_generalized, 4)):
            for broken in ((sig.restricted(), k), (sig.restricted(), k - 1)):

                def edited(signature, d, edit=edit, broken=broken):
                    plan, suppressed = original(signature, d)
                    return (edit(plan) if (signature, d) == broken else plan), suppressed

                monkeypatch.setattr(harmonics, "_decomposition_plan", edited)
                rep = branch(sig, k)
                failed = [name for name, ok in rep.checks if not ok]
                assert failed == ["lower spanning sets are complete"], (sig, k, broken)
                assert not rep.verified


def _fischer_generators(lower, d):
    """The lower Fischer components of P'_d as integer rows, stacked from
    their lifted rows: the generators the slot checks stand for."""
    plan, _ = harmonics._decomposition_plan(lower, d)
    return [
        row
        for kind, degree, _ in plan
        for row in harmonics._component_rows(lower, kind, degree, d)
    ]


BRANCHING_GRID = [SuperSignature(m, n) for m, n in VERIFY_GRID if m]


def test_branching_takes_no_lower_harmonic_kernel(monkeypatch):
    # the summand dimensions are counted (harmonics.start_dim): branching
    # takes harmonic and generalized kernels on the upper signature only
    seen = []
    for name in ("harmonic_space", "generalized_harmonic_space"):

        def recording(sig, k, original=getattr(branching, name)):
            seen.append(sig)
            return original(sig, k)

        monkeypatch.setattr(branching, name, recording)
    for sig, branch in ((S33, branch_harmonic), (S23, branch_generalized)):
        seen.clear()
        assert branch(sig, 5).verified
        assert seen and set(seen) == {sig}


# the verify suite's branching cases (m >= 1, k <= 5, and every degree of each
# generalized window) and (4|6) at k = 6
COUNTED_SUMMAND_CASES = (
    [
        (branch_harmonic, sig, k)
        for sig in BRANCHING_GRID
        for k in range(_SUITE_KMAX["branching"] + 1)
    ]
    + [
        (branch_generalized, sig, k)
        for sig in BRANCHING_GRID
        for k in sorted(exceptional_indices(sig.M))
    ]
    + [(branch_harmonic, SuperSignature(4, 3), 6)]
)


@pytest.mark.parametrize(
    "branch, sig, k",
    COUNTED_SUMMAND_CASES,
    ids=[f"{b.__name__}-{sig}-{k}" for b, sig, k in COUNTED_SUMMAND_CASES],
)
def test_counted_summand_dims_match_the_lower_kernels(branch, sig, k):
    # reference: each summand's counted dimension is that of the kernel on P'_l
    lower = sig.restricted()
    rep = branch(sig, k)
    assert rep.verified, rep.checks
    for s in rep.summands:
        space = generalized_harmonic_space if s.kind == "Ht" else harmonic_space
        assert s.dim == space(lower, s.degree).dim, s.describe()


@pytest.mark.parametrize("sig", BRANCHING_GRID, ids=str)
def test_slot_checks_on_the_monomial_basis_match_the_fischer_generators(monkeypatch, sig):
    # CK extension is linear, so the boundary and normal checks on a basis
    # of P' agree with the same checks on the lower Fischer generators; and
    # both fail when the extension drops the slot's term.  branch_harmonic
    # must hand each check a whole basis of P'.
    lower = sig.restricted()
    stacks = {}
    original = branching._slot_generators_ok

    def recording(signature, k, slot, stack):
        stacks[slot] = stack = list(stack)
        return original(signature, k, slot, stack)

    for k in range(_SUITE_KMAX["branching"] + 1):
        with monkeypatch.context() as patch:
            patch.setattr(branching, "_slot_generators_ok", recording)
            assert branch_harmonic(sig, k).verified
        for slot, d in (("boundary", k), ("normal", k - 1)):
            basis = stacks[slot]
            dim = space_dimension(lower, d)
            assert len(basis) == Subspace.from_rows(dim, basis).dim == dim
            if not basis:
                continue  # d < 0, or above the top degree of a fermionic P'
            fischer = _fischer_generators(lower, d)
            assert len(fischer) == space_dimension(lower, d)
            assert branching._slot_generators_ok(sig, k, slot, basis), (k, slot)
            assert branching._slot_generators_ok(sig, k, slot, fischer), (k, slot)
            with monkeypatch.context() as patch:
                _drop_slot_term(patch, slot)
                assert not branching._slot_generators_ok(sig, k, slot, basis), (k, slot)
                assert not branching._slot_generators_ok(sig, k, slot, fischer), (k, slot)


def _drop_slot_term(monkeypatch, slot):
    """Patch branching's CK extension to drop the seed of one slot: its
    rows extend as zero data."""
    original = branching.slot_extension

    def dropping(signature, k, name):
        extend = original(signature, k, name)
        return (lambda row: extend({})) if name == slot else extend

    monkeypatch.setattr(branching, "slot_extension", dropping)


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
    _drop_slot_term(monkeypatch, slot)
    reports = [branch_generalized(S23, 4)]
    if slot != "laplacian":
        reports.append(branch_harmonic(S33, 3))
    for rep in reports:
        failed = [check for check, ok in rep.checks if not ok]
        assert failed == [name]
        assert not rep.verified


def test_wrong_lower_laplacian_entry_fails_the_boundary_check(monkeypatch):
    # one entry of a lower Laplacian matrix off by one: the series of each
    # boundary row still reads its slices back, but L_k times some
    # extension is no longer 0, so the product check is not vacuous
    original = ck.laplacian_matrix
    lower = S33.restricted()

    def off_by_one(signature, d):
        A = original(signature, d)
        if signature != lower or not A.rows:
            return A
        rows = [dict(row) for row in A.row_dicts()]
        j = min(rows[0])
        rows[0][j] += 1
        return IntMatrix(A.cols, rows)

    monkeypatch.setattr(ck, "laplacian_matrix", off_by_one)
    for k in (3, 4):
        basis = [{i: 1} for i in range(space_dimension(lower, k))]
        assert not branching._slot_generators_ok(S33, k, "boundary", basis), k
        # the row whose image changed still reads its slices back
        j = min(original(lower, k).row_dicts()[0])
        ext, boundary, normal = ck.slot_extension(S33, k, "boundary")({j: 1})
        assert boundary == {j: factorial(k)} and not normal
        assert apply_columns(harmonics.laplacian_matrix(S33, k), ext)


def test_laplacian_columns_are_built_once_per_matrix(monkeypatch):
    # the columns of a matrix are held by it: every slot check of every
    # report, and the GT basis and its verification, read one build per
    # cached matrix, while a matrix made in place of another builds its own
    built = []
    original = exactla._compress

    def counting(A):
        built.append(A)
        return original(A)

    monkeypatch.setattr(exactla, "_compress", counting)
    L4 = harmonics.laplacian_matrix(S33, 4)
    held = columns(L4)
    for _ in range(2):
        assert branch_harmonic(S33, 4).verified
        assert branch_generalized(S23, 5).verified
        assert verify_gt_basis(S33, 4).verified
    assert len({id(A) for A in built}) == len(built)
    assert columns(L4) is held
    patched = IntMatrix(L4.cols, L4.row_dicts())
    assert columns(patched) == held and columns(patched) is not held
    assert built[-1] is patched


def test_slot_checks_beyond_exponent_255():
    # the x_m exponents of the degree-k basis go up to k; the index-space
    # extension must place and read back every one of them
    rep = branch_harmonic(SuperSignature(2, 0), 300)
    assert rep.verified, rep.checks
    assert rep.lhs_dim == 2


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


def test_wrong_summand_dimension_fails_the_first_check(monkeypatch):
    # one summand counted one too large: both branchings report the sum as
    # their first check, and only that check fails
    original = branching.start_dim
    monkeypatch.setattr(
        branching, "start_dim", lambda sig, kind, l: original(sig, kind, l) + (l == 0)
    )
    for rep in (branch_harmonic(S33, 3), branch_generalized(S23, 4)):
        assert rep.checks[0] == ("summand dimensions sum to the branched dimension", False)
        assert all(ok for _, ok in rep.checks[1:])
        assert not rep.verified


def test_no_cached_mixed_matrix_holds_rows():
    # Theorem A through the (4|8) window, branching of (4|8) at the
    # exceptional degree 6 and GT bases of (3|6): every cached L and R of a
    # mixed ring they read is still held by its columns alone
    sig = SuperSignature(4, 4)
    for k in range(4, 9):
        assert harmonics.verify_theorem_A(sig, k).verified, k
    assert branch_harmonic(sig, 6).verified and branch_generalized(sig, 6).verified
    assert verify_gt_basis(S33, 4).verified and verify_gt_basis(S33, 5, "Ht").verified
    mixed = {sig, sig.restricted(), S33, S33.restricted(), S33.restricted().restricted()}
    held = 0
    for matrix in (harmonics.laplacian_matrix, harmonics.rsquare_matrix):
        for signature in mixed:
            for d in range(11):
                hits = matrix.cache_info().hits
                A = matrix(signature, d)
                if matrix.cache_info().hits > hits:
                    held += 1
                    assert A._data is None, (matrix, signature, d)
    assert held >= 40
