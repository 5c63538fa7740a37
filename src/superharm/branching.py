"""Branching of harmonics under the subalgebra fixing the last bosonic
variable.

Restricting from signature (m|2n) to (m-1|2n) drops the superdimension M by
one, so exactly one of the two levels can be exceptional.  Writing H' and
Ht' for (generalized) harmonics one bosonic variable down:

* branch_harmonic decomposes H_k.  The degrees 0..k split into
  exceptional: {0..k} cap exceptional_indices(M - 1)   -> one copy of Ht'_l
  suppressed:  mirrors 3 - M - l of the exceptional    -> no component
  ordinary:    the rest                                -> one copy of H'_l
  With no exceptional degree this is the classical multiplicity-free
  pattern over all of 0..k.

* branch_generalized decomposes Ht_k at an exceptional degree k of an
  exceptional superdimension (so M - 1 is odd and the lower level is
  regular): degrees up to 2 - M - k appear with multiplicity two, degrees
  from 3 - M - k to k once.

Both are proved exactly through the extension from hyperplane data: a
harmonic is the extension of a boundary pair (p, q) with zero prescribed
Laplacian, and a generalized harmonic allows any prescribed Laplacian W with
lap(r2 W) = 0 (that kernel being the lifted mirror harmonics).  Decomposing
each data slot and extending the resulting spanning sets gives generators
whose restriction data is triangular: the boundary slot reads family one
back, the normal slot family two, the Laplace image family three.
Independence therefore reduces to the already verified lower
decompositions, and the dimension count closes the span argument.

The spanning sets of the boundary and normal slots are the lifted Fischer
component rows one level down (harmonics.fischer_rows, degrees k and k - 1):
their rank against dim P' is the completeness check, and the same rows, as
polynomials, are the data extended.  The Laplacian slot takes the rows of the
defect kernel.  One check, _slot_generators_ok, serves all three slots: each
extension must read its data back in its own slot and zero in the other two.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ck import CKData, ck_extend
from .exactla import Subspace, kernel, matmul, rank, vector_polynomial
from .harmonics import (
    exceptional_indices,
    fischer_index_sets,
    fischer_rows,
    generalized_harmonic_space,
    harmonic_space,
    laplacian_matrix,
    rsquare_lift_rows,
    rsquare_matrix,
)
from .operators import laplacian, rsquare_mul
from .superpoly import (
    SuperPolynomial,
    SuperSignature,
    d_bosonic,
    restrict_hyperplane,
    space_dimension,
)


@dataclass(frozen=True)
class BranchingIndexSets:
    """Lower-ring degrees 0..k sorted into component roles."""

    k: int
    exceptional: tuple[int, ...]
    suppressed: tuple[int, ...]
    ordinary: tuple[int, ...]


def branching_index_sets(signature: SuperSignature, k: int) -> BranchingIndexSets:
    exc = exceptional_indices(signature.M - 1)
    degrees = range(k + 1)
    exceptional = tuple(l for l in degrees if l in exc)
    suppressed_set = {3 - signature.M - l for l in exceptional}
    suppressed = tuple(l for l in degrees if l in suppressed_set)
    ordinary = tuple(l for l in degrees if l not in exc and l not in suppressed_set)
    return BranchingIndexSets(k, exceptional, suppressed, ordinary)


@dataclass(frozen=True)
class BranchSummand:
    """Lower-ring component: `multiplicity` copies of H_degree or
    Ht_degree, each of dimension `dim`."""

    kind: str  # "H" or "Ht", in the lower ring
    degree: int
    multiplicity: int
    dim: int

    def describe(self) -> str:
        head = f"{self.multiplicity}*" if self.multiplicity != 1 else ""
        return f"{head}{self.kind}'_{self.degree}"


@dataclass(frozen=True)
class BranchingReport:
    signature: SuperSignature
    k: int
    mode: str  # "classical" | "harmonic" | "generalized"
    lhs_kind: str  # the space being decomposed: "H" or "Ht"
    index_sets: BranchingIndexSets | None
    summands: tuple[BranchSummand, ...]
    lhs_dim: int
    verified: bool
    checks: tuple[tuple[str, bool], ...]
    notes: tuple[str, ...] = ()


def _polynomials(signature, degree, rows) -> list[SuperPolynomial]:
    return [vector_polynomial(signature, degree, row) for row in rows]


def _slot_generators_ok(signature, k, slot, stack) -> bool:
    """Extensions of degree-k data with only `slot` ("boundary", "normal" or
    "laplacian") set to each element of the stack: each must read its data
    back in that slot alone, through the restriction, the normal restriction
    and the Laplacian.  A Laplacian part w must also satisfy lap(r2 w) = 0,
    so that the extension is a generalized harmonic: lap r2 lap Q = lap(r2 w)
    once lap Q = w holds."""
    m = signature.m
    read_back = (
        ("laplacian", laplacian),
        ("boundary", restrict_hyperplane),
        ("normal", lambda Q: restrict_hyperplane(d_bosonic(Q, m))),
    )
    for p in stack:
        if slot == "laplacian" and not laplacian(rsquare_mul(p)).is_zero():
            return False
        Q = ck_extend(CKData.from_parts(signature, k, **{slot: p}))
        for part, read in read_back:
            got = read(Q)
            if (got != p) if part == slot else not got.is_zero():
                return False
    return True


def _lower_generator_checks(signature, k) -> list[tuple[str, bool]]:
    """The lower Fischer rows of degrees k and k - 1 span P'_k and P'_(k-1)
    (their rank, not their count, is dim P'), and the boundary- and
    normal-slot generators made from the same rows verify."""
    lower = signature.restricted()
    boundary_rows = fischer_rows(lower, k)
    normal_rows = fischer_rows(lower, k - 1)
    complete = (
        rank(boundary_rows) == space_dimension(lower, k)
        and rank(normal_rows) == space_dimension(lower, k - 1)
    )
    return [
        ("lower spanning sets are complete", complete),
        (
            "boundary-slot generators verify",
            _slot_generators_ok(
                signature, k, "boundary", _polynomials(lower, k, boundary_rows)
            ),
        ),
        (
            "normal-slot generators verify",
            _slot_generators_ok(
                signature, k, "normal", _polynomials(lower, k - 1, normal_rows)
            ),
        ),
    ]


def branch_harmonic(signature: SuperSignature, k: int) -> BranchingReport:
    """Decompose H_k over the subalgebra one bosonic variable down and
    verify the decomposition exactly."""
    if signature.m == 0:
        raise ValueError("branching needs at least one bosonic variable")
    if k < 0:
        raise ValueError("negative degree")
    lower = signature.restricted()
    sets = branching_index_sets(signature, k)
    mode = "harmonic" if sets.exceptional else "classical"

    summands = []
    for l in range(k + 1):
        if l in sets.suppressed:
            continue
        kind = "Ht" if l in sets.exceptional else "H"
        space = generalized_harmonic_space if kind == "Ht" else harmonic_space
        summands.append(BranchSummand(kind, l, 1, space(lower, l).dim))

    lhs_dim = harmonic_space(signature, k).dim
    total = sum(s.multiplicity * s.dim for s in summands)

    # at k = 0 the degree -1 sets are empty
    lower_sets = (fischer_index_sets(lower, k), fischer_index_sets(lower, k - 1))
    assembled = all(
        set(getattr(sets, role)) == {l for s in lower_sets for l in getattr(s, role)}
        for role in ("exceptional", "suppressed", "ordinary")
    )

    checks = [
        ("summand dimensions sum to the branched dimension", total == lhs_dim),
        (
            "boundary data accounts for every harmonic",
            lhs_dim == space_dimension(lower, k) + space_dimension(lower, k - 1),
        ),
        ("index sets assemble from the two lower decompositions", assembled),
        *_lower_generator_checks(signature, k),
    ]
    return BranchingReport(
        signature=signature,
        k=k,
        mode=mode,
        lhs_kind="H",
        index_sets=sets,
        summands=tuple(summands),
        lhs_dim=lhs_dim,
        verified=all(ok for _, ok in checks),
        checks=tuple(checks),
    )


def defect_kernel(signature: SuperSignature, degree: int) -> Subspace:
    """Solutions W of lap(r2 W) = 0 in degree `degree`: the admissible
    prescribed-Laplacian parts for generalized harmonics two degrees up.
    The matrix is the sparse product L_(degree+2) R_degree."""
    if degree < 0:
        return Subspace.zero(0, (signature, degree))
    lap = laplacian_matrix(signature, degree + 2)
    return kernel(matmul(lap, rsquare_matrix(signature, degree)), (signature, degree))


def branch_generalized(signature: SuperSignature, k: int) -> BranchingReport:
    """Decompose Ht_k at an exceptional degree and verify it exactly,
    including the identification of the prescribed-Laplacian slot with the
    lifted mirror harmonics."""
    M = signature.M
    if signature.m == 0:
        raise ValueError("branching needs at least one bosonic variable")
    if k not in exceptional_indices(M):
        raise ValueError(
            f"degree {k} is not exceptional for superdimension {M}; "
            "Ht equals H there and branch_harmonic applies"
        )
    lower = signature.restricted()
    mirror = 2 - M - k
    doubled = range(0, mirror + 1)
    single = range(mirror + 1, k + 1)

    summands = [
        BranchSummand("H", l, 2, harmonic_space(lower, l).dim) for l in doubled
    ] + [BranchSummand("H", l, 1, harmonic_space(lower, l).dim) for l in single]

    lhs_dim = generalized_harmonic_space(signature, k).dim
    total = sum(s.multiplicity * s.dim for s in summands)

    ker = defect_kernel(signature, k - 2)
    j = (2 * k + M - 4) // 2
    lifted_mirror = Subspace.from_rows(
        ker.ambient_dim,
        rsquare_lift_rows(harmonic_space(signature, mirror), j, k - 2),
        (signature, k - 2),
    )

    checks = [
        ("summand dimensions sum to the branched dimension", total == lhs_dim),
        (
            "admissible Laplacian parts are the lifted mirror harmonics",
            ker == lifted_mirror,
        ),
        (
            "extension data dimension count",
            lhs_dim
            == space_dimension(lower, k) + space_dimension(lower, k - 1) + ker.dim,
        ),
        *_lower_generator_checks(signature, k),
        (
            "Laplacian-slot generators verify",
            _slot_generators_ok(
                signature, k, "laplacian", _polynomials(signature, k - 2, ker.rows)
            ),
        ),
    ]
    notes = (
        f"degrees 0..{mirror} receive a second copy from the "
        "prescribed-Laplacian slot",
    )
    return BranchingReport(
        signature=signature,
        k=k,
        mode="generalized",
        lhs_kind="Ht",
        index_sets=None,
        summands=tuple(summands),
        lhs_dim=lhs_dim,
        verified=all(ok for _, ok in checks),
        checks=tuple(checks),
        notes=notes,
    )
