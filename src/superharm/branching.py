"""Branching of harmonics under the subalgebra fixing the last bosonic
variable.

Restricting from signature (m|2n) to (m-1|2n) drops the superdimension M by
one, so exactly one of the two levels can be exceptional.  Writing H' and
Ht' for (generalized) harmonics one bosonic variable down:

* branch_harmonic decomposes H_k.  Its index sets are Fischer's rule one
  level down, at superdimension M - 1 over the degrees 0..k
  (harmonics.branching_index_sets):
  exceptional: {0..k} cap exceptional_indices(M - 1)   -> one copy of Ht'_l
  suppressed:  mirrors 2 - (M - 1) - l of those        -> no component
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
lap(r2 W) = 0 (that kernel being harmonics.lifted_mirror at degree k - 2,
the lift that gives Theorem A's socle at degree k).  Decomposing each data
slot and extending the resulting spanning sets gives generators whose
restriction data is triangular: the boundary slot reads family one back,
the normal slot family two, the Laplace image family three.
Independence therefore reduces to the already verified lower
decompositions, and the dimension count closes the span argument.

The spanning sets of the boundary and normal slots are the Fischer
components one level down, in degrees k and k - 1.  They are complete
exactly when those lower decompositions verify, so the completeness check
takes the verdicts of harmonics.fischer_decomposition and ranks nothing.
The summand dimensions are Fischer's counted start dimensions one level
down (harmonics.start_dim), and no kernel is taken on a P'_l, nor, for
m - 1 >= 1, a defect kernel under a lower Ht' start, whose dimension is
counted too.  For m - 1 >= 1 the count at l rests on the lead certificate
(b) at l - 2 <= k - 2 (and, for Ht', on the closed forms of P'_(l-2));
the lower decompositions of degrees k and k - 1 run (b) at every degree up
to k - 2, and the completeness check requires them to verify, so a report
that verifies has proved its summand dimensions.  At m - 1 = 0 start_dim
takes the kernels.  The kernels of harmonic_space and
generalized_harmonic_space are taken only on the upper signature.
CK extension is linear, so a slot check that holds on a basis of P'_k holds
on every generator made from it, and the boundary and normal slots are
checked on the unit rows of the monomial bases of P'_k and P'_(k-1).  The
Laplacian slot takes the rows of the defect kernel ker(L_k R_(k-2)), which
lives in harmonics: it is cached there beside the spaces it serves, and the
socle of Theorem A is its r2-image (for m >= 1 Theorem A reaches it as the
lifted mirror, with no kernel on P_(k-2)).  One check,
_slot_generators_ok, serves all three slots, in index space:
ck.slot_extension turns each integer row into the row E of k! times its
extension on the degree-k basis, one row at a time.  E is read back by
slices and by one product with the cached matrix L_k: its x_m^0 and x_m^1
slices must be k! times the data in the boundary and normal slot and zero
otherwise, and L_k E must be k! times the data in the Laplacian slot and 0
otherwise.  A Laplacian row w must also pass L_k R_(k-2) w = 0.  Each
product reads the columns that the cached matrix holds
(exactla.apply_columns), built once per matrix, so every slot check of
every report, and the GT basis, read one build.  The slots and their
degrees live in ck; the GT step check of gtbasis reads the same triple on
integer rows, off the coordinates of each element.  The read-back is a
left inverse of the extension, so the extension is injective and its image
has the dimension of its data, which the count checks compare with
lhs_dim.  Both branchings end in one
report builder, _report, which puts the summand-dimension sum first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .ck import SLOTS, slot_ambient, slot_extension
# kernel is not called here (the defect kernel is built in harmonics); the
# benchmark's tracer test (perfbench/tests) checks that its wrapper is also
# bound under this module's name.
from .exactla import apply_columns, kernel  # noqa: F401
from .harmonics import (
    IndexSets,
    branching_index_sets,
    defect_kernel,
    exceptional_indices,
    fischer_decomposition,
    fischer_index_sets,
    generalized_harmonic_space,
    harmonic_space,
    laplacian_matrix,
    lifted_mirror,
    rsquare_matrix,
    start_dim,
)
from .superpoly import SuperSignature, space_dimension


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
    index_sets: IndexSets | None
    summands: tuple[BranchSummand, ...]
    lhs_dim: int
    verified: bool
    checks: tuple[tuple[str, bool], ...]
    notes: tuple[str, ...] = ()


def _slot_generators_ok(signature, k, slot, rows) -> bool:
    """Extensions of degree-k data with only `slot` ("boundary", "normal" or
    "laplacian") set to each integer row, on the basis of the slot's data
    (ck.slot_extension): each must read its data back in that slot alone,
    by its x_m^0 and x_m^1 slices and by L_k times it, read through the
    columns the cached L_k holds (exactla.apply_columns).  A Laplacian
    part w must also satisfy lap(r2 w) = 0, as L_k R_(k-2) w = 0, so that
    the extension is a generalized harmonic: lap r2 lap Q = lap(r2 w) once
    lap Q = w holds."""
    top = factorial(k)
    extend = slot_extension(signature, k, slot)
    lap = laplacian_matrix(signature, k)
    if slot == "laplacian":
        r2 = rsquare_matrix(signature, k - 2)
    for row in rows:
        ext, *slices = extend(row)
        data = {i: top * c for i, c in row.items()}
        read = (*slices, apply_columns(lap, ext))
        if any(got != (data if name == slot else {}) for name, got in zip(SLOTS, read)):
            return False
        if slot == "laplacian" and apply_columns(lap, apply_columns(r2, row)):
            return False
    return True


def _lower_generator_checks(signature, k) -> list[tuple[str, bool]]:
    """The lower Fischer decompositions of degrees k and k - 1 verify, so
    their components span P'_k and P'_(k-1); and the boundary- and
    normal-slot checks hold on the monomial bases of those spaces."""
    lower = signature.restricted()

    def slot_ok(slot):
        basis = ({i: 1} for i in range(space_dimension(*slot_ambient(signature, k, slot))))
        return _slot_generators_ok(signature, k, slot, basis)

    return [
        (
            "lower spanning sets are complete",
            all(fischer_decomposition(lower, d).verified for d in (k, k - 1) if d >= 0),
        ),
        ("boundary-slot generators verify", slot_ok("boundary")),
        ("normal-slot generators verify", slot_ok("normal")),
    ]


def _report(signature, k, mode, index_sets, summands, lhs_dim, checks, notes=()):
    """The report of either branching: "summand dimensions sum to the
    branched dimension" first, then the mode's own checks.  The decomposed
    space is Ht in generalized mode and H otherwise."""
    total = sum(s.multiplicity * s.dim for s in summands)
    checks = (("summand dimensions sum to the branched dimension", total == lhs_dim), *checks)
    return BranchingReport(
        signature=signature,
        k=k,
        mode=mode,
        lhs_kind="Ht" if mode == "generalized" else "H",
        index_sets=index_sets,
        summands=tuple(summands),
        lhs_dim=lhs_dim,
        verified=all(ok for _, ok in checks),
        checks=checks,
        notes=notes,
    )


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
        summands.append(BranchSummand(kind, l, 1, start_dim(lower, kind, l)))

    lhs_dim = harmonic_space(signature, k).dim

    # at k = 0 the degree -1 sets are empty
    lower_sets = (fischer_index_sets(lower, k), fischer_index_sets(lower, k - 1))
    assembled = all(
        set(getattr(sets, role)) == {l for s in lower_sets for l in getattr(s, role)}
        for role in ("exceptional", "suppressed", "ordinary")
    )

    checks = [
        (
            "boundary data accounts for every harmonic",
            lhs_dim == space_dimension(lower, k) + space_dimension(lower, k - 1),
        ),
        ("index sets assemble from the two lower decompositions", assembled),
        *_lower_generator_checks(signature, k),
    ]
    return _report(signature, k, mode, sets, summands, lhs_dim, checks)


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
    mirror = 2 - M - k  # degrees up to it carry a second copy

    summands = [
        BranchSummand("H", l, 2 if l <= mirror else 1, start_dim(lower, "H", l))
        for l in range(k + 1)
    ]

    lhs_dim = generalized_harmonic_space(signature, k).dim

    ring, d = slot_ambient(signature, k, "laplacian")  # the full ring, degree k - 2
    ker = defect_kernel(ring, d)

    checks = [
        (
            "admissible Laplacian parts are the lifted mirror harmonics",
            ker == lifted_mirror(signature, k, d),
        ),
        (
            "extension data dimension count",
            lhs_dim
            == space_dimension(lower, k) + space_dimension(lower, k - 1) + ker.dim,
        ),
        *_lower_generator_checks(signature, k),
        (
            "Laplacian-slot generators verify",
            _slot_generators_ok(signature, k, "laplacian", ker.rows),
        ),
    ]
    notes = (
        f"degrees 0..{mirror} receive a second copy from the "
        "prescribed-Laplacian slot",
    )
    return _report(signature, k, "generalized", None, summands, lhs_dim, checks, notes)
