"""Spherical and generalized harmonics and their Fischer decompositions.

For superdimension M = m - 2n, the degrees

    exceptional_indices(M) = { k : 2 - M/2 <= k <= 2 - M }   (M in -2N_0)

are where the classical picture breaks: the space Ht_k of degree-k solutions
of lap r2 lap = 0 strictly contains the harmonics H_k = ker lap, and the
defect is measured by the socle H0_k = H_k intersect r2 P_{k-2}, a copy of
the mirror harmonics H_{2-M-k} multiplied by a power of r2.

The Fischer decomposition of P_k then mixes both kinds of component: with
N_k = {k, k-2, ..}, the exceptional starts are tildeJ_k = N_k cap
exceptional_indices(M), their mirrors J0_k = {2 - M - l} are suppressed, and
the remaining starts J_k contribute plain harmonics:

    P_k = sum over tildeJ_k of r^(k-l) Ht_l + sum over J_k of r^(k-l) H_l.

For m = 0 the multiplication by r2 is no longer injective and the formula
above is not available; the purely fermionic decomposition indexed by
N_min(k, 2n-k) is used instead, and the report verifies only if it agrees
with the index-set formula.

All spaces are exact kernels of exact matrices; every claimed direct sum is
verified by an exact rank computation.  The matrices of the Laplacian and of
multiplication by r2 are built once per (signature, degree) and cached.
Their entries are ints, and so are those of the products lap r2 lap (for Ht)
and lap r2 (the defect kernel): from the monomial maps to the canonical
integer rows of a Subspace no Fraction is made.

The socle is r2 times the defect kernel two degrees down: an element of
r2 P_(k-2) is r2 W, and it is harmonic iff lap(r2 W) = 0, so
H0_k = r2 ker(L_k R_(k-2)).  This holds for every m, also at m = 0 where r2
is not injective, and needs no intersection: the kernel is taken on the
dim P_(k-2) columns of L_k R_(k-2), not on a stack of 2 dim P_k columns.
defect_kernel is cached beside the spaces, and branching's
prescribed-Laplacian slot takes the same kernel.

Subspaces are lifted in coordinates: rsquare_lift_rows maps the canonical
integer rows of a Subspace through the integer column images of
rsquare_matrix, one degree step at a time.  The socle, the Fischer rank,
Theorem A's mirror lift and branching's lifted mirror work on those integer
rows with no polynomial in between.  fischer_rows stacks the lifted
component rows of P_k in summand order; the Fischer rank and branching's
lower spanning sets both take them.  A polynomial is lifted by
rsquare_lift(p, j): j applications of multiplication by r2 by its monomial
rule, never a product with the polynomial (r2)^j; gtbasis uses it.  At
j = 0 both lifts are the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .exactla import (
    IntMatrix,
    Subspace,
    kernel,
    matmul,
    operator_matrix,
    rank,
    subspace_polynomials,
)
from .operators import laplacian, rsquare_mul
from .superpoly import SuperPolynomial, SuperSignature, monomial_basis


def exceptional_indices(M: int) -> frozenset[int]:
    """Degrees where generalized and ordinary harmonics differ; empty unless
    M is a nonpositive even integer (M = 0 included)."""
    if M > 0 or M % 2 != 0:
        return frozenset()
    return frozenset(range(2 - M // 2, 2 - M + 1))


@lru_cache(maxsize=None)
def laplacian_matrix(signature: SuperSignature, k: int) -> IntMatrix:
    """Matrix of the Laplacian from P_k to P_(k-2)."""
    return operator_matrix(laplacian, signature, k, -2)


@lru_cache(maxsize=None)
def rsquare_matrix(signature: SuperSignature, degree: int) -> IntMatrix:
    """Matrix of multiplication by r2 from P_degree to P_(degree+2)."""
    return operator_matrix(rsquare_mul, signature, degree, 2)


@lru_cache(maxsize=None)
def _rsquare_columns(signature: SuperSignature, degree: int) -> tuple[Mapping[int, int], ...]:
    """Column j of rsquare_matrix as {target index: coefficient}: the image
    of the j-th monomial.  r2 has coefficients +-1, so every entry is an
    int."""
    return rsquare_matrix(signature, degree).transpose().row_dicts()


def rsquare_lift_rows(space: Subspace, j: int, k: int) -> list[dict[int, int]]:
    """The rows of a Subspace multiplied by (r2)^j, as integer rows in the
    degree-k basis; the space's degree plus 2j must be k.  At j = 0 they are
    the space's own rows, not copies."""
    signature, degree = space.ambient
    if j < 0:
        raise ValueError("negative power of r2")
    if degree + 2 * j != k:
        raise ValueError(f"r^{2 * j} lifts degree {degree} to {degree + 2 * j}, not {k}")
    steps = [_rsquare_columns(signature, d) for d in range(degree, k, 2)]
    lifted = []
    for row in space.rows:
        for columns in steps:
            acc: dict[int, int] = {}
            for source, a in row.items():
                for target, c in columns[source].items():
                    acc[target] = acc.get(target, 0) + a * c
            row = {t: v for t, v in acc.items() if v}
        lifted.append(row)
    return lifted


@lru_cache(maxsize=None)
def harmonic_space(signature: SuperSignature, k: int) -> Subspace:
    """H_k: degree-k kernel of the Laplace operator."""
    if k < 0:
        return Subspace.zero(0, (signature, k))
    return kernel(laplacian_matrix(signature, k), (signature, k))


@lru_cache(maxsize=None)
def generalized_harmonic_space(signature: SuperSignature, k: int) -> Subspace:
    """Ht_k: degree-k kernel of lap r2 lap.

    The matrix is the sparse product L_k R_(k-2) L_k, where L_k is the
    matrix of lap on P_k and R_(k-2) that of multiplication by r2 on
    P_(k-2).
    """
    if k < 0:
        return Subspace.zero(0, (signature, k))
    lap = laplacian_matrix(signature, k)
    r2 = rsquare_matrix(signature, k - 2)
    return kernel(matmul(matmul(lap, r2), lap), (signature, k))


@lru_cache(maxsize=None)
def defect_kernel(signature: SuperSignature, degree: int) -> Subspace:
    """Solutions W of lap(r2 W) = 0 in degree `degree`: the admissible
    prescribed-Laplacian parts for generalized harmonics two degrees up, and
    the preimage under r2 of the socle there.  The matrix is the sparse
    product L_(degree+2) R_degree."""
    if degree < 0:
        return Subspace.zero(0, (signature, degree))
    lap = laplacian_matrix(signature, degree + 2)
    return kernel(matmul(lap, rsquare_matrix(signature, degree)), (signature, degree))


@lru_cache(maxsize=None)
def socle_space(signature: SuperSignature, k: int) -> Subspace:
    """H0_k: harmonics that are also multiples of r2, the r2-image of the
    defect kernel two degrees down."""
    cols = len(monomial_basis(signature, k))
    if k < 2:
        return Subspace.zero(cols, (signature, k))
    return Subspace.from_rows(
        cols, rsquare_lift_rows(defect_kernel(signature, k - 2), 1, k), (signature, k)
    )


@lru_cache(maxsize=None)
def harmonic_basis(signature: SuperSignature, k: int) -> tuple[SuperPolynomial, ...]:
    return subspace_polynomials(harmonic_space(signature, k))


def rsquare_lift(p: SuperPolynomial, j: int) -> SuperPolynomial:
    """(r2)^j p, as j applications of rsquare_mul; p itself at j = 0."""
    if j < 0:
        raise ValueError("negative power of r2")
    for _ in range(j):
        p = rsquare_mul(p)
    return p


@dataclass(frozen=True)
class FischerIndexSets:
    """Start degrees for the degree-k decomposition.

    degrees: every start k, k-2, ..; exceptional: starts whose component is
    the generalized space; suppressed: mirror degrees 2 - M - l of the
    exceptional starts, which carry no component; ordinary: the rest.
    """

    k: int
    degrees: tuple[int, ...]
    exceptional: tuple[int, ...]
    suppressed: tuple[int, ...]
    ordinary: tuple[int, ...]


def fischer_index_sets(signature: SuperSignature, k: int) -> FischerIndexSets:
    exc = exceptional_indices(signature.M)
    degrees = tuple(range(k, -1, -2))
    exceptional = tuple(l for l in degrees if l in exc)
    suppressed_set = {2 - signature.M - l for l in exceptional}
    suppressed = tuple(l for l in degrees if l in suppressed_set)
    ordinary = tuple(l for l in degrees if l not in exc and l not in suppressed_set)
    return FischerIndexSets(k, degrees, exceptional, suppressed, ordinary)


@dataclass(frozen=True)
class FischerSummand:
    """One component r^power * (H or Ht at start degree)."""

    kind: str  # "H" or "Ht"
    degree: int
    rpower: int
    dim: int

    def describe(self) -> str:
        prefix = f"r^{self.rpower}*" if self.rpower else ""
        return f"{prefix}{self.kind}_{self.degree}"


@dataclass(frozen=True)
class DecompositionReport:
    signature: SuperSignature
    k: int
    summands: tuple[FischerSummand, ...]
    suppressed: tuple[int, ...]
    total_dim: int
    space_dim: int
    verified: bool
    failure_witness: str | None = None
    notes: tuple[str, ...] = ()


_SPACES = {"H": harmonic_space, "Ht": generalized_harmonic_space}


def _component_rows(
    signature: SuperSignature, kind: str, degree: int, rpower: int, k: int
) -> list[dict[int, int]]:
    """Integer rows of the component r^rpower * (H or Ht)_degree of P_k."""
    return rsquare_lift_rows(_SPACES[kind](signature, degree), rpower // 2, k)


def _formula_plan(sets: FischerIndexSets) -> list[tuple[str, int, int]]:
    """Components of the index-set formula, in start-degree order."""
    plan = [("Ht", l, sets.k - l) for l in sets.exceptional] + [
        ("H", l, sets.k - l) for l in sets.ordinary
    ]
    plan.sort(key=lambda item: item[1])
    return plan


def _decomposition_plan(
    signature: SuperSignature, k: int
) -> tuple[list[tuple[str, int, int]], tuple[int, ...]]:
    """Component list (kind, start degree, r-power) of the degree-k
    decomposition, plus suppressed degrees."""
    sets = fischer_index_sets(signature, k)
    if signature.m == 0:
        plan = _fermionic_summand_plan(signature, k)
        starts = {degree for _, degree, _ in plan}
        return plan, tuple(sorted(l for l in sets.degrees if l not in starts))
    return _formula_plan(sets), tuple(sorted(sets.suppressed))


def fischer_rows(signature: SuperSignature, k: int) -> tuple[dict[int, int], ...]:
    """Integer rows of the lifted components of the degree-k decomposition,
    stacked in summand order, one row per basis element of each component;
    they span P_k exactly when the decomposition verifies.  Empty for
    k < 0."""
    if k < 0:
        return ()
    plan, _ = _decomposition_plan(signature, k)
    return tuple(
        row
        for kind, degree, rpower in plan
        for row in _component_rows(signature, kind, degree, rpower, k)
    )


def _fermionic_summand_plan(signature: SuperSignature, k: int) -> list[tuple[str, int, int]]:
    """Components of degree k for m = 0: starts N_min(k, 2n-k), plain
    harmonics only."""
    twon = signature.fermionic_count
    if k > twon:
        return []
    base = min(k, twon - k)
    return [("H", l, k - l) for l in range(base % 2, base + 1, 2)]


def fischer_decomposition(signature: SuperSignature, k: int) -> DecompositionReport:
    """Decompose P_k into r-power multiples of (generalized) harmonics and
    verify exactness of the direct sum by rank."""
    if k < 0:
        raise ValueError("negative degree")
    plan, suppressed = _decomposition_plan(signature, k)
    summands = [
        FischerSummand(kind, degree, rpower, _SPACES[kind](signature, degree).dim)
        for kind, degree, rpower in plan
    ]

    space_dim = len(monomial_basis(signature, k))
    total = sum(s.dim for s in summands)
    # Reversed, so the highest start degree comes first: the start-k
    # component, when there is one, is a canonical basis with no lift, so its
    # rows enter the echelon with no elimination.  Rank ignores order.
    joint_rank = rank(fischer_rows(signature, k)[::-1])
    agreement = True
    notes: tuple[str, ...] = ()
    if signature.m == 0:
        formula_plan = _formula_plan(fischer_index_sets(signature, k))
        agreement = _plans_agree(signature, plan, formula_plan, k)
        notes = (
            "m=0: purely fermionic decomposition used; index-set formula "
            + ("matches after dropping trivial components" if agreement else "DISAGREES"),
        )
    verified = joint_rank == total == space_dim and agreement
    witness = None
    if not joint_rank == total == space_dim:
        witness = (
            f"rank {joint_rank} of stacked components vs sum of dims {total} "
            f"vs dim P_{k} = {space_dim}"
        )
    elif not agreement:
        witness = "m=0: the index-set formula and the fermionic decomposition differ"
    return DecompositionReport(
        signature=signature,
        k=k,
        summands=tuple(summands),
        suppressed=suppressed,
        total_dim=total,
        space_dim=space_dim,
        verified=verified,
        failure_witness=witness,
        notes=notes,
    )


def _plans_agree(signature, fermionic_plan, formula_plan, k) -> bool:
    """At m = 0 the index-set formula may list components that vanish; it
    must never miss a nonzero one and never claim a nonzero extra one."""

    def nonzero_components(plan):
        return {
            (degree, rpower)  # Ht equals H at m = 0
            for kind, degree, rpower in plan
            if any(_component_rows(signature, kind, degree, rpower, k))
        }

    return nonzero_components(fermionic_plan) == nonzero_components(formula_plan)


@dataclass(frozen=True)
class TheoremAReport:
    """Exactness report for the harmonic triple at one degree."""

    signature: SuperSignature
    k: int
    exceptional: bool
    dim_h: int
    dim_ht: int
    dim_socle: int
    dim_mirror: int | None
    quotient_dim: int
    checks: tuple[tuple[str, bool], ...]
    verified: bool


def verify_theorem_A(signature: SuperSignature, k: int) -> TheoremAReport:
    """Regular degrees: Ht_k = H_k and the socle vanishes.  Exceptional
    degrees: the socle is the r-power image of the mirror harmonics, the
    chain socle < H_k < Ht_k is strict, and the three defect dimensions
    agree."""
    if k < 0:
        raise ValueError("negative degree")
    M = signature.M
    H = harmonic_space(signature, k)
    Ht = generalized_harmonic_space(signature, k)
    H0 = socle_space(signature, k)
    exceptional = k in exceptional_indices(M)
    checks: list[tuple[str, bool]] = []
    dim_mirror = None
    if not exceptional:
        checks.append(("generalized equals harmonic", Ht == H))
        checks.append(("socle is zero", H0.dim == 0))
    else:
        mirror = harmonic_space(signature, 2 - M - k)
        dim_mirror = mirror.dim
        j = (2 * k + M - 2) // 2
        lifted = Subspace.from_rows(
            H.ambient_dim, rsquare_lift_rows(mirror, j, k), (signature, k)
        )
        checks.append(("socle is r-power of mirror harmonics", H0 == lifted))
        checks.append(
            (
                "strict chain socle < H < Ht",
                Ht.contains_subspace(H)
                and H.contains_subspace(H0)
                and H0.dim < H.dim < Ht.dim,
            )
        )
        checks.append(
            (
                "defect dimensions agree",
                Ht.dim - H.dim == H0.dim == dim_mirror,
            )
        )
    return TheoremAReport(
        signature=signature,
        k=k,
        exceptional=exceptional,
        dim_h=H.dim,
        dim_ht=Ht.dim,
        dim_socle=H0.dim,
        dim_mirror=dim_mirror,
        quotient_dim=H.dim - H0.dim,
        checks=tuple(checks),
        verified=all(ok for _, ok in checks),
    )
