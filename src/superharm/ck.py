"""Cauchy-Kovalevskaya extension along the last bosonic variable.

A homogeneous Q of degree k in signature (m|2n) is determined by the triple

    boundary   = Q restricted to x_m = 0            (degree k,   lower ring)
    normal     = d/dx_m Q restricted to x_m = 0     (degree k-1, lower ring)
    laplacian  = lap Q                              (degree k-2, full ring)

and ck_extend reconstructs Q from the triple in closed form, using the
series xi(ell, -) that solves lap F = x_m^(ell-2)/(ell-2)! * w with vanishing
boundary data.  The boundary and normal parts ride on xi(0, -) and xi(1, -),
which are annihilated by lap; the prescribed Laplacian enters through its
x_m-slices.  The mutually inverse pair (ck_data, ck_extend) realizes the
dimension count dim P_k = dim P'_k + dim P'_{k-1} + dim P_{k-2} with P' one
bosonic variable down; in particular harmonics correspond to triples with
zero laplacian part.

ck owns the slot protocol, so the callers that read it (branching's slot
checks, the GT descent and its per-step check) know no restriction of
their own.  SLOTS gives each slot's ring and degree below k, and
slot_ambient reads it for one slot; restriction_triple reads the three
slots of any polynomial, and only_in_slot states that a triple carries
given data in one slot and zero in the other two.

slot_extension is the same extension in index space, for branching's slot
checks: it takes one integer row of a slot's data at a time (on the basis
of slot_ambient) and returns the row of k! times its extension on the
degree-k basis, built by the xi series with each lap' applied through the
cached lower harmonics.laplacian_matrix, so lap's rule stays stated in
operators alone.  An entry at x^a t_F of the series term with x_m^j goes
to the column of x^(a, j) t_F; _xm_split is that correspondence, and it
also reads the x_m^0 and x_m^1 slices of the extension back.  Rows are extended one at a
time, and no extension matrix is held.

ck_extend_recursive rebuilds Q by the two-step coefficient recursion
instead; it exists so the closed form can be checked against an independent
construction.  Both extensions write their terms directly: a term c x^a t_F
of the coefficient of x_m^j/j! becomes c/j! x^(a, j) t_F, with no power of
x_m and no polynomial product (xi applies the same rule, in operators).
Every series term of ck_extend has x_m-degree at most k, so it adds all of
them with operators.xi_into into one dict of integer numerators over the
common denominator k!, and divides once per term.  Both extensions store a
coefficient as an int when it is integral and as a Fraction otherwise.
ck_extend and slot_extension read the series' scales (-1)^s k!/(ell+2s)!
from one place, operators.xi_scales.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import factorial
from typing import Callable, Mapping

from .exactla import apply_columns, columns
from .harmonics import laplacian_matrix
from .operators import laplacian, xi_into, xi_scales
from .superpoly import (
    ScalarLike,
    SuperMonomial,
    SuperPolynomial,
    SuperSignature,
    _rational,
    basis_index,
    d_bosonic,
    monomial_basis,
    restrict_hyperplane,
    xm_coefficients,
)


# slot -> (its data lives one bosonic variable down, its degree below the
# degree k of the polynomial).  Iteration follows the order of the triple.
SLOTS = {"boundary": (True, 0), "normal": (True, 1), "laplacian": (False, 2)}


def slot_ambient(signature: SuperSignature, k: int, slot: str) -> tuple[SuperSignature, int]:
    """Ring and degree of `slot`'s data for a degree-k polynomial in
    `signature`."""
    down, drop = SLOTS[slot]
    return (signature.restricted() if down else signature), k - drop


def restriction_triple(p: SuperPolynomial) -> tuple[SuperPolynomial, ...]:
    """(boundary, normal, laplacian) of p, in the order of SLOTS, with no
    check of degree: the read-back of an extension."""
    return restrict_hyperplane(p), restrict_hyperplane(d_bosonic(p, p.signature.m)), laplacian(p)


def only_in_slot(triple, slot: str, p: SuperPolynomial) -> bool:
    """The triple is p in `slot` and zero in the other two slots."""
    for name, got in zip(SLOTS, triple):
        if (got != p) if name == slot else not got.is_zero():
            return False
    return True


def _xm_split(signature: SuperSignature, k: int) -> tuple[array, array]:
    """For each monomial x^(a, j) t_F of the degree-k basis, its exponent j
    of x_m and the position of x^a t_F in the lower basis of degree k - j,
    as two flat arrays over the basis."""
    lower = [basis_index(signature.restricted(), k - j) for j in range(k + 1)]
    basis = monomial_basis(signature, k)
    # plain (powers, mask) tuples hash and compare like SuperMonomial
    return (
        array("i", (a[-1] for a, _ in basis)),
        array("i", (lower[a[-1]][a[:-1], f] for a, f in basis)),
    )


def slot_extension(
    signature: SuperSignature, k: int, slot: str
) -> Callable[[Mapping[int, int]], tuple[dict[int, int], dict[int, int], dict[int, int]]]:
    """CK extension in index space, as a function of one row at a time.

    A row is integer data of `slot` on the basis of slot_ambient; the
    triple with it in `slot` and zero in the other two is extended by the
    xi series of ck_extend, as integer numerators over k!.  The boundary
    and normal rows seed xi(0) and xi(1); a Laplacian row seeds xi(j + 2)
    with each x_m-slice w_j = j! (coefficient of x_m^j).  The function
    returns the extension on the degree-k basis of `signature` and its
    x_m^0 and x_m^1 slices read back from it, on the lower bases of degrees
    k and k - 1: k! times the boundary and normal data of the extension."""
    lower = signature.restricted()
    top = factorial(k)
    exps, pos = _xm_split(signature, k)
    place = [array("i", [0]) * len(monomial_basis(lower, k - j)) for j in range(k + 1)]
    for t, (j, i) in enumerate(zip(exps, pos)):
        place[j][i] = t
    cols = {}  # lower degree -> columns of lap' on it, built on first use
    if slot == "laplacian":
        seed_exps, seed_pos = _xm_split(signature, k - 2)

    def seeds(row):
        if slot != "laplacian":
            return [(SLOTS[slot][1], row)]
        slices: list[dict[int, int]] = [{} for _ in range(k - 1)]
        for t, c in row.items():
            j = seed_exps[t]
            slices[j][seed_pos[t]] = c * factorial(j)
        return [(j + 2, w) for j, w in enumerate(slices) if w]

    def extend(row):
        acc: dict[int, int] = {}
        for ell, q in seeds(row):
            for j, scale in xi_scales(ell, top):
                if not q:
                    break
                at = place[j]
                for i, c in q.items():
                    t = at[i]
                    acc[t] = acc.get(t, 0) + c * scale
                d = k - j
                if d not in cols:
                    cols[d] = columns(laplacian_matrix(lower, d))
                q = apply_columns(cols[d], q)
        ext = {t: v for t, v in acc.items() if v}
        slices: tuple[dict[int, int], dict[int, int]] = ({}, {})
        for t, v in ext.items():
            if exps[t] < 2:
                slices[exps[t]][pos[t]] = v
        return ext, *slices

    return extend


@dataclass(frozen=True)
class CKData:
    """Restriction data of a degree-k polynomial: value and normal
    derivative on the hyperplane x_m = 0 plus the full Laplace image."""

    degree: int
    boundary: SuperPolynomial
    normal: SuperPolynomial
    laplacian: SuperPolynomial

    def __post_init__(self):
        k = self.degree
        if k < 0:
            raise ValueError("negative degree")
        full = self.laplacian.signature
        if full.m == 0:
            raise ValueError("extension needs at least one bosonic variable")
        lower = full.restricted()
        parts = (self.boundary, self.normal, self.laplacian)
        for (slot, (down, drop)), part in zip(SLOTS.items(), parts):
            ring, deg = (lower if down else full), k - drop
            if part.signature != ring:
                raise ValueError(f"{slot} data must live in {ring}, got {part.signature}")
            if not part.is_homogeneous(deg):
                raise ValueError(f"{slot} part is not homogeneous of degree {deg}")

    @property
    def signature(self) -> SuperSignature:
        return self.laplacian.signature

    @property
    def lower_signature(self) -> SuperSignature:
        return self.boundary.signature

    @classmethod
    def from_parts(
        cls, signature: SuperSignature, degree: int, **parts: SuperPolynomial
    ) -> "CKData":
        """Build a triple in full signature `signature` from the parts given
        by slot name, filling omitted parts with zero."""
        lower = signature.restricted()
        for slot, (down, _) in SLOTS.items():
            if slot not in parts:
                parts[slot] = SuperPolynomial.zero(lower if down else signature)
        return cls(degree, **parts)


def ck_data(p: SuperPolynomial, k: int | None = None) -> CKData:
    """Restriction data of a homogeneous polynomial."""
    if k is None:
        k = p.degree()
        if k is None:
            raise ValueError("degree of the zero polynomial must be given explicitly")
    if not p.is_homogeneous(k):
        raise ValueError(f"polynomial is not homogeneous of degree {k}")
    if p.signature.m == 0:
        raise ValueError("extension needs at least one bosonic variable")
    return CKData(k, *restriction_triple(p))


def ck_extend(data: CKData) -> SuperPolynomial:
    """Closed-form extension: xi(0) and xi(1) carry the boundary data, the
    shifted series xi(j+2) turn each x_m-slice of the prescribed Laplacian
    into a particular solution.  Every series term has x_m-degree at most
    k, so all of them are summed as numerators over k! and divided once."""
    k = data.degree
    top = factorial(k)
    acc: dict[SuperMonomial, ScalarLike] = {}
    xi_into(acc, 0, data.boundary, top)
    xi_into(acc, 1, data.normal, top)
    if k >= 2:
        for j, w in enumerate(xm_coefficients(data.laplacian, k - 2)):
            xi_into(acc, j + 2, w, top)
    return SuperPolynomial(
        data.signature, {mono: _rational(v, top) for mono, v in acc.items() if v}, _clean=True
    )


def ck_extend_recursive(data: CKData) -> SuperPolynomial:
    """Rebuild the polynomial coefficient by coefficient: with
    Q = sum_j x_m^j/j! c_j, the Laplacian splits as lap' + d_m^2, forcing
    c_{j+2} = w_j - lap' c_j from c_0, c_1 and the slices w_j."""
    k = data.degree
    sig = data.signature
    coeffs = [SuperPolynomial.zero(data.lower_signature) for _ in range(k + 1)]
    coeffs[0] = data.boundary
    if k >= 1:
        coeffs[1] = data.normal
    slices = xm_coefficients(data.laplacian, k - 2) if k >= 2 else ()
    for j in range(k - 1):
        coeffs[j + 2] = slices[j] - laplacian(coeffs[j])
    terms: dict[SuperMonomial, ScalarLike] = {}
    for j, c in enumerate(coeffs):
        top = (j,)
        fact = factorial(j)
        for (powers, f), v in c:
            terms[SuperMonomial(powers + top, f)] = _rational(v, fact)
    return SuperPolynomial(sig, terms, _clean=True)
