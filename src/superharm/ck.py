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

ck_extend_recursive rebuilds Q by the two-step coefficient recursion
instead; it exists so the closed form can be checked against an independent
construction.  Both extensions write their terms directly: a term c x^a t_F
of the coefficient of x_m^j/j! becomes c/j! x^(a, j) t_F, with no power of
x_m and no polynomial product (xi applies the same rule, in operators).
Every series term of ck_extend has x_m-degree at most k, so it adds all of
them with operators.xi_into into one dict of integer numerators over the
common denominator k!, and divides once per term.  Both extensions store a
coefficient as an int when it is integral and as a Fraction otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .operators import laplacian, xi_into
from .superpoly import (
    ScalarLike,
    SuperMonomial,
    SuperPolynomial,
    SuperSignature,
    _rational,
    d_bosonic,
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
