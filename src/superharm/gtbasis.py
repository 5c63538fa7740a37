"""Bases of (generalized) harmonics adapted to the chain of subalgebras
that drops one bosonic variable at a time and then one fermionic pair at a
time.

Every basis element carries a label: the path of branching choices that
produced it.  One chain step per level, printed level:kind:degree:pos,
where degree is the degree of the lower-level element it came from and pos
its position in that lower basis.

Bosonic descent produces elements as extensions from hyperplane data.  With
a regular level below, degrees l of one parity enter through the boundary
slot (kind ordinary-a1) and the others through the normal slot
(ordinary-a2); for a generalized target at an exceptional degree k the
extra elements come from prescribing the Laplacian to be the lifted mirror
harmonics, themselves taken in this basis at the same level
(generalized-a3).  With an exceptional level below, the boundary and normal
slots instead follow the lower decomposition: ordinary starts give
ordinary-b3/b4 and exceptional starts give tilde-b5/b6 with the
generalized lower space as target; the mirrors of exceptional starts are
suppressed.  One table maps each kind to its CK slot and the target of the
lower basis; the descent and the per-step check both read it, and both take
the start degrees from fischer_index_sets of the level below.  The slot's
ring and degree come from ck.

An element is held as integer numerators on the degree-k basis over
their least common denominator; its polynomial is built from them only
when asked for.  The bosonic descent lifts each lower element's row
through the held columns of the cached r2 matrices to the slot's degree
(harmonics.rsquare_lift_row) and extends it with ck.slot_extension, whose
lap' is the cached lower Laplacian matrix; the extension is k! times the
element over the lower denominator, reduced by the gcd.  The verification
reads each element's row and ranks the rows, and applies no polynomial
operator: at every m, L_k times the row, through the columns the cached
L_k holds, decides annihilation (L_k v = 0 for H, L_k R_(k-2) L_k v = 0
for Ht).  For m >= 1 the same product is the element's Laplacian part, and
its boundary and normal data are the x_m^0 and x_m^1 slices of its row
(ck._xm_split).  The per-step predicate (the lifted lower row in the
kind's slot, zero in the other two) compares integer rows over two
denominators by cross-multiplying, as branching's slot checks state it on
the extensions of integer rows.

The purely fermionic floor is built by a recursion removing the last pair
t_{2n-1}, t_{2n}: a harmonic of n - 1 pairs passes through unchanged
(fermionic-0), multiplied by t_{2n-1} (fermionic-1), by t_{2n} (fermionic-2),
or by the degree-dependent quadratic
Theta = t1 t2 + .. + t_{2n-3} t_{2n-2} + (k - n - 1) t_{2n-1} t_{2n}
(fermionic-3); the floor of at most one pair is {1} and {t1, t2}
(fermionic-base).  A second table maps each of these kinds to its degree drop
and multiplier, and the floor is one function; the recursion and the
per-step check both read them.  In these small rings the recursion
multiplies polynomials and stores each product as a row
(GTBasisElement.from_polynomial).  Nonzero fermionic harmonics live only in
degrees 0..n.  A generalized fermionic target is the plain one, in the basis
and in its verification (_generalized): the window of M = -2n starts at
n + 2, and above degree n lap is injective and its image meets ker(lap r2)
only in 0, so Ht_k = H_k = 0 there.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd, lcm
from types import MappingProxyType
from typing import Mapping

from .ck import SLOTS, _xm_split, slot_ambient, slot_extension
from .exactla import apply_columns, polynomial_vector, rank, vector_polynomial
from .harmonics import (
    exceptional_indices,
    fischer_index_sets,
    generalized_harmonic_space,
    harmonic_space,
    laplacian_matrix,
    rsquare_lift_row,
)
from .superpoly import SuperPolynomial, SuperSignature, _rational, extend_signature


@dataclass(frozen=True)
class ChainStep:
    level: int
    kind: str
    degree: int
    pos: int

    def text(self) -> str:
        return f"{self.level}:{self.kind}:{self.degree}:{self.pos}"


@dataclass(frozen=True)
class GTLabel:
    chain: tuple[ChainStep, ...]

    def text(self) -> str:
        return "/".join(step.text() for step in self.chain)


@dataclass(frozen=True)
class GTBasisElement:
    """A basis element of degree `degree` in `signature`: row / den, with
    row the integer numerators on the degree-k basis and den > 0 their least
    common denominator, gcd(den, *row) == 1.  The bases are cached and
    shared, so the row is held read-only."""

    label: GTLabel
    signature: SuperSignature
    degree: int
    den: int
    row: Mapping[int, int]

    @property
    def polynomial(self) -> SuperPolynomial:
        """The element as a polynomial, built on each call."""
        den = self.den
        coefficients = {i: _rational(v, den) for i, v in self.row.items()}
        return vector_polynomial(self.signature, self.degree, coefficients)

    @classmethod
    def from_polynomial(cls, label: GTLabel, p: SuperPolynomial, k: int) -> "GTBasisElement":
        """The element of p, which must be homogeneous of degree k
        (ValueError otherwise)."""
        vec = polynomial_vector(p, k)
        den = lcm(*(c.denominator for c in vec.values()))
        row = {i: c.numerator * (den // c.denominator) for i, c in vec.items()}
        return cls(label, p.signature, k, den, MappingProxyType(row))


_CACHE: dict[tuple[int, int, int, str], tuple[GTBasisElement, ...]] = {}


def theta_factor(signature: SuperSignature, k: int) -> SuperPolynomial:
    """The quadratic multiplier of the pair-removal recursion at degree k."""
    n = signature.n
    if signature.m != 0 or n < 1:
        raise ValueError("theta factor lives in a purely fermionic ring")
    out = SuperPolynomial.zero(signature)
    for i in range(1, n):
        out = out + SuperPolynomial.t(signature, 2 * i - 1) * SuperPolynomial.t(signature, 2 * i)
    last = SuperPolynomial.t(signature, 2 * n - 1) * SuperPolynomial.t(signature, 2 * n)
    return out + (k - n - 1) * last


def _prepend(step: ChainStep, element: GTBasisElement) -> GTLabel:
    return GTLabel((step,) + element.label.chain)


# kind -> (degree drop, multiplier at degree k) of the pair-removal recursion:
# the lower element is a harmonic of one pair fewer, taken into this ring.
_FERMIONIC_KINDS = {
    "fermionic-0": (0, lambda sig, k: 1),
    "fermionic-1": (1, lambda sig, k: SuperPolynomial.t(sig, 2 * sig.n - 1)),
    "fermionic-2": (1, lambda sig, k: SuperPolynomial.t(sig, 2 * sig.n)),
    "fermionic-3": (2, theta_factor),
}


def _fermionic_floor(signature: SuperSignature, k: int) -> tuple[SuperPolynomial, ...]:
    """Basis of H_k with at most one pair: {1} in degree 0, {t1, t2} in
    degree 1."""
    if k == 0:
        return (SuperPolynomial.one(signature),)
    if k == 1 and signature.n == 1:
        return (SuperPolynomial.t(signature, 1), SuperPolynomial.t(signature, 2))
    return ()


def _fermionic_basis(n: int, k: int) -> tuple[GTBasisElement, ...]:
    sig = SuperSignature(0, n)
    if k < 0 or k > n:
        return ()
    if n <= 1:
        return tuple(
            GTBasisElement.from_polynomial(GTLabel((ChainStep(n, "fermionic-base", k, i),)), p, k)
            for i, p in enumerate(_fermionic_floor(sig, k))
        )
    out: list[GTBasisElement] = []
    for kind, (drop, multiplier) in _FERMIONIC_KINDS.items():
        factor = multiplier(sig, k)
        for i, el in enumerate(gt_basis(SuperSignature(0, n - 1), k - drop, "H")):
            Q = factor * extend_signature(el.polynomial, sig)
            label = _prepend(ChainStep(n, kind, k - drop, i), el)
            out.append(GTBasisElement.from_polynomial(label, Q, k))
    return tuple(out)


# kind -> (CK slot the lower element enters, target of the lower basis); the
# ring and degree of each slot's data come from ck.slot_ambient.
_BOSONIC_KINDS = {
    "ordinary-a1": ("boundary", "H"),
    "ordinary-a2": ("normal", "H"),
    "ordinary-b3": ("boundary", "H"),
    "ordinary-b4": ("normal", "H"),
    "tilde-b5": ("boundary", "Ht"),
    "tilde-b6": ("normal", "Ht"),
    "generalized-a3": ("laplacian", "H"),
}

def _bosonic_descent(signature: SuperSignature, k: int, target: str) -> tuple[GTBasisElement, ...]:
    """Extensions of GT elements one level down (boundary and normal slots)
    or of the mirror degree at this level (Laplacian slot), each lifted by
    the power of r2 that brings it to the degree of its slot.  Over a regular
    level every lower degree is ordinary (a1/a2); over an exceptional one the
    lower decomposition sorts the degrees into ordinary (b3/b4) and
    exceptional (b5/b6) starts.  A generalized target adds the a3 elements
    last."""
    kinds = ["ordinary-a1", "ordinary-a2"]
    if exceptional_indices(signature.M - 1):
        kinds = ["ordinary-b3", "ordinary-b4", "tilde-b5", "tilde-b6"]
    if target == "Ht":
        kinds.append("generalized-a3")
    top = factorial(k)
    out: list[GTBasisElement] = []
    for kind in kinds:
        slot, lower_target = _BOSONIC_KINDS[kind]
        source, degree = slot_ambient(signature, k, slot)
        if slot == "laplacian":
            starts: tuple[int, ...] = (2 - signature.M - k,)
        else:
            sets = fischer_index_sets(source, degree)
            starts = sets.exceptional if lower_target == "Ht" else sets.ordinary
        extend = slot_extension(signature, k, slot)
        for l in starts:
            for i, el in enumerate(gt_basis(source, l, lower_target)):
                row = extend(rsquare_lift_row(source, l, el.row, degree))[0]
                den = top * el.den
                g = gcd(den, *row.values())
                row = MappingProxyType({t: v // g for t, v in row.items()})
                label = _prepend(ChainStep(signature.m, kind, l, i), el)
                out.append(GTBasisElement(label, signature, k, den // g, row))
    return tuple(out)


def _triple(row, image, split) -> tuple:
    """(boundary, normal, laplacian) of a degree-k row, in its own integer
    numerators: its x_m^0 and x_m^1 slices, read with
    split = ck._xm_split(signature, k), and its image L_k row."""
    exps, pos = split
    slices: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for t, c in row.items():
        if exps[t] < 2:
            slices[exps[t]][pos[t]] = c
    return *slices, image


def _generalized(signature: SuperSignature, k: int) -> bool:
    """Whether Ht_k is a target of its own: m >= 1 and k exceptional."""
    return signature.m >= 1 and k in exceptional_indices(signature.M)


def gt_basis(
    signature: SuperSignature, k: int, target: str = "H"
) -> tuple[GTBasisElement, ...]:
    """Chain-adapted basis of H_k (target "H") or Ht_k (target "Ht");
    the two targets coincide away from exceptional degrees."""
    if target not in ("H", "Ht"):
        raise ValueError(f"target must be 'H' or 'Ht', got {target!r}")
    if k < 0:
        return ()
    if target == "Ht" and not _generalized(signature, k):
        return gt_basis(signature, k, "H")
    key = (signature.m, signature.n, k, target)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    if signature.m == 0:
        elements = _fermionic_basis(signature.n, k)
    else:
        elements = _bosonic_descent(signature, k, target)
    _CACHE[key] = elements
    return elements


@dataclass(frozen=True)
class GTBasisReport:
    signature: SuperSignature
    k: int
    target: str
    size: int
    expected_dim: int
    checks: tuple[tuple[str, bool], ...]
    flagged: tuple[int, ...]
    verified: bool


def _step_data_ok(
    signature: SuperSignature, k: int, element: GTBasisElement, triple=None
) -> bool:
    """Check the restriction data of one element against the lower-level
    element its label points to, one level only.  A step that claims
    another level than this one (m on the bosonic half, n on the fermionic
    half) or a kind that does not step down from this level fails.  On the
    bosonic half the element's triple (boundary, normal, laplacian) of
    _triple, read here unless the caller passes it, must carry the lower
    element's row, lifted by r2 to the slot's degree, in the kind's slot
    and zero in the other two; the two sides are compared by
    cross-multiplied denominators."""
    if not element.label.chain:
        return False
    step, rest = element.label.chain[0], element.label.chain[1:]
    m, n = signature.m, signature.n
    if step.level != (m or n):
        return False
    if m == 0 and n <= 1:
        if rest or step.kind != "fermionic-base":
            return False
        floor = _fermionic_floor(signature, step.degree)
        return 0 <= step.pos < len(floor) and element.polynomial == floor[step.pos]
    if m == 0 and step.kind in _FERMIONIC_KINDS:
        source, lower_target = SuperSignature(0, n - 1), "H"
    elif m > 0 and step.kind in _BOSONIC_KINDS:
        slot, lower_target = _BOSONIC_KINDS[step.kind]
        source, degree = slot_ambient(signature, k, slot)
    else:
        return False
    lower = gt_basis(source, step.degree, lower_target)
    if not 0 <= step.pos < len(lower) or lower[step.pos].label.chain != rest:
        return False
    lo = lower[step.pos]
    if m == 0:
        multiplier = _FERMIONIC_KINDS[step.kind][1]
        expected = multiplier(signature, k) * extend_signature(lo.polynomial, signature)
        return element.polynomial == expected
    # a label whose degree cannot reach the slot's degree fails, not raises
    if degree < step.degree or (degree - step.degree) % 2:
        return False
    if triple is None:
        image = apply_columns(laplacian_matrix(signature, k), element.row)
        triple = _triple(element.row, image, _xm_split(signature, k))
    want = rsquare_lift_row(source, step.degree, lo.row, degree)
    for name, have in zip(SLOTS, triple):
        expected = want if name == slot else {}
        if have.keys() != expected.keys():
            return False
        if any(c * lo.den != expected[i] * element.den for i, c in have.items()):
            return False
    return True


def verify_gt_basis(signature: SuperSignature, k: int, target: str = "H") -> GTBasisReport:
    """Exact verification: count against the kernel dimension, annihilation
    by the defining operator, linear independence, and one-step restriction
    data for every element.

    Each element is read as it is held, integer numerators over one
    denominator, and the rows are ranked.  At every m, L_k applied to the
    row decides annihilation (L_k v = 0 for H, L_k R_(k-2) L_k v = 0 for
    Ht); no polynomial operator runs.  For m >= 1 the step check reads the
    triple of the x_m^0 and x_m^1 slices and L_k v; at m = 0 it compares
    polynomials built from the rows.  An element of another signature or
    degree fails both the annihilation and the restriction-data check, its
    row unread by either."""
    if k < 0:
        raise ValueError("negative degree")
    basis = gt_basis(signature, k, target)
    generalized = target == "Ht" and _generalized(signature, k)
    space = (generalized_harmonic_space if generalized else harmonic_space)(signature, k)
    split = _xm_split(signature, k) if signature.m else None
    L = laplacian_matrix(signature, k)
    membership_ok = data_ok = True
    for el in basis:
        if (el.signature, el.degree) != (signature, k):
            membership_ok = data_ok = False  # its row is on another basis
            continue
        image = apply_columns(L, el.row)
        triple = _triple(el.row, image, split) if signature.m else None
        data_ok &= _step_data_ok(signature, k, el, triple)
        if generalized:
            image = apply_columns(L, rsquare_lift_row(signature, k - 2, image, k))
        membership_ok &= not image

    checks = (
        ("element count equals space dimension", len(basis) == space.dim),
        ("every element is annihilated", membership_ok),
        ("elements are linearly independent", rank(el.row for el in basis) == len(basis)),
        ("restriction data matches one level down", data_ok),
    )
    flagged = sorted(
        {
            el.label.chain[0].degree
            for el in basis
            if el.label.chain and el.label.chain[0].kind in ("tilde-b5", "tilde-b6")
        }
    )
    return GTBasisReport(
        signature=signature,
        k=k,
        target=target,
        size=len(basis),
        expected_dim=space.dim,
        checks=checks,
        flagged=tuple(flagged),
        verified=all(ok for _, ok in checks),
    )
