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

The bosonic descent and its verification run on integer rows.  The
descent reads each lower element's coordinates as integer numerators over
one denominator, lifts them through the held columns of the cached r2
matrices to the slot's degree (harmonics.rsquare_lift_row) and extends
them with ck.polynomial_extension, whose lap' is the cached lower
Laplacian matrix.  The verification reads each element's coordinates once
and ranks them, and applies no polynomial operator: at every m, L_k times
them, through the columns the cached L_k holds, decides annihilation
(L_k v = 0 for H, L_k R_(k-2) L_k v = 0 for Ht).  For m >= 1 the same
product is the element's Laplacian part, and its boundary and normal data
are the x_m^0 and x_m^1 slices of its coordinates (ck._xm_split).  The
per-step predicate (the lifted lower coordinates in the
kind's slot, zero in the other two) compares integer rows over two
denominators by cross-multiplying, as branching's slot checks state it on
the extensions of integer rows (ck.slot_extension).

The purely fermionic floor is built by a recursion removing the last pair
t_{2n-1}, t_{2n}: a harmonic of n - 1 pairs passes through unchanged
(fermionic-0), multiplied by t_{2n-1} (fermionic-1), by t_{2n} (fermionic-2),
or by the degree-dependent quadratic
Theta = t1 t2 + .. + t_{2n-3} t_{2n-2} + (k - n - 1) t_{2n-1} t_{2n}
(fermionic-3); the floor of at most one pair is {1} and {t1, t2}
(fermionic-base).  A second table maps each of these kinds to its degree drop
and multiplier, and the floor is one function; the recursion and the
per-step check both read them.  Nonzero fermionic harmonics live only in
degrees 0..n.  A generalized fermionic target is the plain one, in the basis
and in its verification (_generalized): the window of M = -2n starts at
n + 2, and above degree n lap is injective and its image meets ker(lap r2)
only in 0, so Ht_k = H_k = 0 there.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .ck import SLOTS, _xm_split, polynomial_extension, slot_ambient
from .exactla import apply_columns, rank
from .harmonics import (
    exceptional_indices,
    fischer_index_sets,
    generalized_harmonic_space,
    harmonic_space,
    laplacian_matrix,
    rsquare_lift_row,
)
from .superpoly import SuperPolynomial, SuperSignature, basis_index, extend_signature


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
    label: GTLabel
    polynomial: SuperPolynomial


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


def _prepend(step: ChainStep, element: GTBasisElement, polynomial) -> GTBasisElement:
    return GTBasisElement(GTLabel((step,) + element.label.chain), polynomial)


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
            GTBasisElement(GTLabel((ChainStep(n, "fermionic-base", k, i),)), p)
            for i, p in enumerate(_fermionic_floor(sig, k))
        )
    out: list[GTBasisElement] = []
    for kind, (drop, multiplier) in _FERMIONIC_KINDS.items():
        factor = multiplier(sig, k)
        for i, el in enumerate(gt_basis(SuperSignature(0, n - 1), k - drop, "H")):
            Q = factor * extend_signature(el.polynomial, sig)
            out.append(_prepend(ChainStep(n, kind, k - drop, i), el, Q))
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
    out: list[GTBasisElement] = []
    for kind in kinds:
        slot, lower_target = _BOSONIC_KINDS[kind]
        source, degree = slot_ambient(signature, k, slot)
        if slot == "laplacian":
            starts: tuple[int, ...] = (2 - signature.M - k,)
        else:
            sets = fischer_index_sets(source, degree)
            starts = sets.exceptional if lower_target == "Ht" else sets.ordinary
        extend = polynomial_extension(signature, k, slot)
        for l in starts:
            for i, el in enumerate(gt_basis(source, l, lower_target)):
                den, parts = _coordinates(el.polynomial, l)
                Q = extend(rsquare_lift_row(source, l, parts[l], degree), den)
                out.append(_prepend(ChainStep(signature.m, kind, l, i), el, Q))
    return tuple(out)


def _coordinates(p: SuperPolynomial, k: int) -> tuple[int, dict[int, dict[int, int]]]:
    """(den, parts): p as integer numerators over den, the least common
    denominator of its coefficients, split by degree: parts maps k and each
    other degree d of p to its numerators on the degree-d basis.  p is
    homogeneous of degree k exactly when k is the only key."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    index = basis_index(p.signature, k)
    row: dict[int, int] = {}
    parts = {k: row}
    for mono, c in p.terms.items():
        v = c.numerator * (den // c.denominator)
        i = index.get(mono)
        if i is None:
            d = mono.degree
            parts.setdefault(d, {})[basis_index(p.signature, d)[mono]] = v
        else:
            row[i] = v
    return den, parts


def _triple(den: int, row, image, split) -> tuple:
    """(den, boundary, normal, laplacian) of the degree-k element with
    coordinates row / den, in integer numerators over den: its x_m^0 and
    x_m^1 slices, read with split = ck._xm_split(signature, k), and its
    image L_k row."""
    exps, pos = split
    slices: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for t, c in row.items():
        if exps[t] < 2:
            slices[exps[t]][pos[t]] = c
    return den, *slices, image


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
    bosonic half the element's triple (den, boundary, normal, laplacian) of
    _triple, read here unless the caller passes it, must carry the lower
    element's coordinates, lifted by r2 to the slot's degree, in the kind's
    slot and zero in the other two; the two sides are compared by
    cross-multiplied denominators.  An element that is not homogeneous of
    degree k fails: its parts of other degrees have restriction data of
    other degrees."""
    if not element.label.chain:
        return False
    step, rest = element.label.chain[0], element.label.chain[1:]
    p = element.polynomial
    m, n = signature.m, signature.n
    if step.level != (m or n):
        return False
    if m == 0 and n <= 1:
        if rest or step.kind != "fermionic-base":
            return False
        floor = _fermionic_floor(signature, step.degree)
        return 0 <= step.pos < len(floor) and p == floor[step.pos]
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
    lo = lower[step.pos].polynomial
    if m == 0:
        multiplier = _FERMIONIC_KINDS[step.kind][1]
        return p == multiplier(signature, k) * extend_signature(lo, signature)
    # a label whose degree cannot reach the slot's degree fails, not raises
    j, odd = divmod(degree - step.degree, 2)
    if j < 0 or odd:
        return False
    if triple is None:
        den, parts = _coordinates(p, k)
        if len(parts) > 1:
            return False
        image = apply_columns(laplacian_matrix(signature, k), parts[k])
        triple = _triple(den, parts[k], image, _xm_split(signature, k))
    den, *got = triple
    lo_den, lo_parts = _coordinates(lo, step.degree)
    # each part of the lower element, lifted by r^(2j): only the one of the
    # label's degree may be nonzero, and it must be the slot's data
    lifted = {d: rsquare_lift_row(source, d, row, d + 2 * j) for d, row in lo_parts.items()}
    want = lifted.pop(step.degree)
    if any(lifted.values()):
        return False
    for name, have in zip(SLOTS, got):
        expected = want if name == slot else {}
        if have.keys() != expected.keys():
            return False
        if any(c * lo_den != expected[i] * den for i, c in have.items()):
            return False
    return True


def verify_gt_basis(signature: SuperSignature, k: int, target: str = "H") -> GTBasisReport:
    """Exact verification: count against the kernel dimension, annihilation
    by the defining operator, linear independence (an element that is not
    homogeneous of degree k makes it false), and one-step restriction data
    for every element.

    Each element's coordinates are read once, as integer numerators over
    one denominator (_coordinates), and ranked.  At every m, L_d applied to
    each part of degree d decides annihilation (L_k v = 0 for H,
    L_k R_(k-2) L_k v = 0 for Ht), so an element that is not homogeneous
    is judged by the matrices of the degrees of its parts; no polynomial
    operator runs.  For m >= 1 the step check reads the triple of the x_m^0
    and x_m^1 slices and L_k v; at m = 0 it compares polynomials."""
    if k < 0:
        raise ValueError("negative degree")
    basis = gt_basis(signature, k, target)
    generalized = target == "Ht" and _generalized(signature, k)
    space = (generalized_harmonic_space if generalized else harmonic_space)(signature, k)
    coords = [_coordinates(el.polynomial, k) for el in basis]
    homogeneous = all(len(parts) == 1 for _, parts in coords)
    split = _xm_split(signature, k) if signature.m else None
    membership_ok = data_ok = True
    for el, (den, parts) in zip(basis, coords):
        images = {
            d: apply_columns(laplacian_matrix(signature, d), row) for d, row in parts.items()
        }
        if signature.m:
            triple = _triple(den, parts[k], images[k], split)
            data_ok &= len(parts) == 1 and _step_data_ok(signature, k, el, triple)
        else:
            data_ok &= _step_data_ok(signature, k, el)
        if generalized:
            lifted = {d: rsquare_lift_row(signature, d - 2, w, d) for d, w in images.items()}
            images = {
                d: apply_columns(laplacian_matrix(signature, d), w) for d, w in lifted.items()
            }
        membership_ok &= not any(images.values())

    checks = (
        ("element count equals space dimension", len(basis) == space.dim),
        ("every element is annihilated", membership_ok),
        (
            "elements are linearly independent",
            homogeneous and rank(parts[k] for _, parts in coords) == len(basis),
        ),
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
