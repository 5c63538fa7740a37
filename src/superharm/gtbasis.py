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
suppressed.

The purely fermionic floor is built by a recursion removing the last pair
t_{2n-1}, t_{2n}: a harmonic of n - 1 pairs passes through unchanged
(fermionic-0), multiplied by t_{2n-1} (fermionic-1), by t_{2n} (fermionic-2),
or by the degree-dependent quadratic
Theta = t1 t2 + .. + t_{2n-3} t_{2n-2} + (k - n - 1) t_{2n-1} t_{2n}
(fermionic-3); the one-pair floor is {1} and {t1, t2} (fermionic-base).
Nonzero fermionic harmonics live only in degrees 0..n.  A generalized
fermionic target is given the plain basis: the exceptional window of
M = -2n starts at degree n + 2, beyond every nonzero harmonic, and the count
check of verify_gt_basis compares that basis with the exact kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ck import CKData, ck_extend
from .exactla import polynomials_rank
from .harmonics import (
    exceptional_indices,
    fischer_index_sets,
    generalized_harmonic_space,
    harmonic_space,
    rsquare_lift,
)
from .operators import laplacian, rsquare_mul
from .superpoly import (
    SuperPolynomial,
    SuperSignature,
    d_bosonic,
    extend_signature,
    restrict_hyperplane,
)


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


def _fermionic_basis(n: int, k: int) -> tuple[GTBasisElement, ...]:
    sig = SuperSignature(0, n)
    if k < 0 or k > n:
        return ()
    if n == 0:
        return (
            GTBasisElement(
                GTLabel((ChainStep(0, "fermionic-base", 0, 0),)),
                SuperPolynomial.one(sig),
            ),
        )
    if n == 1:
        if k == 0:
            return (
                GTBasisElement(
                    GTLabel((ChainStep(1, "fermionic-base", 0, 0),)),
                    SuperPolynomial.one(sig),
                ),
            )
        return tuple(
            GTBasisElement(
                GTLabel((ChainStep(1, "fermionic-base", 1, i),)),
                SuperPolynomial.t(sig, i + 1),
            )
            for i in range(2)
        )
    out: list[GTBasisElement] = []
    for i, el in enumerate(gt_basis(SuperSignature(0, n - 1), k, "H")):
        out.append(
            _prepend(
                ChainStep(n, "fermionic-0", k, i), el, extend_signature(el.polynomial, sig)
            )
        )
    for j, factor in ((1, SuperPolynomial.t(sig, 2 * n - 1)), (2, SuperPolynomial.t(sig, 2 * n))):
        for i, el in enumerate(gt_basis(SuperSignature(0, n - 1), k - 1, "H")):
            out.append(
                _prepend(
                    ChainStep(n, f"fermionic-{j}", k - 1, i),
                    el,
                    factor * extend_signature(el.polynomial, sig),
                )
            )
    theta = theta_factor(sig, k)
    for i, el in enumerate(gt_basis(SuperSignature(0, n - 1), k - 2, "H")):
        out.append(
            _prepend(
                ChainStep(n, "fermionic-3", k - 2, i),
                el,
                theta * extend_signature(el.polynomial, sig),
            )
        )
    return tuple(out)


def _boundary_element(signature, k, step, el, j) -> GTBasisElement:
    boundary = rsquare_lift(el.polynomial, j)
    return _prepend(step, el, ck_extend(CKData.from_parts(signature, k, boundary=boundary)))


def _normal_element(signature, k, step, el, j) -> GTBasisElement:
    normal = rsquare_lift(el.polynomial, j)
    return _prepend(step, el, ck_extend(CKData.from_parts(signature, k, normal=normal)))


def _regular_descent(signature: SuperSignature, k: int, target: str) -> tuple[GTBasisElement, ...]:
    lower = signature.restricted()
    m = signature.m
    out: list[GTBasisElement] = []
    for l in range(k, -1, -2):
        j = (k - l) // 2
        for i, el in enumerate(gt_basis(lower, l, "H")):
            out.append(_boundary_element(signature, k, ChainStep(m, "ordinary-a1", l, i), el, j))
    for l in range(k - 1, -1, -2):
        j = (k - 1 - l) // 2
        for i, el in enumerate(gt_basis(lower, l, "H")):
            out.append(_normal_element(signature, k, ChainStep(m, "ordinary-a2", l, i), el, j))
    if target == "Ht":
        M = signature.M
        mirror = 2 - M - k
        j = (2 * k + M - 4) // 2
        for i, el in enumerate(gt_basis(signature, mirror, "H")):
            Q = ck_extend(
                CKData.from_parts(signature, k, laplacian=rsquare_lift(el.polynomial, j))
            )
            out.append(_prepend(ChainStep(m, "generalized-a3", mirror, i), el, Q))
    return tuple(out)


def _exceptional_descent(signature: SuperSignature, k: int) -> tuple[GTBasisElement, ...]:
    lower = signature.restricted()
    m = signature.m
    sets_k = fischer_index_sets(lower, k)
    sets_k1 = fischer_index_sets(lower, k - 1) if k >= 1 else None
    out: list[GTBasisElement] = []
    for l in sets_k.ordinary:
        j = (k - l) // 2
        for i, el in enumerate(gt_basis(lower, l, "H")):
            out.append(_boundary_element(signature, k, ChainStep(m, "ordinary-b3", l, i), el, j))
    if sets_k1 is not None:
        for l in sets_k1.ordinary:
            j = (k - 1 - l) // 2
            for i, el in enumerate(gt_basis(lower, l, "H")):
                out.append(
                    _normal_element(signature, k, ChainStep(m, "ordinary-b4", l, i), el, j)
                )
    for l in sets_k.exceptional:
        j = (k - l) // 2
        for i, el in enumerate(gt_basis(lower, l, "Ht")):
            out.append(_boundary_element(signature, k, ChainStep(m, "tilde-b5", l, i), el, j))
    if sets_k1 is not None:
        for l in sets_k1.exceptional:
            j = (k - 1 - l) // 2
            for i, el in enumerate(gt_basis(lower, l, "Ht")):
                out.append(
                    _normal_element(signature, k, ChainStep(m, "tilde-b6", l, i), el, j)
                )
    return tuple(out)


def gt_basis(
    signature: SuperSignature, k: int, target: str = "H"
) -> tuple[GTBasisElement, ...]:
    """Chain-adapted basis of H_k (target "H") or Ht_k (target "Ht");
    the two targets coincide away from exceptional degrees."""
    if target not in ("H", "Ht"):
        raise ValueError(f"target must be 'H' or 'Ht', got {target!r}")
    if k < 0:
        return ()
    if target == "Ht" and (signature.m == 0 or k not in exceptional_indices(signature.M)):
        return gt_basis(signature, k, "H")
    key = (signature.m, signature.n, k, target)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    if signature.m == 0:
        elements = _fermionic_basis(signature.n, k)
    elif exceptional_indices(signature.M - 1):
        elements = _exceptional_descent(signature, k)
    else:
        elements = _regular_descent(signature, k, target)
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


def _lower_target_for(kind: str) -> str:
    return "Ht" if kind in ("tilde-b5", "tilde-b6") else "H"


def _step_data_ok(signature: SuperSignature, k: int, element: GTBasisElement) -> bool:
    """Check the restriction data of one element against the lower-level
    element its label points to, one level only."""
    step = element.label.chain[0]
    rest = element.label.chain[1:]
    p = element.polynomial
    kind = step.kind

    if kind.startswith("fermionic"):
        sig = signature
        n = signature.n
        if kind == "fermionic-base":
            if n > 1 or rest:
                return False
            if step.degree == 0:
                expected = (SuperPolynomial.one(sig),)
            elif n == 1:
                expected = (SuperPolynomial.t(sig, 1), SuperPolynomial.t(sig, 2))
            else:
                return False
            return step.pos < len(expected) and p == expected[step.pos]
        lower_sig = SuperSignature(0, n - 1)
        lower = gt_basis(lower_sig, step.degree, "H")
        if step.pos >= len(lower):
            return False
        lo = lower[step.pos]
        if lo.label.chain != rest:
            return False
        lifted = extend_signature(lo.polynomial, sig)
        if kind == "fermionic-0":
            return p == lifted
        if kind == "fermionic-1":
            return p == SuperPolynomial.t(sig, 2 * n - 1) * lifted
        if kind == "fermionic-2":
            return p == SuperPolynomial.t(sig, 2 * n) * lifted
        if kind == "fermionic-3":
            return p == theta_factor(sig, k) * lifted
        return False

    lower_sig = signature.restricted()
    boundary = restrict_hyperplane(p)
    normal = restrict_hyperplane(d_bosonic(p, signature.m))
    if kind == "generalized-a3":
        mirror_basis = gt_basis(signature, step.degree, "H")
        if step.pos >= len(mirror_basis):
            return False
        lo = mirror_basis[step.pos]
        if lo.label.chain != rest:
            return False
        M = signature.M
        return (
            boundary.is_zero()
            and normal.is_zero()
            and laplacian(p) == rsquare_lift(lo.polynomial, (2 * k + M - 4) // 2)
        )

    lower = gt_basis(lower_sig, step.degree, _lower_target_for(kind))
    if step.pos >= len(lower):
        return False
    lo = lower[step.pos]
    if lo.label.chain != rest:
        return False
    if kind in ("ordinary-a1", "ordinary-b3", "tilde-b5"):
        lift = rsquare_lift(lo.polynomial, (k - step.degree) // 2)
        return boundary == lift and normal.is_zero()
    if kind in ("ordinary-a2", "ordinary-b4", "tilde-b6"):
        lift = rsquare_lift(lo.polynomial, (k - 1 - step.degree) // 2)
        return boundary.is_zero() and normal == lift
    return False


def verify_gt_basis(signature: SuperSignature, k: int, target: str = "H") -> GTBasisReport:
    """Exact verification: count against the kernel dimension, annihilation
    by the defining operator, linear independence, and one-step restriction
    data for every element."""
    basis = gt_basis(signature, k, target)
    exceptional = target == "Ht" and k in exceptional_indices(signature.M)
    space = (
        generalized_harmonic_space(signature, k)
        if exceptional
        else harmonic_space(signature, k)
    )
    polys = [el.polynomial for el in basis]

    def annihilated(p):
        image = laplacian(p)
        if not exceptional:
            return image.is_zero()
        return laplacian(rsquare_mul(image)).is_zero()

    membership_ok = all(annihilated(p) for p in polys)

    data_ok = all(_step_data_ok(signature, k, el) for el in basis)

    checks = (
        ("element count equals space dimension", len(basis) == space.dim),
        ("every element is annihilated", membership_ok),
        ("elements are linearly independent", polynomials_rank(polys, k) == len(basis)),
        ("restriction data matches one level down", data_ok),
    )
    flagged = sorted(
        {
            el.label.chain[0].degree
            for el in basis
            if el.label.chain[0].kind in ("tilde-b5", "tilde-b6")
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
