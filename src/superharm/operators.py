"""Invariant operators on the superpolynomial ring.

The three basic operators are

    laplacian   sum_j d^2/dx_j^2  -  4 sum_j d/dt_{2j-1} d/dt_{2j}
    rsquare     multiplication by sum_j x_j^2 - sum_j t_{2j-1} t_{2j}
    euler       sum_j x_j d/dx_j + sum_j t_j d/dt_j

They close, together with the superdimension shift, into an sl(2) triple:
on every polynomial,

    [laplacian/2, rsquare/2] = euler + M/2
    [laplacian/2, euler + M/2] = laplacian
    [rsquare/2, euler + M/2] = -rsquare

with M = m - 2n.  The orthosymplectic generators below are first order
superderivations x_a d_b -+ x_b d_a with one index lowered by the block
metric (identity on the bosonic block, the normalized symplectic form on the
fermionic block); their defining property, graded commutation with all three
basic operators, is what invariance_check verifies degree by degree.

Operators are wrapped in small descriptor objects recording source and
target signatures, degree shift and parity, so they can be composed, turned
into matrices, and fed to commutator checks.  Evaluation is always the exact
application of the displayed formulas; matrices are derived, never primary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Callable

from .superpoly import (
    ScalarLike,
    SuperPolynomial,
    SuperSignature,
    d_bosonic,
    d_fermionic,
    embed,
    monomial_basis,
)


@dataclass(frozen=True)
class LinearOperator:
    """Degree-homogeneous linear operator between superpolynomial rings."""

    name: str
    signature: SuperSignature
    degree_shift: int
    parity: int
    fn: Callable[[SuperPolynomial], SuperPolynomial] = field(compare=False, repr=False)
    target_signature: SuperSignature | None = None

    def __post_init__(self):
        if self.target_signature is None:
            object.__setattr__(self, "target_signature", self.signature)

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        if p.signature != self.signature:
            raise ValueError(f"{self.name} expects signature {self.signature}, got {p.signature}")
        return self.fn(p)


def compose(outer: LinearOperator, inner: LinearOperator) -> LinearOperator:
    """outer after inner."""
    if inner.target_signature != outer.signature:
        raise ValueError(f"cannot compose {outer.name} after {inner.name}")
    return LinearOperator(
        name=f"{outer.name}*{inner.name}",
        signature=inner.signature,
        degree_shift=inner.degree_shift + outer.degree_shift,
        parity=(inner.parity + outer.parity) & 1,
        fn=lambda p: outer.fn(inner.fn(p)),
        target_signature=outer.target_signature,
    )


def op_add(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    if (a.signature, a.target_signature, a.degree_shift) != (
        b.signature,
        b.target_signature,
        b.degree_shift,
    ):
        raise ValueError(f"cannot add {a.name} and {b.name}")
    return LinearOperator(
        name=f"({a.name}+{b.name})",
        signature=a.signature,
        degree_shift=a.degree_shift,
        parity=a.parity if a.parity == b.parity else 0,
        fn=lambda p: a.fn(p) + b.fn(p),
        target_signature=a.target_signature,
    )


def op_scale(c: ScalarLike, a: LinearOperator) -> LinearOperator:
    c = Fraction(c)
    return LinearOperator(
        name=f"{c}*{a.name}",
        signature=a.signature,
        degree_shift=a.degree_shift,
        parity=a.parity,
        fn=lambda p: a.fn(p) * c,
        target_signature=a.target_signature,
    )


def identity_op(signature: SuperSignature, c: ScalarLike = 1) -> LinearOperator:
    c = Fraction(c)
    return LinearOperator(
        name=f"{c}*id",
        signature=signature,
        degree_shift=0,
        parity=0,
        fn=lambda p: p * c,
    )


# -- the basic operators ------------------------------------------------------


def laplacian(p: SuperPolynomial) -> SuperPolynomial:
    """Second order invariant operator; on t1 t2 it gives 4."""
    sig = p.signature
    out = SuperPolynomial.zero(sig)
    for j in range(1, sig.m + 1):
        out = out + d_bosonic(d_bosonic(p, j), j)
    for j in range(1, sig.n + 1):
        out = out - 4 * d_fermionic(d_fermionic(p, 2 * j), 2 * j - 1)
    return out


def rsquare(signature: SuperSignature) -> SuperPolynomial:
    """The invariant norm-square polynomial."""
    p = SuperPolynomial.zero(signature)
    for j in range(1, signature.m + 1):
        xj = SuperPolynomial.x(signature, j)
        p = p + xj * xj
    for j in range(1, signature.n + 1):
        p = p - SuperPolynomial.t(signature, 2 * j - 1) * SuperPolynomial.t(signature, 2 * j)
    return p


def rsquare_mul(p: SuperPolynomial) -> SuperPolynomial:
    return rsquare(p.signature) * p


def euler(p: SuperPolynomial) -> SuperPolynomial:
    """Degree operator: k times the identity on homogeneous degree k."""
    sig = p.signature
    data = {}
    for mono, c in p.terms.items():
        d = mono.degree
        if d:
            data[mono] = c * d
    return SuperPolynomial(sig, data, _clean=True)


def xi(ell: int, p_lower: SuperPolynomial) -> SuperPolynomial:
    """Series x_m^ell/ell! p - x_m^(ell+2)/(ell+2)! lap(p) + .. lifting a
    polynomial one bosonic variable up; terminates because each step lowers
    the degree by two."""
    if ell < 0:
        raise ValueError("xi needs a nonnegative series offset")
    lower_sig = p_lower.signature
    sig = lower_sig.extended()
    xm = SuperPolynomial.x(sig, sig.m)
    out = SuperPolynomial.zero(sig)
    q = p_lower
    j = ell
    fact = factorial(ell)
    while not q.is_zero():
        out = out + embed(q) * Fraction(1, fact) * xm**j
        q = -laplacian(q)
        fact *= (j + 1) * (j + 2)
        j += 2
    return out


def laplacian_op(signature: SuperSignature) -> LinearOperator:
    return LinearOperator("laplacian", signature, -2, 0, laplacian)


def rsquare_op(signature: SuperSignature) -> LinearOperator:
    r2 = rsquare(signature)
    return LinearOperator("rsquare_mul", signature, 2, 0, lambda p: r2 * p)


def euler_op(signature: SuperSignature) -> LinearOperator:
    return LinearOperator("euler", signature, 0, 0, euler)


def generalized_laplacian_op(signature: SuperSignature) -> LinearOperator:
    """laplacian after rsquare_mul after laplacian, the order-two window."""
    lap = laplacian_op(signature)
    return compose(lap, compose(rsquare_op(signature), lap))


def xi_op(signature: SuperSignature, ell: int) -> LinearOperator:
    """Lift from the restricted signature into ``signature``."""
    if signature.m == 0:
        raise ValueError("xi needs at least one bosonic variable in the target")
    lower = signature.restricted()
    return LinearOperator(
        name=f"xi({ell})",
        signature=lower,
        degree_shift=ell,
        parity=0,
        fn=lambda p: xi(ell, p),
        target_signature=signature,
    )


# -- commutator checks --------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exhaustive identity check on one degree."""

    ok: bool
    name: str
    witness: tuple[SuperPolynomial, SuperPolynomial, SuperPolynomial] | None = None

    def witness_text(self) -> str:
        if self.witness is None:
            return ""
        mono, lhs, rhs = self.witness
        return f"on {mono}: lhs={lhs}, rhs={rhs}"


def graded_commutator(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    """a b - (-1)^(|a||b|) b a."""
    sign = -1 if (a.parity and b.parity) else 1
    ab = compose(a, b)
    ba = compose(b, a)
    return LinearOperator(
        name=f"[{a.name},{b.name}]",
        signature=ab.signature,
        degree_shift=ab.degree_shift,
        parity=(a.parity + b.parity) & 1,
        fn=lambda p: ab.fn(p) - sign * ba.fn(p),
        target_signature=ab.target_signature,
    )


def commutator_check(
    a: LinearOperator,
    b: LinearOperator,
    expected: LinearOperator,
    k: int,
    name: str | None = None,
) -> CheckResult:
    """Verify [a, b] = expected on every degree-k monomial."""
    bracket = graded_commutator(a, b)
    label = name or f"{bracket.name}={expected.name}"
    sig = bracket.signature
    for mono in monomial_basis(sig, k):
        p = SuperPolynomial(sig, {mono: Fraction(1)}, _clean=True)
        lhs = bracket(p)
        rhs = expected(p)
        if lhs != rhs:
            return CheckResult(False, label, (p, lhs, rhs))
    return CheckResult(True, label)


def sl2_relations_check(signature: SuperSignature, k: int) -> tuple[CheckResult, ...]:
    """The three sl(2) relations, checked exhaustively on degree k."""
    half = Fraction(1, 2)
    e2 = op_scale(half, laplacian_op(signature))
    f2 = op_scale(half, rsquare_op(signature))
    h = op_add(euler_op(signature), identity_op(signature, Fraction(signature.M, 2)))
    return (
        commutator_check(e2, f2, h, k, "sl2: [lap/2, r2/2] = euler + M/2"),
        commutator_check(e2, h, laplacian_op(signature), k, "sl2: [lap/2, euler + M/2] = lap"),
        commutator_check(
            f2, h, op_scale(-1, rsquare_op(signature)), k, "sl2: [r2/2, euler + M/2] = -r2"
        ),
    )


# -- orthosymplectic generators -----------------------------------------------


def _coordinate(signature: SuperSignature, a: int) -> SuperPolynomial:
    if a <= signature.m:
        return SuperPolynomial.x(signature, a)
    return SuperPolynomial.t(signature, a - signature.m)


def _lowered_coordinate(signature: SuperSignature, a: int) -> SuperPolynomial:
    """Index lowered by the metric: identity block on x, antisymmetric
    half-unit pairing on consecutive t pairs."""
    if a <= signature.m:
        return SuperPolynomial.x(signature, a)
    j = a - signature.m
    if j % 2 == 1:
        return SuperPolynomial.t(signature, j + 1) * Fraction(-1, 2)
    return SuperPolynomial.t(signature, j - 1) * Fraction(1, 2)


def _derivative(signature: SuperSignature, a: int, p: SuperPolynomial) -> SuperPolynomial:
    if a <= signature.m:
        return d_bosonic(p, a)
    return d_fermionic(p, a - signature.m)


def _index_parity(signature: SuperSignature, a: int) -> int:
    return 0 if a <= signature.m else 1


def osp_generator(signature: SuperSignature, a: int, b: int) -> LinearOperator:
    """Rotation-type superderivation attached to the index pair (a, b).

    Indices 1..m are bosonic, m+1..m+2n fermionic.  For two bosonic indices
    this is the plain rotation x_a d_b - x_b d_a; the fermionic and mixed
    cases pick up the metric lowering and the sign dictated by the parities.
    """
    total = signature.m + signature.fermionic_count
    if not (1 <= a <= total and 1 <= b <= total):
        raise ValueError(f"indices ({a}, {b}) outside 1..{total}")
    pa = _index_parity(signature, a)
    pb = _index_parity(signature, b)
    xa = _lowered_coordinate(signature, a)
    xb = _lowered_coordinate(signature, b)
    sign = -1 if (pa and pb) else 1

    def apply(p: SuperPolynomial) -> SuperPolynomial:
        out = xa * _derivative(signature, b, p)
        other = xb * _derivative(signature, a, p)
        return out - sign * other

    return LinearOperator(f"L({a},{b})", signature, 0, (pa + pb) & 1, apply)


def osp_generators(signature: SuperSignature) -> tuple[LinearOperator, ...]:
    """A spanning family: bosonic pairs a<b, fermionic pairs a<=b, all mixed."""
    m, twon = signature.m, signature.fermionic_count
    gens = []
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            gens.append(osp_generator(signature, a, b))
    for a in range(m + 1, m + twon + 1):
        for b in range(a, m + twon + 1):
            gens.append(osp_generator(signature, a, b))
    for a in range(1, m + 1):
        for b in range(m + 1, m + twon + 1):
            gens.append(osp_generator(signature, a, b))
    return tuple(gens)


def invariance_check(signature: SuperSignature, k: int) -> CheckResult:
    """Every generator graded-commutes with laplacian, rsquare and euler on
    degree k.  This is the ground truth for the generator conventions."""
    basics = (laplacian_op(signature), rsquare_op(signature), euler_op(signature))
    for gen in osp_generators(signature):
        for basic in basics:
            res = commutator_check(
                basic,
                gen,
                _zero_like(basic, gen),
                k,
                f"invariance: [{basic.name},{gen.name}] = 0 at degree {k}",
            )
            if not res.ok:
                return res
    return CheckResult(True, f"invariance: all generators at degree {k}")


def _zero_like(basic: LinearOperator, gen: LinearOperator) -> LinearOperator:
    return LinearOperator(
        "0",
        basic.signature,
        basic.degree_shift + gen.degree_shift,
        (basic.parity + gen.parity) & 1,
        lambda p: SuperPolynomial.zero(basic.target_signature),
        target_signature=basic.target_signature,
    )
