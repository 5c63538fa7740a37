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
basic operators, is what invariance_check verifies degree by degree.  The
basic operators are even, so every bracket checked here is the plain
commutator a b - b a.

Every operator is a plain map SuperPolynomial -> SuperPolynomial: the
exact application of the displayed formulas.  Composition is composition of
functions.  The matrix of the Laplacian on one degree (module harmonics) is
built from the images under laplacian of the monomials of the rank-one
rings (1|0) and (0|2) only, applied with the int coefficient 1; the rules
compute in ints, so the matrix has int entries.  The rule below has no
term that mixes two variables or two fermionic pairs, so
lap(x^a t_F) = lap(x^a) t_F + x^a lap(t_F), and likewise for x1 against
the other bosonic variables and for the top pair against the other pairs:
every other ring's matrix is assembled from those of the rank-one rings.
The matrix of rsquare_mul is read off the Laplacian's on a rank-one ring,
as its adjoint under the Fischer weights, and assembled in the same way.
exactla.operator_matrix, which applies a map to each whole basis monomial,
stays the tests' reference for both.

laplacian, rsquare_mul and the lift xi are applied by their monomial rules,
term by term into one dict.  On x^a t_F, with P_j = {2j-1, 2j} the j-th
fermionic pair:

    laplacian:    a_i (a_i - 1) x^(a - 2e_i) t_F     for each i with a_i >= 2
                  +4 x^a t_(F minus P_j)             for each P_j inside F
    rsquare_mul:  x^(a + 2e_i) t_F                   for each i
                  -x^a t_(F union P_j)               for each P_j disjoint from F
    xi(ell, p):   (-1)^s c/(ell+2s)! x^(a, ell+2s) t_F
                                  for each term c x^a t_F of lap^s p, s >= 0

In laplacian and rsquare_mul the coefficients are small integers and the
signs are fixed, so int coefficients stay ints.  In the Laplacian,
d/dt_(2j-1) d/dt_(2j) removes the adjacent pair from the ascending word of
F: the first derivative passes the c indices of F below 2j-1 and 2j-1
itself, the second passes the same c, so the sign is (-1)^(2c+1) = -1, and
times the -4 of the formula it gives +4.  In r2, the product
t_(2j-1) t_(2j) t_F merges an adjacent pair into F; every index of F below
the pair is passed twice, so the merge sign is +1 and the -1 of r2 stays.
In xi, appending the exponent ell+2s of the new bosonic variable x_m is the
product with x_m^(ell+2s), and the sign (-1)^s rides on the running scale,
so each term is written once and no power of x_m is built.

xi sums its series as integer numerators over the common denominator
top = (ell + deg p)!: the term becomes top (-1)^s/(ell+2s)! times c, an
exact int scale, so int coefficients stay ints, and it divides by top once
per term.  The scales top (-1)^s/(ell+2s)! and their exponents ell+2s are
stated once, in xi_scales: xi reads them, and so does module ck, whose CK
extension runs the same series on integer rows over k! and applies lap
through the cached Laplacian matrices of module harmonics instead of the
rule above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Iterator

from .superpoly import (
    ScalarLike,
    SuperMonomial,
    SuperPolynomial,
    SuperSignature,
    _rational,
    d_bosonic,
    d_fermionic,
    monomial_basis,
)


# -- the basic operators ------------------------------------------------------


@lru_cache(maxsize=None)
def _pair_masks(signature: SuperSignature) -> tuple[int, ...]:
    """Bitmask of each fermionic pair t_(2j-1) t_(2j), once per signature."""
    return tuple(3 << (2 * j) for j in range(signature.n))


def laplacian(p: SuperPolynomial) -> SuperPolynomial:
    """Second order invariant operator; on t1 t2 it gives 4.  Applied by
    its monomial rule (module docstring)."""
    sig = p.signature
    pairs = _pair_masks(sig)
    data: dict[SuperMonomial, ScalarLike] = {}
    for (powers, f), c in p:
        for i, e in enumerate(powers):
            if e > 1:
                key = SuperMonomial(powers[:i] + (e - 2,) + powers[i + 1 :], f)
                v = c * (e * (e - 1))
                old = data.get(key)
                data[key] = v if old is None else old + v
        for pair in pairs:
            if f & pair == pair:
                key = SuperMonomial(powers, f ^ pair)
                v = 4 * c
                old = data.get(key)
                data[key] = v if old is None else old + v
    return SuperPolynomial(sig, {k: v for k, v in data.items() if v}, _clean=True)


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
    """Multiplication by r2, applied by its monomial rule (module
    docstring); never builds r2 itself."""
    sig = p.signature
    pairs = _pair_masks(sig)
    data: dict[SuperMonomial, ScalarLike] = {}
    for (powers, f), c in p:
        for i, e in enumerate(powers):
            key = SuperMonomial(powers[:i] + (e + 2,) + powers[i + 1 :], f)
            old = data.get(key)
            data[key] = c if old is None else old + c
        neg = -c
        for pair in pairs:
            if not f & pair:
                key = SuperMonomial(powers, f | pair)
                old = data.get(key)
                data[key] = neg if old is None else old + neg
    return SuperPolynomial(sig, {k: v for k, v in data.items() if v}, _clean=True)


def euler(p: SuperPolynomial) -> SuperPolynomial:
    """Degree operator: k times the identity on homogeneous degree k."""
    sig = p.signature
    data = {}
    for mono, c in p.terms.items():
        d = mono.degree
        if d:
            data[mono] = c * d
    return SuperPolynomial(sig, data, _clean=True)


def xi_scales(ell: int, top: int) -> Iterator[tuple[int, int]]:
    """(ell + 2s, top (-1)^s / (ell+2s)!) for s = 0, 1, ..: the exponent of
    x_m and the integer scale of the s-th term of the xi series over the
    common denominator top.  The one statement of the series' scales, read
    by xi and by ck's row extension; each scale is exact while
    (ell+2s)! divides top, and the caller stops before it does not."""
    j, scale = ell, top // factorial(ell)
    while True:
        yield j, scale
        scale //= -(j + 1) * (j + 2)
        j += 2


def xi(ell: int, p_lower: SuperPolynomial) -> SuperPolynomial:
    """Series x_m^ell/ell! p - x_m^(ell+2)/(ell+2)! lap(p) + .. lifting a
    polynomial one bosonic variable up, term by term (module docstring):
    the terms are summed as integer numerators over the common denominator
    (ell + deg p)!, so every scale of xi_scales is an exact int, and divided
    once per term.  Terminates because each step lowers the degree by two."""
    if ell < 0:
        raise ValueError("xi needs a nonnegative series offset")
    sig = p_lower.signature.extended()
    deg = p_lower.degree()
    if deg is None:
        return SuperPolynomial.zero(sig)
    top = factorial(ell + deg)
    data: dict[SuperMonomial, ScalarLike] = {}
    q = p_lower
    for j, scale in xi_scales(ell, top):
        if q.is_zero():
            break
        tail = (j,)
        for (powers, f), c in q:
            key = SuperMonomial(powers + tail, f)
            v = c * scale
            old = data.get(key)
            data[key] = v if old is None else old + v
        q = laplacian(q)
    return SuperPolynomial(sig, {k: _rational(v, top) for k, v in data.items()}, _clean=True)


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


Map = Callable[[SuperPolynomial], SuperPolynomial]


def commutator_check(
    a: Map,
    b: Map,
    expected: Map,
    signature: SuperSignature,
    k: int,
    name: str,
) -> CheckResult:
    """Verify a b - b a = expected on every degree-k monomial.

    The bracket is the plain commutator: every check here brackets with an
    even operator (laplacian, rsquare, euler and their combinations), so the
    graded sign never enters.
    """
    for mono in monomial_basis(signature, k):
        p = SuperPolynomial(signature, {mono: 1}, _clean=True)
        lhs = a(b(p)) - b(a(p))
        rhs = expected(p)
        if lhs != rhs:
            return CheckResult(False, name, (p, lhs, rhs))
    return CheckResult(True, name)


def sl2_relations_check(signature: SuperSignature, k: int) -> tuple[CheckResult, ...]:
    """The three sl(2) relations, checked exhaustively on degree k.

    Each relation is checked doubled, in integers: [lap, r2] = 4 euler + 2M,
    [lap, euler] = 2 lap and [r2, euler] = -2 r2, which are the displayed
    relations times 4, 2 and 2 (the scalar M/2 commutes with everything).  A
    failing check divides its witness by that factor, so it reports the
    sides of the relation its name displays.
    """
    M = signature.M
    doubled = (
        (
            "sl2: [lap/2, r2/2] = euler + M/2",
            laplacian,
            rsquare_mul,
            4,
            lambda p: euler(p) * 4 + p * (2 * M),
        ),
        ("sl2: [lap/2, euler + M/2] = lap", laplacian, euler, 2, lambda p: laplacian(p) * 2),
        ("sl2: [r2/2, euler + M/2] = -r2", rsquare_mul, euler, 2, lambda p: rsquare_mul(p) * -2),
    )
    results = []
    for name, a, b, factor, expected in doubled:
        check = commutator_check(a, b, expected, signature, k, name)
        if not check.ok:
            p, lhs, rhs = check.witness
            check = CheckResult(False, name, (p, lhs / factor, rhs / factor))
        results.append(check)
    return tuple(results)


# -- orthosymplectic generators -----------------------------------------------


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


def osp_generator(signature: SuperSignature, a: int, b: int) -> Map:
    """Rotation-type superderivation attached to the index pair (a, b).

    Indices 1..m are bosonic, m+1..m+2n fermionic.  For two bosonic indices
    this is the plain rotation x_a d_b - x_b d_a; the fermionic and mixed
    cases pick up the metric lowering and the sign dictated by the parities.
    A mixed pair gives an odd map, every other pair an even one.
    """
    total = signature.m + signature.fermionic_count
    if not (1 <= a <= total and 1 <= b <= total):
        raise ValueError(f"indices ({a}, {b}) outside 1..{total}")
    xa = _lowered_coordinate(signature, a)
    xb = _lowered_coordinate(signature, b)
    sign = -1 if (_index_parity(signature, a) and _index_parity(signature, b)) else 1

    def apply(p: SuperPolynomial) -> SuperPolynomial:
        out = xa * _derivative(signature, b, p)
        other = xb * _derivative(signature, a, p)
        return out - sign * other

    return apply


def _osp_index_pairs(signature: SuperSignature) -> list[tuple[int, int]]:
    """Bosonic pairs a<b, fermionic pairs a<=b, all mixed pairs."""
    m, twon = signature.m, signature.fermionic_count
    bosonic = range(1, m + 1)
    fermionic = range(m + 1, m + twon + 1)
    return (
        [(a, b) for a in bosonic for b in bosonic if a < b]
        + [(a, b) for a in fermionic for b in fermionic if a <= b]
        + [(a, b) for a in bosonic for b in fermionic]
    )


def osp_generators(signature: SuperSignature) -> tuple[Map, ...]:
    """A spanning family of the orthosymplectic generators."""
    return tuple(osp_generator(signature, a, b) for a, b in _osp_index_pairs(signature))


def invariance_check(signature: SuperSignature, k: int) -> CheckResult:
    """Every generator commutes with laplacian, rsquare and euler on degree
    k.  This is the ground truth for the generator conventions."""
    zero = SuperPolynomial.zero(signature)
    basics = (
        ("laplacian", laplacian),
        ("rsquare_mul", rsquare_mul),
        ("euler", euler),
    )
    for a, b in _osp_index_pairs(signature):
        gen = osp_generator(signature, a, b)
        for basic_name, basic in basics:
            res = commutator_check(
                basic,
                gen,
                lambda p: zero,
                signature,
                k,
                f"invariance: [{basic_name},L({a},{b})] = 0 at degree {k}",
            )
            if not res.ok:
                return res
    return CheckResult(True, f"invariance: all generators at degree {k}")
