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

ck owns the slot protocol.  SLOTS gives each slot's ring and degree below
k, and slot_ambient reads it for one slot; restriction_triple reads the
three slots of any polynomial (the read-back of ck_data).

The extension runs on integer rows, in one core, _series: the xi series of
every seeded slot, summed as integer numerators over the common denominator
k!, with each lap' applied to the cached lower harmonics.laplacian_matrix
through the columns it holds (exactla.apply_columns), so lap's
rule stays stated in operators alone.  A row of the boundary or normal slot
seeds xi(0) or xi(1); a Laplacian row seeds xi(j + 2) with each x_m-slice
w_j = j! (coefficient of x_m^j).  The scales (-1)^s k!/(ell+2s)! of the
series come from one place, operators.xi_scales.  The core returns, for
each j = 0..k, k! times the coefficient of x_m^j as a row on the lower
basis of degree k - j, so an entry at x^a t_F of slice j belongs to the
monomial x^(a, j) t_F.  Two callers read it:

* ck_extend takes the rows of a CKData's parts (int or Fraction entries)
  and writes the slices back as a polynomial, dividing once per term;
* slot_extension(signature, k, slot) extends one integer row of one slot
  at a time in index space and places the slices on the degree-k basis,
  so that L_k can be applied to the extension: branching's slot checks
  read it, and the GT descent (module gtbasis) builds its elements, rows
  on the degree-k basis, with it.

slot_extension looks the lower Laplacian matrices up once, not once per
row, and holds nothing beyond the function it returns.  _xm_split is the
correspondence between the degree-k basis and the x_m-slices on the lower
bases; slot_extension places slices with it, and gtbasis reads the slices
of an element's row with it.

ck_extend_recursive rebuilds Q by the two-step coefficient recursion on
polynomials instead; it exists so the closed form can be checked against an
independent construction.  Both extensions store a coefficient as an int
when it is integral and as a Fraction otherwise.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import factorial
from typing import Callable, Iterable, Mapping

from .exactla import apply_columns
from .harmonics import laplacian_matrix
from .operators import laplacian, xi_scales
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


Seeds = list[tuple[int, Mapping[int, ScalarLike]]]


def _lower_laplacians(lower: SuperSignature, k: int) -> list:
    """The cached Laplacian matrices of the ring `lower` on the degrees
    d = 0..k, at index d; None below degree 2, where the series applies no
    Laplacian."""
    return [laplacian_matrix(lower, d) if d > 1 else None for d in range(k + 1)]


def _series(laps: list, seeds: Seeds, top: int) -> list[dict[int, ScalarLike]]:
    """The sum of the series top * xi(ell, q) over the seeds (ell, q), q a
    row on the basis of degree k - ell one bosonic variable down, with
    laps = _lower_laplacians(lower, k): for each j = 0..k, top times the
    coefficient of x_m^j, as a row on the lower basis of degree k - j,
    where terms of several seeds may cancel to 0.  top must be a multiple
    of k!."""
    k = len(laps) - 1
    slices: list[dict[int, ScalarLike]] = [{} for _ in range(k + 1)]
    for ell, q in seeds:
        for j, scale in xi_scales(ell, top):
            at = slices[j]
            for i, c in q.items():
                at[i] = at.get(i, 0) + c * scale
            if j + 2 > k:
                break
            q = apply_columns(laps[k - j], q)
            if not q:
                break
    return slices


def _laplacian_seeds(
    lower: SuperSignature, k: int, terms: Iterable[tuple[tuple, ScalarLike]]
) -> Seeds:
    """The seeds (j + 2, w_j) of a prescribed Laplacian given by its terms
    ((powers, mask), c) on degree k - 2 of the ring one bosonic variable
    above `lower`: w_j is j! times its x_m^j slice, as a row on the lower
    basis of degree k - 2 - j."""
    index: dict[int, Mapping] = {}
    slices: dict[int, dict[int, ScalarLike]] = {}
    for (powers, f), c in terms:
        j = powers[-1]
        if j not in slices:
            index[j], slices[j] = basis_index(lower, k - 2 - j), {}
        slices[j][index[j][powers[:-1], f]] = c * factorial(j)
    return [(j + 2, slices[j]) for j in sorted(slices)]


def _slot_seeds(signature: SuperSignature, k: int, slot: str, row: Mapping[int, int]) -> Seeds:
    """The seeds of a row of `slot`'s data, on the basis of slot_ambient."""
    if slot != "laplacian":
        return [(SLOTS[slot][1], row)] if row else []
    basis = monomial_basis(signature, k - 2)
    return _laplacian_seeds(signature.restricted(), k, ((basis[t], c) for t, c in row.items()))


def _polynomial(
    signature: SuperSignature, lower: SuperSignature, slices: list[dict[int, ScalarLike]], den: int
) -> SuperPolynomial:
    """The polynomial of `signature` whose coefficient of x_m^j is
    slices[j] / den, each slice a row on the basis of degree k - j of the
    ring `lower` one bosonic variable down, k = len(slices) - 1."""
    k = len(slices) - 1
    terms: dict[SuperMonomial, ScalarLike] = {}
    for j, at in enumerate(slices):
        basis = monomial_basis(lower, k - j)
        for i, v in at.items():
            if v:
                powers, f = basis[i]
                terms[SuperMonomial(powers + (j,), f)] = _rational(v, den)
    return SuperPolynomial(signature, terms, _clean=True)


def slot_extension(
    signature: SuperSignature, k: int, slot: str
) -> Callable[[Mapping[int, int]], tuple[dict[int, int], dict[int, int], dict[int, int]]]:
    """CK extension in index space, as a function of one row at a time.

    A row is integer data of `slot` on the basis of slot_ambient; the
    triple with it in `slot` and zero in the other two is extended by
    _series.  The function returns k! times the extension, on the degree-k
    basis of `signature`, and k! times its boundary and normal data, its
    x_m^0 and x_m^1 slices, on the lower bases of degrees k and k - 1."""
    lower = signature.restricted()
    top = factorial(k)
    laps = _lower_laplacians(lower, k)
    exps, pos = _xm_split(signature, k)
    place = [array("i", [0]) * len(monomial_basis(lower, k - j)) for j in range(k + 1)]
    for t, (j, i) in enumerate(zip(exps, pos)):
        place[j][i] = t

    def extend(row):
        slices = _series(laps, _slot_seeds(signature, k, slot, row), top)
        ext = {place[j][i]: v for j, at in enumerate(slices) for i, v in at.items() if v}
        boundary = {i: v for i, v in slices[0].items() if v}
        normal = {i: v for i, v in slices[1].items() if v} if k else {}
        return ext, boundary, normal

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
    into a particular solution.  The parts are read as rows and extended by
    _series over the common denominator k!, then divided once per term."""
    k = data.degree
    lower = data.lower_signature
    top = factorial(k)
    seeds: Seeds = []
    for ell, part in ((0, data.boundary), (1, data.normal)):
        if part:
            index = basis_index(lower, k - ell)
            seeds.append((ell, {index[mono]: c for mono, c in part.terms.items()}))
    seeds += _laplacian_seeds(lower, k, data.laplacian)
    series = _series(_lower_laplacians(lower, k), seeds, top)
    return _polynomial(data.signature, lower, series, top)


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
