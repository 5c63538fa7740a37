"""Exact sparse arithmetic for polynomials in commuting and anticommuting
variables.

The ring is R[x1..xm] tensor Lambda(t1..t2n): m commuting variables x_j and
2n anticommuting variables t_j with t_i t_j = -t_j t_i, so t_j^2 = 0.
Coefficients are exact rationals: an int when the value is integral, a
Fraction only when it is not.  The constructor, x, t, constant and
parse_polynomial store an integral coefficient as an int, and arithmetic on
int coefficients stays in ints; arithmetic on Fractions may leave an
integral value as a Fraction.  An int and a Fraction of the same value are
equal, so polynomials compare by value whichever type holds a coefficient.
Division is exact: p / c multiplies by the Fraction 1/c.

A monomial stores a bosonic exponent vector together with a fermionic index
set kept as an integer bitmask; the ascending-index word is the canonical
form of the fermionic part, and every reordering sign is produced at
multiplication time from the merge parity of two ascending words.  The
canonical order on monomials is graded, then lexicographic on the exponent
vector, then the bitmask as an integer; bases, matrices and reports all use
this order.

Polynomials are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

ScalarLike = Union[int, Fraction]


@dataclass(frozen=True, order=True)
class SuperSignature:
    """Shape (m, n) of the ring: m commuting and 2n anticommuting variables."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError(f"signature needs m, n >= 0, got ({self.m}, {self.n})")
        # held beside the fields, not as fields: asdict and eq see (m, n) only
        object.__setattr__(self, "_hash", hash((self.m, self.n)))
        object.__setattr__(self, "_restricted", None)
        object.__setattr__(self, "_factors", None)

    def __hash__(self) -> int:
        """The hash of (m, n), computed once at construction: signatures key
        every basis and matrix cache."""
        return self._hash

    @property
    def M(self) -> int:
        """Superdimension m - 2n (derived, never stored separately)."""
        return self.m - 2 * self.n

    @property
    def fermionic_count(self) -> int:
        return 2 * self.n

    def restricted(self) -> "SuperSignature":
        """Signature of the hyperplane x_m = 0, made on the first call and
        held, so repeat calls return the same instance."""
        if self._restricted is None:
            if self.m == 0:
                raise ValueError("no bosonic variable left to restrict")
            object.__setattr__(self, "_restricted", SuperSignature(self.m - 1, self.n))
        return self._restricted

    def factors(self) -> tuple["SuperSignature", "SuperSignature"] | None:
        """The major and minor rings whose tensor product is this ring, or
        None for the rank-one rings (1|0) and (0|2) and for (0|0).  The
        major ring's part of a monomial is the leading key of the canonical
        order, and the minor ring's part varies within it: (m|0) (x) (0|2n)
        for a mixed ring (the exponent vector first); (1|0) (x) (m-1|0) for
        (m|0), x1 first, as exponent vectors sort lexicographically; and
        (0|2) (x) (0|2n-2) for (0|2n), the top pair t(2n-1), t(2n) first, as
        masks sort by value.  Made on the first call and held, as
        restricted() is, and the rank-one rings are one instance each, so
        the matrix caches that these rings key find them by identity."""
        if self._factors is None:
            m, n = self.m, self.n
            if m and n:
                shapes = (m, 0), (0, n)
            elif m > 1:
                shapes = (1, 0), (m - 1, 0)
            elif n > 1:
                shapes = (0, 1), (0, n - 1)
            else:
                shapes = ()
            factors = tuple(_RANK_ONE.get(shape) or SuperSignature(*shape) for shape in shapes)
            object.__setattr__(self, "_factors", factors)
        return self._factors or None

    def extended(self) -> "SuperSignature":
        """Signature with one extra bosonic variable appended."""
        return SuperSignature(self.m + 1, self.n)

    def __str__(self) -> str:
        return f"({self.m}|{2 * self.n})"


_RANK_ONE = {(1, 0): SuperSignature(1, 0), (0, 1): SuperSignature(0, 1)}


class SuperMonomial(NamedTuple):
    """Monomial x^powers * t_{i1}..t_{ik} with i1 < .. < ik the set bits.

    ``powers`` has one entry per bosonic variable; ``fermions`` has bit j-1
    set iff t_j is present.
    """

    powers: tuple[int, ...]
    fermions: int

    @property
    def degree(self) -> int:
        return sum(self.powers) + self.fermions.bit_count()

    @property
    def parity(self) -> int:
        return self.fermions.bit_count() & 1

    def fermionic_indices(self) -> tuple[int, ...]:
        """1-based indices of the anticommuting factors, ascending."""
        out = []
        f = self.fermions
        while f:
            low = f & -f
            out.append(low.bit_length())
            f ^= low
        return tuple(out)

    def sort_key(self) -> tuple[int, tuple[int, ...], int]:
        return (self.degree, self.powers, self.fermions)


def _merge_sign(a: int, b: int) -> int:
    """Sign of concatenating ascending fermionic words a and b, 0 on overlap."""
    if a & b:
        return 0
    swaps = 0
    while b:
        low = b & -b
        swaps += (a >> low.bit_length()).bit_count()
        b ^= low
    return -1 if swaps & 1 else 1


def _exact(c: ScalarLike) -> ScalarLike:
    """An exact rational as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"expected an exact rational coefficient, got {type(c).__name__}")


def _rational(num: ScalarLike, den: int) -> ScalarLike:
    """num / den for a positive int den, as an int when it is integral."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


class SuperPolynomial:
    """Sparse polynomial: a map from monomials to nonzero rational coefficients."""

    __slots__ = ("signature", "_terms")

    def __init__(
        self,
        signature: SuperSignature,
        terms: Mapping[SuperMonomial, ScalarLike] | Iterable[tuple[SuperMonomial, ScalarLike]] = (),
        *,
        _clean: bool = False,
    ) -> None:
        object.__setattr__(self, "signature", signature)
        if _clean:
            object.__setattr__(self, "_terms", terms)
            return
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[SuperMonomial, ScalarLike] = {}
        top = 1 << signature.fermionic_count
        for mono, c in items:
            if len(mono.powers) != signature.m:
                raise ValueError(f"monomial {mono} does not fit signature {signature}")
            if mono.fermions < 0 or mono.fermions >= top:
                raise ValueError(f"fermionic indices of {mono} exceed signature {signature}")
            if any(e < 0 for e in mono.powers):
                raise ValueError(f"negative exponent in {mono}")
            acc = _exact(data.get(mono, _ZERO) + _exact(c))
            if acc:
                data[mono] = acc
            else:
                data.pop(mono, None)
        object.__setattr__(self, "_terms", data)

    def __setattr__(self, name, value):  # pragma: no cover - guards immutability
        raise AttributeError("SuperPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, signature: SuperSignature) -> "SuperPolynomial":
        return cls(signature, {}, _clean=True)

    @classmethod
    def constant(cls, signature: SuperSignature, c: ScalarLike) -> "SuperPolynomial":
        c = _exact(c)
        mono = SuperMonomial((0,) * signature.m, 0)
        return cls(signature, {mono: c} if c else {}, _clean=True)

    @classmethod
    def one(cls, signature: SuperSignature) -> "SuperPolynomial":
        return cls.constant(signature, 1)

    @classmethod
    def x(cls, signature: SuperSignature, j: int) -> "SuperPolynomial":
        """The commuting variable x_j, 1-based."""
        if not 1 <= j <= signature.m:
            raise ValueError(f"x{j} not in signature {signature}")
        powers = tuple(1 if i == j - 1 else 0 for i in range(signature.m))
        return cls(signature, {SuperMonomial(powers, 0): 1}, _clean=True)

    @classmethod
    def t(cls, signature: SuperSignature, j: int) -> "SuperPolynomial":
        """The anticommuting variable t_j, 1-based."""
        if not 1 <= j <= signature.fermionic_count:
            raise ValueError(f"t{j} not in signature {signature}")
        mono = SuperMonomial((0,) * signature.m, 1 << (j - 1))
        return cls(signature, {mono: 1}, _clean=True)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[SuperMonomial, ScalarLike]:
        """Read-only view of the term map."""
        return MappingProxyType(self._terms)

    def coefficient(self, mono: SuperMonomial) -> ScalarLike:
        return self._terms.get(mono, _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int | None:
        """Top degree, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(mono.degree for mono in self._terms)

    def is_homogeneous(self, k: int | None = None) -> bool:
        degs = {mono.degree for mono in self._terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return k is None or degs == {k}

    def parity(self) -> int | None:
        """0 for even, 1 for odd, None for mixed or zero."""
        pars = {mono.parity for mono in self._terms}
        if len(pars) == 1:
            return pars.pop()
        return None

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[SuperMonomial, ScalarLike]]:
        return iter(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def _check_same_ring(self, other: "SuperPolynomial") -> None:
        if self.signature != other.signature:
            raise ValueError(f"mixed signatures {self.signature} and {other.signature}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.signature == other.signature and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        self._check_same_ring(other)
        data = dict(self._terms)
        for mono, c in other._terms.items():
            acc = data.get(mono, _ZERO) + c
            if acc:
                data[mono] = acc
            else:
                del data[mono]
        return SuperPolynomial(self.signature, data, _clean=True)

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        self._check_same_ring(other)
        data = dict(self._terms)
        for mono, c in other._terms.items():
            acc = data.get(mono, _ZERO) - c
            if acc:
                data[mono] = acc
            else:
                del data[mono]
        return SuperPolynomial(self.signature, data, _clean=True)

    def __neg__(self) -> "SuperPolynomial":
        return SuperPolynomial(
            self.signature, {mono: -c for mono, c in self._terms.items()}, _clean=True
        )

    def _scaled(self, c: ScalarLike) -> "SuperPolynomial":
        if not c:
            return SuperPolynomial.zero(self.signature)
        return SuperPolynomial(
            self.signature, {mono: c * v for mono, v in self._terms.items()}, _clean=True
        )

    def __mul__(self, other: "SuperPolynomial | ScalarLike") -> "SuperPolynomial":
        if isinstance(other, (int, Fraction)):
            return self._scaled(_exact(other))
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        self._check_same_ring(other)
        data: dict[SuperMonomial, ScalarLike] = {}
        for ma, ca in self._terms.items():
            pa, fa = ma.powers, ma.fermions
            for mb, cb in other._terms.items():
                sign = _merge_sign(fa, mb.fermions)
                if sign == 0:
                    continue
                key = SuperMonomial(
                    tuple(u + v for u, v in zip(pa, mb.powers)), fa | mb.fermions
                )
                c = ca * cb if sign > 0 else -ca * cb
                acc = data.get(key, _ZERO) + c
                if acc:
                    data[key] = acc
                else:
                    del data[key]
        return SuperPolynomial(self.signature, data, _clean=True)

    def __rmul__(self, other: ScalarLike) -> "SuperPolynomial":
        if isinstance(other, (int, Fraction)):
            return self._scaled(_exact(other))
        return NotImplemented

    def __truediv__(self, other: ScalarLike) -> "SuperPolynomial":
        if isinstance(other, (int, Fraction)):
            return self._scaled(_exact(Fraction(1, other)))
        return NotImplemented

    def __pow__(self, e: int) -> "SuperPolynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError("only nonnegative integer powers")
        acc = SuperPolynomial.one(self.signature)
        for _ in range(e):
            acc = acc * self
        return acc

    def __repr__(self) -> str:
        return f"SuperPolynomial({self.signature}, {format_polynomial(self)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


_ZERO = 0


# -- derivatives -------------------------------------------------------------


def d_bosonic(p: SuperPolynomial, j: int) -> SuperPolynomial:
    """Partial derivative with respect to x_j, 1-based."""
    if not 1 <= j <= p.signature.m:
        raise ValueError(f"x{j} not in signature {p.signature}")
    i = j - 1
    data: dict[SuperMonomial, ScalarLike] = {}
    for mono, c in p._terms.items():
        e = mono.powers[i]
        if e == 0:
            continue
        powers = mono.powers[:i] + (e - 1,) + mono.powers[i + 1 :]
        data[SuperMonomial(powers, mono.fermions)] = c * e
    return SuperPolynomial(p.signature, data, _clean=True)


def d_fermionic(p: SuperPolynomial, j: int) -> SuperPolynomial:
    """Left derivative with respect to t_j: the sign is (-1)^(number of
    present indices smaller than j)."""
    if not 1 <= j <= p.signature.fermionic_count:
        raise ValueError(f"t{j} not in signature {p.signature}")
    bit = 1 << (j - 1)
    below = bit - 1
    data: dict[SuperMonomial, ScalarLike] = {}
    for mono, c in p._terms.items():
        f = mono.fermions
        if not f & bit:
            continue
        if (f & below).bit_count() & 1:
            c = -c
        data[SuperMonomial(mono.powers, f ^ bit)] = c
    return SuperPolynomial(p.signature, data, _clean=True)


def _exponent_vectors(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _exponent_vectors(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def monomial_basis(signature: SuperSignature, k: int) -> tuple[SuperMonomial, ...]:
    """All monomials of total degree k, in canonical order."""
    if k < 0:
        return ()
    out: list[SuperMonomial] = []
    twon = signature.fermionic_count
    for fcount in range(min(twon, k) + 1):
        bos = k - fcount
        if signature.m == 0 and bos > 0:
            continue
        masks = [
            sum(1 << (i - 1) for i in idxs)
            for idxs in combinations(range(1, twon + 1), fcount)
        ]
        for powers in _exponent_vectors(bos, signature.m):
            for mask in masks:
                out.append(SuperMonomial(powers, mask))
    # one degree: the tuple order (powers, fermions) is the canonical order
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def basis_index(signature: SuperSignature, k: int) -> Mapping[SuperMonomial, int]:
    """Position of each degree-k monomial in the canonical basis."""
    return MappingProxyType(
        {mono: i for i, mono in enumerate(monomial_basis(signature, k))}
    )


def space_dimension(signature: SuperSignature, k: int) -> int:
    """dim P_k = sum_f C(2n, f) C(k - f + m - 1, m - 1), counted without
    listing monomials; at m = 0 only f = k contributes, and at n = 0 only
    f = 0."""
    if k < 0:
        return 0
    m, twon = signature.m, signature.fermionic_count
    if m == 0:
        return math.comb(twon, k)
    if twon == 0:
        return math.comb(k + m - 1, m - 1)
    return sum(
        math.comb(twon, f) * math.comb(k - f + m - 1, m - 1) for f in range(min(twon, k) + 1)
    )


def restrict_hyperplane(p: SuperPolynomial) -> SuperPolynomial:
    """Substitute x_m = 0; the result lives one bosonic variable down."""
    sig = p.signature.restricted()
    data = {
        SuperMonomial(mono.powers[:-1], mono.fermions): c
        for mono, c in p._terms.items()
        if mono.powers[-1] == 0
    }
    return SuperPolynomial(sig, data, _clean=True)


def extend_signature(p: SuperPolynomial, signature: SuperSignature) -> SuperPolynomial:
    """Include a polynomial into a larger signature, keeping variable names."""
    if signature.m < p.signature.m or signature.n < p.signature.n:
        raise ValueError(f"cannot shrink {p.signature} to {signature}")
    pad = (0,) * (signature.m - p.signature.m)
    data = {
        SuperMonomial(mono.powers + pad, mono.fermions): c for mono, c in p._terms.items()
    }
    return SuperPolynomial(signature, data, _clean=True)


def xm_coefficients(p: SuperPolynomial, k: int | None = None) -> tuple[SuperPolynomial, ...]:
    """Slices of a homogeneous p along powers of x_m.

    Returns (q_k, q_{k-1}, .., q_0) with p = sum_j x_m^j / j! * q_{k-j};
    entry j of the tuple is q_{k-j} = j! * (coefficient of x_m^j), a
    polynomial in the restricted signature, homogeneous of degree k - j.
    """
    sig = p.signature.restricted()
    if k is None:
        k = p.degree()
        if k is None:
            raise ValueError("degree of the zero polynomial must be given explicitly")
    if not p.is_homogeneous(k):
        raise ValueError(f"polynomial is not homogeneous of degree {k}")
    buckets: list[dict[SuperMonomial, ScalarLike]] = [{} for _ in range(k + 1)]
    for mono, c in p._terms.items():
        j = mono.powers[-1]
        buckets[j][SuperMonomial(mono.powers[:-1], mono.fermions)] = c
    return tuple(
        SuperPolynomial(
            sig,
            {mono: c * math.factorial(j) for mono, c in buckets[j].items()},
            _clean=True,
        )
        for j in range(k + 1)
    )


# -- text form --------------------------------------------------------------
#
# poly   := term (('+'|'-') term)*
# term   := rational ['*' factor+] | factor+
# factor := 'x'INT['^'INT] | 't'INT
# rational := INT['/'INT]

_RATIONAL_RE = re.compile(r"^(\d+)(?:/(\d+))?$")
_XFACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_TFACTOR_RE = re.compile(r"^t(\d+)$")


def _split_signed_terms(text: str) -> list[tuple[int, str]]:
    chunks: list[tuple[int, str]] = []
    sign = 1
    buf: list[str] = []
    started = False
    for ch in text:
        if ch in "+-":
            if started and buf and "".join(buf).strip():
                chunks.append((sign, "".join(buf).strip()))
                buf = []
            elif started:
                raise ValueError("empty term in polynomial text")
            sign = 1 if ch == "+" else -1
            started = True
        else:
            buf.append(ch)
            if ch.strip():
                started = True
    tail = "".join(buf).strip()
    if not tail:
        raise ValueError("empty term in polynomial text")
    chunks.append((sign, tail))
    return chunks


def parse_polynomial(text: str, signature: SuperSignature) -> SuperPolynomial:
    """Parse the plain text grammar, e.g. '3/2*x1^2 x3 t1 t4 - t2 t3'."""
    if not text.strip():
        raise ValueError("empty polynomial text")
    terms: list[tuple[SuperMonomial, ScalarLike]] = []
    for sign, chunk in _split_signed_terms(text.strip()):
        tokens = [tok for piece in chunk.split() for tok in piece.split("*") if tok]
        coeff: ScalarLike = sign
        powers = [0] * signature.m
        fermions = 0
        for pos, tok in enumerate(tokens):
            mrat = _RATIONAL_RE.match(tok)
            if mrat:
                if pos != 0:
                    raise ValueError(f"rational {tok!r} must lead its term")
                num, den = mrat.groups()
                if den is not None and int(den) == 0:
                    raise ValueError(f"zero denominator in {tok!r}")
                coeff *= _rational(int(num), int(den) if den else 1)
                continue
            mx = _XFACTOR_RE.match(tok)
            if mx:
                j = int(mx.group(1))
                if not 1 <= j <= signature.m:
                    raise ValueError(f"x{j} not in signature {signature}")
                powers[j - 1] += int(mx.group(2)) if mx.group(2) else 1
                continue
            mt = _TFACTOR_RE.match(tok)
            if mt:
                j = int(mt.group(1))
                if not 1 <= j <= signature.fermionic_count:
                    raise ValueError(f"t{j} not in signature {signature}")
                bit = 1 << (j - 1)
                s = _merge_sign(fermions, bit)
                if s == 0:
                    coeff = 0
                    break
                if s < 0:
                    coeff = -coeff
                fermions |= bit
                continue
            raise ValueError(f"unrecognized token {tok!r} in polynomial text")
        terms.append((SuperMonomial(tuple(powers), fermions), coeff))
    return SuperPolynomial(signature, terms)


def _format_monomial(mono: SuperMonomial) -> str:
    parts = []
    for i, e in enumerate(mono.powers):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e >= 2:
            parts.append(f"x{i + 1}^{e}")
    parts.extend(f"t{j}" for j in mono.fermionic_indices())
    return " ".join(parts)


def format_polynomial(p: SuperPolynomial) -> str:
    """Deterministic text form: terms in descending canonical order, fermionic
    factors ascending, signs folded into the rational."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    ordered = sorted(p._terms.items(), key=lambda kv: kv[0].sort_key(), reverse=True)
    for i, (mono, c) in enumerate(ordered):
        neg = c < 0
        mag = -c if neg else c
        body = _format_monomial(mono)
        if not body:
            frag = str(mag)
        elif mag == 1:
            frag = body
        else:
            frag = f"{mag}*{body}"
        if i == 0:
            pieces.append(("-" if neg else "") + frag)
        else:
            pieces.append(("- " if neg else "+ ") + frag)
    return " ".join(pieces)
