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

H_k and the defect kernel below are exact kernels of exact matrices, and
Ht_k is the kernel of L_k reduced modulo the defect kernel (below); for
m >= 1 the Fischer decomposition and Theorem A count these dimensions
instead (see the end of the certificate), and the one kernel they take is
Theorem A's mirror harmonics, on a degree at most -M/2.

The ring is the tensor product P(m|0) (x) Lambda(2n) of its two factor
rings, the bosonic ring (m|0) and the Grassmann algebra (0|2n), and lap and
r2 are sums of even operators that act on one factor each.  The matrices
are built on the factor rings, and those of a mixed ring are assembled from
them.  On a factor ring the matrix L_k of the Laplacian is the one matrix
built from polynomials: operators.laplacian images each basis monomial
once, once per (signature, degree), and the matrix is cached.  On a mixed
ring, lap has no mixed bosonic-fermionic term and x^a is even, so

    lap(x^a t_F) = lap(x^a) t_F + x^a lap(t_F),

and column x^a t_F of L_k takes column x^a of the bosonic L_|a| with t_F
kept and column t_F of the fermionic L_|F| with x^a kept.  A term x^a' goes
to the row of x^a' t_F and a term t_F' to the row of x^a t_F'; the two row
sets are disjoint, as F' != F.  r2 = r2_b + r2_f splits in the same way.
One column rule, _column_rule, states this for both operators on the
columns the factor matrices hold (exactla.columns).  The degree-d basis
lists each bosonic part x^a times the masks of degree d - |a| in ascending
order, so x^a t_G sits at the first index of x^a plus the position of G
among those masks; the first indices are counted from the bosonic bases
(_parts), and no mixed basis is listed.  The rule has two readers.
_assemble maps it over every column, transposes nothing, and writes the
mixed L_k or R_d straight into compressed columns (IntMatrix.from_columns):
a mixed matrix never holds a row.  _apply_rows applies it to the columns in
the support of a few rows only, unranking each index by bisecting the first
indices, and builds no mixed matrix; on a factor ring it is apply_columns on
the cached matrix.  The factor matrices are row-built, since the certificate
below reads them by rows and names a failing row.  So a mixed ring makes no
polynomial, and a wrong factor entry reaches every mixed matrix and every
row read through the rule, while the certificate runs on the factor
matrices themselves.  Each operator has one cached IntMatrix per
(signature, degree), and every reader of a column reads the columns that
matrix holds; the readers that eliminate (kernel, the product of the
defect kernel, the preimage of Ht) derive the rows of a mixed matrix for
the one call and drop them.  exactla.operator_matrix, which images every
monomial whole, stays the tests' reference for L_k and R_d.

On a factor ring the matrix R_d of multiplication by r2 is read off
L_(d+2): under the Fischer weights w(x^a t_F) = a! (-4)^p(F), p(F) the
number of whole pairs in F, r2 is the adjoint of lap, so
R_d[t, s] w(t) = L_(d+2)[s, t] w(s).  Every ratio w(t)/w(s) on the support,
(a_i+2)(a_i+1) for t = x_i^2 s or -4 for a pair added, is nonzero, so the
supports agree, and the entry is +1 where the two fermion masks agree and
-1 where a pair was added.  rsquare_matrix turns each nonzero entry of row
s of L_(d+2), at column t, into that +-1 at row t, column s of R_d.  All
entries are ints, and so are those of the product lap r2 (the defect
kernel) and of L_k reduced modulo its kernel (Ht): from the monomial maps
to the canonical integer rows of a Subspace no Fraction is made.

The direct sum is proved from the sl(2) structure, with no rank.
[lap, r2] = 4E + 2M (module operators) is, on P_d, the matrix identity

    (a)  L_(d+2) R_d - R_(d-2) L_d = (4d + 2M) I      (no second term for d < 2).

Applied j times it gives lap r^(2j) u = r^(2j) lap u + c r^(2j-2) u for u in
P_l, with c = 2j (2l + 2j + M - 2).  So r2 lap acts on r^(k-l) H_l as

    c_l = (k - l)(k + l + M - 2) = q(k) - q(l),   q(d) = (d + M/2)(d + M/2 - 2),

and since lap r2 lap u = 0 on Ht_l, (r2 lap - c_l)^2 = 0 on r^(k-l) Ht_l.
q(l) = q(l') exactly when l' = 2 - M - l, the mirror that the index sets
suppress.  Components in distinct generalised eigenspaces of r2 lap are
independent.  Each lifted component must also keep the dimension of its
start space.  For m >= 1, r2 is injective:

    (b)  each column s of R_d has a 1 at x1^2 s, and every other entry has a
         smaller x1 exponent,

so among the columns of a vanishing combination, those of the highest x1
exponent have leads no other entry reaches, and their coefficients are 0.
At m = 0, r2 is nilpotent and (b) is false, but every component is a plain
r^(2j) H_l, and (a) gives lap^j r^(2j) u = c_1 .. c_j u for u in H_l, with
c_i = 2i (2l + 2i + M - 2).  A nonzero product proves that lift injective;
a vanishing c_i is the witness.

For m >= 1, (a) and (b) are checked on the factor rings, not on P_d.  On
P_(d_b) (x) Lambda^(d_f), [lap, r2] = [lap_b, r2_b] (x) 1 + 1 (x) [lap_f, r2_f]:
the cross terms vanish, as even operators on different factors commute.
The two parts are (4 d_b + 2m) + (4 d_f - 4n) = 4d + 2M, so (a) on P_d
follows from (a) on the bosonic ring at d_b and on Lambda(2n) at d_f, and
every d <= k - 2 is a sum d_b + d_f with d_b <= k - 2 and
d_f <= min(k - 2, 2n).  Column x^a t_F of R_d is column x^a of the bosonic
R_|a| with t_F kept, plus fermionic terms x^a t_F' that keep the x1
exponent of x^a.  So (b) on P_d follows from (b) on the bosonic ring at
|a| <= d.  So the certificate builds no matrix of a mixed ring, and for
m >= 1 a Fischer decomposition builds none at all.

fischer_decomposition checks, in this order: (c) every component lies in
P_k and the values c_l are distinct over the plan's starts, and at m = 0
each component is an H_l with c_1 .. c_j != 0; (d) the start dimensions
sum to dim P_k; then, for m >= 1, (c) and (d) on P_(l-2) at each
exceptional start l (below), (b) on the bosonic ring at every
d_b = 0..k - 2, (a) there at the same degrees and (a) on Lambda(2n) at
every d_f = 0..min(k - 2, 2n); at m = 0, (a) on P_d at
d = k - 2, k - 4, .. >= 0.  Together they prove the sum direct and equal to
P_k.  A failed report's witness names the first check that failed: the
component out of degree or the repeated eigenvalue and its two starts, the
component whose lift is not injective, the dimension sum, the degree and
column of the lead, or the degree and row of the identity, prefixed by
"bosonic" or "fermionic" when it is a factor ring's, and by the degree
l - 2 and its start l when it is a lower plan's.

For m >= 1 the start dimensions that (d) sums take no kernel on P_l, and
dim P_l is counted in closed form (superpoly.space_dimension).  R_(l-2) and
L_l are assembled from factor matrices whose supports agree, so the
transpose of R_(l-2) and L_l have the same support.  (b) at l - 2 then makes
the minor of L_l on the columns {x1^2 s : s in P_(l-2)} triangular in the
x1 exponent, with a nonzero diagonal, so L_l is onto P_(l-2) and
dim H_l = dim P_l - dim P_(l-2).  Ht_l = L_l^-1(ker L_l R_(l-2)), so, L_l
being onto, Ht_l adds the defect kernel: dim Ht_l = dim H_l + dim D_(l-2),
D the defect kernel below, and dim D is counted too.  The decomposition of
P_(l-2) splits it into blocks r^(2j) (H or Ht)_s with s + 2j = l - 2.  By
(a), L_l R_(l-2) acts on r^(2j) H_s as the scalar 2(j+1)(2s + 2j + M), and
on r^(2j) Ht_s as that scalar plus a nilpotent part, since r2 lap g lies in
the socle, inside H_s, for g in Ht_s.  r2 is injective by (b), so a block
has a kernel only where its scalar vanishes, and the kernel is then
r^(2j) H_s.  2s + 2j + M = s + l - 2 + M vanishes only at the mirror
s = 2 - M - l.  That s is a start of P_(l-2), and an ordinary one (an
exceptional s has 2s + M >= 4), exactly when l is an exceptional start:
0 <= s <= l - 2 with s = l mod 2 is the window at even M.  So
dim D_(l-2) = dim H_s = dim P_s - dim P_(s-2) at an exceptional l, and 0 at
every other l, odd M included (_counted_defect_dim).  The count rests on
(b) at every degree up to l - 2 and on the decomposition of P_(l-2), by
induction on degree.  The certificate proves (b) on every P_d with
d <= k - 2, which covers l - 2 for every start l >= 2 (below,
P_(l-2) = 0), and runs the (c) and (d) of P_(l-2) at each exceptional start
l, closed forms in M and l - 2 that read no matrix.  The exceptional starts
of P_(l-2) are exceptional starts of P_k too, so the induction closes
within the report: a report that verifies has proved the dimensions it
summed, with no further check.  A wrong count fails (d), a wrong plan
below an exceptional start fails that plan's (c) or (d), and a missing lead
fails (b), even where it shrinks a defect kernel, which the report does
not read.  At m = 0 (b) is false, and the starts keep their kernels.

The socle is r2 times the defect kernel two degrees down: an element of
r2 P_(k-2) is r2 W, and it is harmonic iff lap(r2 W) = 0, so
H0_k = r2 ker(L_k R_(k-2)).  This holds for every m, also at m = 0 where r2
is not injective, and needs no intersection: the kernel is taken on the
dim P_(k-2) columns of L_k R_(k-2), not on a stack of 2 dim P_k columns.
defect_kernel is cached beside the spaces, and branching's
prescribed-Laplacian slot takes the same kernel; the socle itself is not
cached, as each verification reads it once per degree.  For m >= 1,
verify_theorem_A takes neither: it lifts the mirror H_(2-M-k) to k, and
L_k on each lifted row proves the mirror lifted to k - 2 lies in D.  As
many rows as the counted dim D, independent by (b), make it all of D, so
the socle is the lifted mirror at k.  The lift and L_k both run through
_apply_rows, so the one mixed matrix Theorem A assembles is the mirror's
own L, for its kernel.

Ht_k is a preimage in the same way: lap r2 lap p = 0 iff L_k p lies in
D = ker(L_k R_(k-2)), so Ht_k = L_k^-1(D), for every m, and D is the defect
kernel that the socle and the start dimensions already take.  Let d_i be
the canonical rows of D, with pivots p_i; each is zero at every other
pivot.  Then q lies in D iff q - sum_i (q[p_i] / d_i[p_i]) d_i = 0, and row j
of that map composed with L_k is L_j - sum_i (d_i[j] / d_i[p_i]) L_(p_i),
which vanishes at the pivots.  So Ht_k is the kernel of L_k with its rows so
reduced, scaled to integers, and the pivot rows dropped: dim P_(k-2) - dim D
rows that keep the sparsity of L_k, where the product L_k R_(k-2) L_k has
dim P_(k-2) denser ones.  kernel returns canonical rows, so the Subspace is
the one the product would give.

Subspaces are lifted in coordinates: rsquare_lift_rows(space, k) maps all
the canonical integer rows of a Subspace through _apply_rows with r2, one
degree step at a time, from the space's degree up to k, so a mixed ring
builds no R_d for them.  The socle, the m = 0 plan agreement and
lifted_mirror (the mirror harmonics H_(2-M-k), lifted to Theorem A's socle
at degree k and to branching's admissible Laplacian parts at k - 2) work on
those rows with no polynomial in between.  rsquare_lift_row lifts one row
through the held columns of the cached R_d (exactla.apply_columns); the GT
descent and its step check (module gtbasis) lift the rows of their many
lower basis elements with it, each R_d assembled once for all of them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import comb, lcm
from typing import Callable, Iterable, Mapping

from .exactla import (
    IntMatrix,
    Subspace,
    apply_columns,
    columns,
    kernel,
    matmul,
)
from .operators import laplacian
from .superpoly import (
    SuperMonomial,
    SuperPolynomial,
    SuperSignature,
    basis_index,
    monomial_basis,
    space_dimension,
)


def exceptional_indices(M: int) -> frozenset[int]:
    """Degrees where generalized and ordinary harmonics differ; empty unless
    M is a nonpositive even integer (M = 0 included)."""
    if M > 0 or M % 2 != 0:
        return frozenset()
    return frozenset(range(2 - M // 2, 2 - M + 1))


def _factor_rings(signature: SuperSignature) -> tuple[SuperSignature, SuperSignature]:
    """The bosonic ring (m|0) and the Grassmann algebra (0|2n) whose tensor
    product is the ring of `signature`."""
    return SuperSignature(signature.m, 0), SuperSignature(0, signature.n)


def _parts(signature: SuperSignature, d: int) -> list[tuple[int, tuple[int, ...], int, int]]:
    """The bosonic parts x^a of the degree-d basis of a mixed ring, in
    canonical order, as (first, a, |a|, position of x^a in the bosonic basis
    of degree |a|).  The basis lists x^a times each of the C(2n, d - |a|)
    masks of the remaining degree in ascending order, the order of the
    fermionic ring's basis of that degree, so x^a t_G sits at first plus the
    position of G there.  first is counted; the mixed basis is not listed."""
    bosonic_ring = SuperSignature(signature.m, 0)
    twon = signature.fermionic_count
    parts = sorted(
        (powers, e, s)
        for e in range(max(0, d - twon), d + 1)
        for s, (powers, _) in enumerate(monomial_basis(bosonic_ring, e))
    )
    placed, first = [], 0
    for powers, e, s in parts:
        placed.append((first, powers, e, s))
        first += comb(twon, d - e)
    return placed


def _column_rule(signature: SuperSignature, k: int, shift: int, factor_matrix):
    """The columns of A = A_b (x) 1 + 1 (x) A_f from P_k to P_(k+shift) of a
    mixed signature (module docstring):

        A(x^a t_F) = A_b(x^a) t_F + x^a A_f(t_F).

    factor_matrix(ring, d) is the matrix of A_b or A_f on degree d of a
    factor ring; the columns it holds are read, each factor matrix once per
    rule.  The rule maps a part (a, |a|, s) of P_k, as _parts lists it, to
    the function from the position of F to column x^a t_F, as
    (rows, entries).  A term x^a' t_G lands at the first index of x^a' in
    P_(k+shift) plus the position of G, so the rows come sorted from the
    factor columns: the bosonic terms below x^a, then the fermionic terms,
    then those above."""
    bosonic_ring, fermionic_ring = _factor_rings(signature)
    first = {powers: f for f, powers, _, _ in _parts(signature, k + shift)}
    bosonic: dict[int, tuple] = {}  # |a| -> columns of A_b, and its image basis
    fermionic: dict[int, list] = {}  # |F| -> columns of A_f, as lists

    def part(powers: tuple[int, ...], e: int, s: int):
        if e not in bosonic:
            image = monomial_basis(bosonic_ring, e + shift)
            bosonic[e] = columns(factor_matrix(bosonic_ring, e)), image
        (starts, rows, entries), image = bosonic[e]
        low, low_entries, high, high_entries = [], [], [], []
        for x in range(starts[s], starts[s + 1]):
            a = image[rows[x]].powers
            if a < powers:
                low.append(first[a])
                low_entries.append(entries[x])
            else:
                high.append(first[a])
                high_entries.append(entries[x])
        if k - e not in fermionic:
            starts, rows, entries = columns(factor_matrix(fermionic_ring, k - e))
            spans = [slice(starts[g], starts[g + 1]) for g in range(len(starts) - 1)]
            fermionic[k - e] = [(rows[x].tolist(), entries[x].tolist()) for x in spans]
        images = fermionic[k - e]
        base = first.get(powers)  # held if x^a A_f(t_F) has a term

        def column(position: int) -> tuple[list[int], list[int]]:
            image, image_entries = images[position]
            targets = [t + position for t in low]
            if image:
                targets += [base + g for g in image]
            targets += [t + position for t in high]
            return targets, low_entries + image_entries + high_entries

        return column

    return part


def _assemble(signature: SuperSignature, k: int, shift: int, factor_matrix) -> IntMatrix:
    """The matrix from P_k to P_(k+shift) of a mixed signature: the column
    rule mapped over every column, written straight into compressed
    columns, with no row held."""
    rule = _column_rule(signature, k, shift, factor_matrix)
    twon = signature.fermionic_count

    def every_column():
        for _, powers, e, s in _parts(signature, k):
            column = rule(powers, e, s)
            for position in range(comb(twon, k - e)):
                yield column(position)

    return IntMatrix.from_columns(space_dimension(signature, k + shift), every_column())


def _apply_rows(
    signature: SuperSignature,
    d: int,
    shift: int,
    factor_matrix,
    rows: Iterable[Mapping[int, int]],
) -> list[dict[int, int]]:
    """A applied to each integer row on the basis of P_d, for the operator
    A from P_d to P_(d+shift) whose factor matrices factor_matrix gives, as
    for _assemble.  On a mixed ring the column rule runs on the columns in
    the rows' support only, each index unranked by bisecting the parts'
    first indices, and no matrix of the ring is built; on a factor ring it
    is apply_columns on the cached matrix."""
    if not (signature.m and signature.n):
        A = factor_matrix(signature, d)
        return [apply_columns(A, row) for row in rows]
    parts = _parts(signature, d)
    firsts = [placed[0] for placed in parts]
    rule = _column_rule(signature, d, shift, factor_matrix)
    read: dict[int, Callable] = {}  # part -> its columns
    out = []
    for row in rows:
        acc: dict[int, int] = {}
        for i, v in row.items():
            j = bisect_right(firsts, i) - 1
            if j not in read:
                _, powers, e, s = parts[j]
                read[j] = rule(powers, e, s)
            targets, entries = read[j](i - firsts[j])
            for t, c in zip(targets, entries):
                acc[t] = acc.get(t, 0) + v * c
        out.append({t: c for t, c in acc.items() if c})
    return out


@lru_cache(maxsize=None)
def laplacian_matrix(signature: SuperSignature, k: int) -> IntMatrix:
    """Matrix of the Laplacian from P_k to P_(k-2).  On a factor ring (m = 0
    or n = 0) each basis monomial is imaged once by operators.laplacian; on
    a mixed ring it is assembled from the factor rings' matrices (module
    docstring)."""
    if signature.m and signature.n:
        return _assemble(signature, k, -2, laplacian_matrix)
    source = monomial_basis(signature, k)
    tidx = basis_index(signature, k - 2)
    data: list[dict[int, int]] = [{} for _ in tidx]
    for j, mono in enumerate(source):
        for target, c in laplacian(SuperPolynomial(signature, {mono: 1}, _clean=True)):
            data[tidx[target]][j] = c
    return IntMatrix(len(source), data)


@lru_cache(maxsize=None)
def rsquare_matrix(signature: SuperSignature, degree: int) -> IntMatrix:
    """Matrix of multiplication by r2 from P_degree to P_(degree+2): read
    off L_(degree+2) on a factor ring, assembled on a mixed ring (module
    docstring)."""
    if signature.m and signature.n:
        return _assemble(signature, degree, 2, rsquare_matrix)
    source = monomial_basis(signature, degree)
    target = monomial_basis(signature, degree + 2)
    data: list[dict[int, int]] = [{} for _ in target]
    lap_rows = laplacian_matrix(signature, degree + 2).row_dicts()
    for s, (mono, row) in enumerate(zip(source, lap_rows)):
        for t in row:
            data[t][s] = 1 if target[t].fermions == mono.fermions else -1
    return IntMatrix(len(source), data)


def rsquare_lift_rows(space: Subspace, k: int) -> list[dict[int, int]]:
    """The rows of a Subspace multiplied by the power of r2 that takes its
    degree to k, as integer rows in the degree-k basis, lifted together one
    degree step at a time by _apply_rows: on a mixed ring through the
    factor columns, with no mixed R_d built.  At the space's own degree
    they are its own rows, not copies; a k below that degree or of the
    other parity raises ValueError."""
    signature, degree = space.ambient
    if k < degree or (k - degree) % 2:
        raise ValueError(f"no power of r2 lifts degree {degree} to {k}")
    rows = list(space.rows)
    for d in range(degree, k, 2):
        rows = _apply_rows(signature, d, 2, rsquare_matrix, rows)
    return rows


def rsquare_lift_row(
    signature: SuperSignature, degree: int, row: Mapping[int, int], k: int
) -> Mapping[int, int]:
    """A row on the basis of P_degree multiplied by r^(k - degree), through
    the held columns of R_d one degree step at a time; the row itself at
    k = degree.  The caller keeps k - degree even and nonnegative."""
    for d in range(degree, k, 2):
        if not row:
            break
        row = apply_columns(rsquare_matrix(signature, d), row)
    return row


@lru_cache(maxsize=None)
def harmonic_space(signature: SuperSignature, k: int) -> Subspace:
    """H_k: degree-k kernel of the Laplace operator."""
    if k < 0:
        return Subspace.zero(0, (signature, k))
    return kernel(laplacian_matrix(signature, k), (signature, k))


@lru_cache(maxsize=None)
def generalized_harmonic_space(signature: SuperSignature, k: int) -> Subspace:
    """Ht_k: degree-k kernel of lap r2 lap, taken as the preimage under L_k
    of the defect kernel D two degrees down (module docstring): the kernel
    of L_k with its rows reduced modulo the canonical rows of D.  Row j
    becomes L_j - sum_i (d_i[j] / d_i[p_i]) L_(p_i), scaled to integers,
    over the rows d_i of D with pivots p_i; the pivot rows reduce to 0 and
    are dropped.  With D = 0 the matrix is L_k itself, and H_k is returned.
    The rows of a mixed L_k are derived from its columns for this call.
    """
    defect = defect_kernel(signature, k - 2)
    if not defect.rows:
        return harmonic_space(signature, k)
    lap = laplacian_matrix(signature, k)
    rows = lap.row_dicts()
    pivots = {min(d): d for d in defect.rows}
    held: dict[int, list[tuple[int, int, int]]] = {}  # j -> [(p_i, d_i[j], d_i[p_i])]
    for p, d in pivots.items():
        for j, c in d.items():
            if j != p:
                held.setdefault(j, []).append((p, c, d[p]))
    reduced = []
    for j, row in enumerate(rows):
        terms = held.get(j)
        if terms is None:
            if j not in pivots:
                reduced.append(row)
        else:
            scale = lcm(*(dp for _, _, dp in terms))
            acc = {col: scale * v for col, v in row.items()}
            for p, c, dp in terms:
                f = c * (scale // dp)
                for col, v in rows[p].items():
                    acc[col] = acc.get(col, 0) - f * v
            reduced.append({col: v for col, v in acc.items() if v})
    return kernel(IntMatrix(lap.cols, reduced), (signature, k))


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


def socle_space(signature: SuperSignature, k: int) -> Subspace:
    """H0_k: harmonics that are also multiples of r2, the r2-image of the
    defect kernel two degrees down."""
    cols = space_dimension(signature, k)
    if k < 2:
        return Subspace.zero(cols, (signature, k))
    return Subspace.from_rows(
        cols, rsquare_lift_rows(defect_kernel(signature, k - 2), k), (signature, k)
    )


def lifted_mirror(signature: SuperSignature, k: int, degree: int) -> Subspace:
    """The mirror harmonics H_(2-M-k) of an exceptional degree k, lifted by
    r2 to `degree`: the socle of H_k at degree k, and the admissible
    prescribed-Laplacian parts of Ht_k at degree k - 2."""
    mirror = harmonic_space(signature, 2 - signature.M - k)
    return Subspace.from_rows(
        space_dimension(signature, degree),
        rsquare_lift_rows(mirror, degree),
        (signature, degree),
    )


@dataclass(frozen=True)
class IndexSets:
    """Degrees sorted into component roles at one superdimension M.

    degrees: the Fischer starts k, k-2, .. or branching's lower degrees
    0..k; exceptional: those whose component is the generalized space;
    suppressed: their mirrors 2 - M - l, which carry no component;
    ordinary: the rest.
    """

    k: int
    degrees: tuple[int, ...]
    exceptional: tuple[int, ...]
    suppressed: tuple[int, ...]
    ordinary: tuple[int, ...]


def _index_sets(M: int, k: int, degrees: range) -> IndexSets:
    """The exceptional-window rule at superdimension M, applied to degrees."""
    exc = exceptional_indices(M)
    exceptional = tuple(l for l in degrees if l in exc)
    mirrors = {2 - M - l for l in exceptional}
    suppressed = tuple(l for l in degrees if l in mirrors)
    ordinary = tuple(l for l in degrees if l not in exc and l not in mirrors)
    return IndexSets(k, tuple(degrees), exceptional, suppressed, ordinary)


def fischer_index_sets(signature: SuperSignature, k: int) -> IndexSets:
    """Start degrees k, k-2, .. >= 0 of the degree-k Fischer decomposition."""
    return _index_sets(signature.M, k, range(k, -1, -2))


def branching_index_sets(signature: SuperSignature, k: int) -> IndexSets:
    """Degrees 0..k of the components of H_k one bosonic variable down: the
    same rule at superdimension M - 1."""
    return _index_sets(signature.M - 1, k, range(k + 1))


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
    signature: SuperSignature, kind: str, degree: int, k: int
) -> list[dict[int, int]]:
    """Integer rows of the component r^(k-degree) * (H or Ht)_degree of P_k."""
    return rsquare_lift_rows(_SPACES[kind](signature, degree), k)


def _formula_plan(sets: IndexSets) -> list[tuple[str, int, int]]:
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


def _fermionic_summand_plan(signature: SuperSignature, k: int) -> list[tuple[str, int, int]]:
    """Components of degree k for m = 0: starts N_min(k, 2n-k), plain
    harmonics only."""
    twon = signature.fermionic_count
    if k > twon:
        return []
    base = min(k, twon - k)
    return [("H", l, k - l) for l in range(base % 2, base + 1, 2)]


def _lead_failure(signature: SuperSignature, d: int) -> str | None:
    """Check (b) at degree d: every column s of the r2 matrix has a 1 at
    x1^2 s and its other entries at smaller x1 exponents, so r2 is
    injective on P_d.  The witness names the first column that fails."""
    target = monomial_basis(signature, d + 2)
    tidx = basis_index(signature, d + 2)
    starts, rows, entries = columns(rsquare_matrix(signature, d))
    for s, mono in enumerate(monomial_basis(signature, d)):
        top = mono.powers[0] + 2
        lead = tidx[SuperMonomial((top,) + mono.powers[1:], mono.fermions)]
        column = {rows[x]: entries[x] for x in range(starts[s], starts[s + 1])}
        if column.get(lead) != 1 or any(
            target[t].powers[0] >= top for t in column if t != lead
        ):
            return f"r2 lead certificate fails at degree {d}, column {s}"
    return None


def _commutator_failure(signature: SuperSignature, d: int) -> str | None:
    """Check (a) at degree d: L_(d+2) R_d - R_(d-2) L_d = (4d + 2M) I, the
    second term absent for d < 2.  Row s of the difference is summed from
    the rows it reads and dropped, so neither product is held whole.  The
    witness names the first row that fails."""
    c = 4 * d + 2 * signature.M
    lap_up = laplacian_matrix(signature, d + 2).row_dicts()
    r2_up = rsquare_matrix(signature, d).row_dicts()
    if d >= 2:
        r2_down = rsquare_matrix(signature, d - 2).row_dicts()
        lap_down = laplacian_matrix(signature, d).row_dicts()
    for s, row in enumerate(lap_up):
        acc = {s: -c}
        for t, a in row.items():
            for j, b in r2_up[t].items():
                acc[j] = acc.get(j, 0) + a * b
        if d >= 2:
            for u, a in r2_down[s].items():
                for j, b in lap_down[u].items():
                    acc[j] = acc.get(j, 0) - a * b
        if any(acc.values()):
            return f"[lap, r2] = {c} fails at degree {d}, row {s}"
    return None


def _plan_failure(
    signature: SuperSignature, k: int, summands: tuple[FischerSummand, ...]
) -> str | None:
    """Checks (c) and (d) on the summands of P_k (module docstring), closed
    forms that read no matrix: each is a component of P_k, the eigenvalues
    of r2 lap are distinct, at m = 0 each lift is injective, and the
    dimensions sum to dim P_k.  A witness names the first that fails."""
    M = signature.M
    starts: dict[int, int] = {}
    for s in summands:
        if s.rpower < 0 or s.rpower % 2 or s.degree + s.rpower != k:
            return f"r2 lap eigenvalue: {s.describe()} is not a component of P_{k}"
        c = s.rpower * (2 * s.degree + s.rpower + M - 2)
        if c in starts:
            return f"r2 lap eigenvalue {c} repeats at starts {starts[c]} and {s.degree}"
        starts[c] = s.degree
        if signature.m == 0:
            if s.kind != "H":
                return f"r2 lift injectivity: {s.describe()} is not an r-power of H"
            for i in range(1, s.rpower // 2 + 1):
                if 2 * s.degree + 2 * i + M - 2 == 0:  # c_i = 2i (2l + 2i + M - 2)
                    return f"r2 lift injectivity: c_{i} = 0 on {s.describe()}"
    total = sum(s.dim for s in summands)
    space_dim = space_dimension(signature, k)
    if total != space_dim:
        return f"sum of dims {total} vs dim P_{k} = {space_dim}"
    return None


def _certificate_failure(
    signature: SuperSignature, k: int, summands: tuple[FischerSummand, ...]
) -> str | None:
    """The directness certificate (module docstring): a witness naming the
    first check that fails, or None.  The plan checks (c) and (d) on P_k
    come first.  For m >= 1 the same checks follow on P_(l-2) at each
    exceptional start l, whose decomposition proves the counted defect
    dimension, and then the r2 leads and the commutator identity on the
    factor rings, at every degree up to k - 2 in rising order; at m = 0 the
    identity on P_d at d = k - 2, k - 4, .. >= 0."""
    witness = _plan_failure(signature, k, summands)
    if witness:
        return witness
    if signature.m == 0:
        checks = [("", _commutator_failure, signature, range(k - 2, -1, -2))]
    else:
        for l in fischer_index_sets(signature, k).exceptional:
            witness = _plan_failure(signature, l - 2, _summands(signature, l - 2)[0])
            if witness:
                return f"P_{l - 2} below the exceptional start {l}: {witness}"
        bosonic, fermionic = _factor_rings(signature)
        checks = [
            ("bosonic ", _lead_failure, bosonic, range(k - 1)),
            ("bosonic ", _commutator_failure, bosonic, range(k - 1)),
            ("fermionic ", _commutator_failure, fermionic, range(min(k - 2, 2 * signature.n) + 1)),
        ]
    for name, check, ring, degrees in checks:
        for d in degrees:
            witness = check(ring, d)
            if witness:
                return name + witness
    return None


def _counted_defect_dim(signature: SuperSignature, degree: int) -> int:
    """dim D_degree = dim ker(L_(degree+2) R_degree) for m >= 1, counted
    (module docstring): the mirror harmonics' dim P_s - dim P_(s-2), with
    s = 2 - M - (degree + 2), when degree + 2 is an exceptional start, and 0
    everywhere else."""
    l = degree + 2
    if l not in exceptional_indices(signature.M):
        return 0
    s = 2 - signature.M - l
    return space_dimension(signature, s) - space_dimension(signature, s - 2)


def start_dim(signature: SuperSignature, kind: str, degree: int) -> int:
    """dim (H or Ht)_degree: counted for m >= 1, dim P_l - dim P_(l-2) plus,
    for Ht, the counted defect dimension at l - 2; (b) at l - 2 and the
    verified decomposition of P_(l-2) prove the counts (module docstring).
    The kernel's at m = 0.  Fischer's starts and branching's lower summands
    both take their dimensions here."""
    if signature.m == 0:
        return _SPACES[kind](signature, degree).dim
    dim = space_dimension(signature, degree) - space_dimension(signature, degree - 2)
    if kind == "Ht":
        dim += _counted_defect_dim(signature, degree - 2)
    return dim


def _summands(
    signature: SuperSignature, k: int
) -> tuple[tuple[FischerSummand, ...], tuple[int, ...]]:
    """The summands of the degree-k decomposition, with their start
    dimensions, and the suppressed degrees."""
    plan, suppressed = _decomposition_plan(signature, k)
    summands = tuple(
        FischerSummand(kind, degree, rpower, start_dim(signature, kind, degree))
        for kind, degree, rpower in plan
    )
    return summands, suppressed


def fischer_decomposition(signature: SuperSignature, k: int) -> DecompositionReport:
    """Decompose P_k into r-power multiples of (generalized) harmonics and
    verify that the sum is direct and fills P_k by the sl(2) certificate.

    For m >= 1 no kernel is taken: the start dimensions are
    dim P_l - dim P_(l-2), plus the counted defect dimension on P_(l-2) at
    an exceptional start, and the certificate's lead check (b) at l - 2,
    with the plan checks (c) and (d) of P_(l-2) at an exceptional start, is
    what proves them (module docstring).  At m = 0 they are the dimensions
    of the kernels."""
    if k < 0:
        raise ValueError("negative degree")
    summands, suppressed = _summands(signature, k)
    witness = _certificate_failure(signature, k, summands)
    notes: tuple[str, ...] = ()
    if signature.m == 0:
        plan = [(s.kind, s.degree, s.rpower) for s in summands]
        formula_plan = _formula_plan(fischer_index_sets(signature, k))
        agreement = _plans_agree(signature, plan, formula_plan, k)
        notes = (
            "m=0: purely fermionic decomposition used; index-set formula "
            + ("matches after dropping trivial components" if agreement else "DISAGREES"),
        )
        if witness is None and not agreement:
            witness = "m=0: the index-set formula and the fermionic decomposition differ"
    return DecompositionReport(
        signature=signature,
        k=k,
        summands=summands,
        suppressed=suppressed,
        total_dim=sum(s.dim for s in summands),
        space_dim=space_dimension(signature, k),
        verified=witness is None,
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
            if any(_component_rows(signature, kind, degree, k))
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
    agree.

    For m >= 1 the one kernel taken is the mirror H_(2-M-k) at an
    exceptional k, on a degree at most -M/2 (module docstring).  dim H_k,
    dim D_(k-2) and so dim Ht_k and the socle are counted, and every check
    also requires the Fischer reports at k and k - 2 to verify: their (b)
    proves the counts of H and the injectivity of the lift, their (c) and
    (d) the count of D.  L_k kills each lifted mirror row, so the mirror
    lifted to k - 2 lies in D; with as many rows as the counted dim D, it is
    D, and its r2-image is the socle.  The lift (rsquare_lift_rows) and L_k
    read the factor columns through _apply_rows, so no mixed R_d or L_k is
    assembled above the mirror degree.  At m = 0 the kernels are taken."""
    if k < 0:
        raise ValueError("negative degree")
    if signature.m == 0:
        return _kernel_theorem_A(signature, k)
    M = signature.M
    exceptional = k in exceptional_indices(M)
    certified = fischer_decomposition(signature, k).verified and (
        k < 2 or fischer_decomposition(signature, k - 2).verified
    )
    dim_h = start_dim(signature, "H", k)
    dim_socle = _counted_defect_dim(signature, k - 2)
    dim_ht = dim_h + dim_socle
    checks: list[tuple[str, bool]] = []
    dim_mirror = None
    if not exceptional:
        collapsed = certified and dim_socle == 0
        checks.append(("generalized equals harmonic", collapsed))
        checks.append(("socle is zero", collapsed))
    else:
        mirror = harmonic_space(signature, 2 - M - k)
        dim_mirror = mirror.dim
        lifted = rsquare_lift_rows(mirror, k)
        checks.append(
            (
                "socle is r-power of mirror harmonics",
                certified
                and len(lifted) == dim_socle == dim_mirror
                and not any(_apply_rows(signature, k, -2, laplacian_matrix, lifted)),
            )
        )
        checks.append(("strict chain socle < H < Ht", certified and dim_socle < dim_h < dim_ht))
        checks.append(("defect dimensions agree", certified and dim_socle == dim_mirror))
    return TheoremAReport(
        signature=signature,
        k=k,
        exceptional=exceptional,
        dim_h=dim_h,
        dim_ht=dim_ht,
        dim_socle=dim_socle,
        dim_mirror=dim_mirror,
        quotient_dim=dim_h - dim_socle,
        checks=tuple(checks),
        verified=all(ok for _, ok in checks),
    )


def _kernel_theorem_A(signature: SuperSignature, k: int) -> TheoremAReport:
    """verify_theorem_A from the kernels H_k, Ht_k and the socle at every
    m: the path at m = 0, and the reference for the counted path at
    m >= 1."""
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
        dim_mirror = harmonic_space(signature, 2 - M - k).dim
        checks.append(
            ("socle is r-power of mirror harmonics", H0 == lifted_mirror(signature, k, k))
        )
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
