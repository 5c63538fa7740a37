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
with the index-set formula once the components that vanish are dropped.

H_k, Ht_k = ker(L_k R_(k-2) L_k) and the defect kernel below are exact
kernels of exact matrices.  start_dim is the one place that decides dim H_k
and dim Ht_k, and it counts them at every m (see the end of the
certificate): a verified Fischer report at k proves the count.  The Fischer
decomposition, Theorem A, branching and the GT verification read it.  For
m >= 1 the one kernel they take is the mirror harmonics of an exceptional
degree, on a degree at most -M/2; at m = 0 only Theorem A takes kernels
(_kernel_theorem_A).  The kernels stay the tests' reference.

Every ring but (1|0), (0|2) and (0|0) is the tensor product of two smaller
rings, its major and minor factors (SuperSignature.factors), and lap and
r2 are sums of even operators that act on one factor each.  A mixed ring
is P(m|0) (x) Lambda(2n), the bosonic ring (m|0) and the Grassmann algebra
(0|2n); (m|0) is (1|0) (x) (m-1|0), x1 split off; and Lambda(2n) is
Lambda(2) (x) Lambda(2n-2), the top pair t(2n-1), t(2n) split off.  So
every ring comes down to the rank-one rings (1|0) and (0|2), and only on
them (and on (0|0)) is a matrix built from polynomials: operators.laplacian
images each basis monomial once, once per (signature, degree), and the
matrix is cached.  An even operator passes the odd variables of the other
factor twice or not at all, so no sign enters: for u a monomial of the
major factor and v one of the minor,

    lap(u v) = lap(u) v + u lap(v),

and column u v of L_k takes column u of the major L_|u| with v kept and
column v of the minor L_|v| with u kept.  A term u' goes to the row of u' v
and a term v' to the row of u v'; the two row sets are disjoint, as
u' != u.  r2 splits in the same way.  One column rule, _column_rule, states
this for both operators on the columns the factor matrices hold
(exactla.columns).  The major part is the leading key of the canonical
order: exponent vectors sort lexicographically, so x1 leads; masks sort by
value, so the top pair leads; and the exponent vector leads the mask.  So
the degree-d basis lists each major monomial u, in order, times the minor
basis of degree d - |u|, and u v sits at the first index of u plus the
position of v there; the first indices are counted from the minor ring's
dimensions (_parts), and no basis of the ring is listed.  The rule has two
readers.  _assemble maps it over every column, transposes nothing, and
writes L_k or R_d straight into compressed columns
(IntMatrix.from_columns): an assembled matrix never holds a row.
_apply_rows applies it to the columns in the support of a few rows only,
unranking each index by bisecting the first indices, and builds no matrix
of the ring; on a rank-one ring it is apply_columns on the cached matrix.
The rank-one matrices are row-built, since the certificate below reads
them by rows and names a failing row.  So a wrong rank-one entry reaches
every matrix and every row read through the rule, while the certificate
runs on the rank-one matrices themselves.  Each operator has one cached
IntMatrix per (signature, degree), and every reader of a column reads the
columns that matrix holds; the readers that eliminate (kernel, and the
products of the defect kernel and of Ht) derive the rows of an assembled
matrix for the one call and drop them.

The certificate cannot see the placement, so the tests compare every
assembled L_k and R_d with exactla.operator_matrix, which images every
monomial whole.  A wrong first index, or Lambda(2n) leading a mixed ring,
changes the matrices.  Which variable a split names does not: splitting
off x_m or the bottom pair as the minor factor is a placement of the
canonical order too, and putting x_m or the bottom pair first reorders the
basis by a relabelling of the bosonic variables or of the fermion pairs,
under which lap and r2 are invariant, with no sign.

On a rank-one ring the matrix R_d of multiplication by r2 is read off
L_(d+2): under the Fischer weights w(x^a t_F) = a! (-4)^p(F), p(F) the
number of whole pairs in F, r2 is the adjoint of lap, so
R_d[t, s] w(t) = L_(d+2)[s, t] w(s).  Every ratio w(t)/w(s) on the support,
(a_i+2)(a_i+1) for t = x_i^2 s or -4 for a pair added, is nonzero, so the
supports agree, and the entry is +1 where the two fermion masks agree and
-1 where a pair was added.  rsquare_matrix turns each nonzero entry of row
s of L_(d+2), at column t, into that +-1 at row t, column s of R_d.  The
assembled R_d and L_(d+2) of a split ring then have transposed supports
too, as the rule puts each factor's entries at mirrored places.  All
entries are ints, and so are those of the products lap r2 (the defect
kernel) and lap r2 lap (Ht): from the monomial maps to the canonical
integer rows of a Subspace no Fraction is made.

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

(a), and (b) for m >= 1, are checked on the rank-one rings, not on P_d.
On A (x) B,
A and B the factors, [lap, r2] = [lap_A, r2_A] (x) 1 + 1 (x) [lap_B, r2_B]:
the cross terms vanish, as even operators on different factors commute,
and the assembled matrices are such tensor sums by construction.  On
A_(d_A) (x) B_(d_B) the two parts are (4 d_A + 2 M_A) + (4 d_B + 2 M_B) =
4d + 2M, as M adds over the factors, so (a) on P_d follows from (a) on A
at d_A and on B at d_B, over every split d = d_A + d_B.  Down the splits,
(a) on every P_d with d <= k - 2 follows from (a) on (1|0) at
e = 0..k - 2, where it is the scalar identity
(e + 2)(e + 1) - e(e - 1) = 4e + 2, and on Lambda(2) at
d <= min(k - 2, 2), its top degree.  Column u v of R_d is column u of the
major R_|u| with v kept, plus minor terms u v' that keep u.  On
(m|0) = (1|0) (x) (m-1|0) the major part takes x1^e to x1^(e+2) with
entry 1, by (b) on (1|0) at e, and the minor part keeps the x1 exponent
e; on a mixed ring the fermionic part keeps the exponent vector.  So (b)
on P_d follows from (b) on (1|0) at every e <= d.  The certificate
builds no matrix but the rank-one ones: O(k) scalar checks, and a
Fischer decomposition builds no other matrix at any (m|2n).

fischer_decomposition checks, in this order: (c) every component lies in
P_k and the values c_l are distinct over the plan's starts, and at m = 0
each component is an H_l with c_1 .. c_j != 0; (d) the start dimensions
sum to dim P_k; then, for m >= 1, (c) and (d) on P_(l-2) at each
exceptional start l (below), (b) on (1|0) at every e = 0..k - 2 and (a)
there at the same degrees; then, for n >= 1, (a) on Lambda(2) at every
d <= min(top, 2), top being k - 2 for m >= 1 and, at m = 0, the highest
degree that the down and up lemmas read (below); and at m = 0 the plan
agreement.  Together they prove the sum direct and equal to P_k.  A
failed report's witness names the first check that failed: the component
out of degree or the repeated eigenvalue and its two starts, the
component whose lift is not injective, the dimension sum, the degree and
column of the lead, or the degree and row of the identity, prefixed by
"bosonic" on (1|0) and "fermionic" on Lambda(2), and by the degree l - 2
and its start l when it is a lower plan's.

For m >= 1 the start dimensions that (d) sums take no kernel on P_l, and
dim P_l is counted in closed form (superpoly.space_dimension).  R_(l-2) and
L_l are assembled from factor matrices whose supports agree, so the
transpose of R_(l-2) and L_l have the same support.  (b) at l - 2 then makes
the minor of L_l on the columns {x1^2 s : s in P_(l-2)} triangular in the
x1 exponent, with a nonzero diagonal, so L_l is onto P_(l-2) and
dim H_l = dim P_l - dim P_(l-2).  lap r2 lap p = 0 iff L_l p lies in
ker L_l R_(l-2), so Ht_l = L_l^-1(ker L_l R_(l-2)), and, L_l being onto,
Ht_l adds the defect kernel: dim Ht_l = dim H_l + dim D_(l-2), D the defect
kernel below, and dim D is counted too.  The decomposition of
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
not read.

At m = 0, M = -2n and (b) is false; the count comes from the sl(2) strings
of Lambda(2n) (Howe duality for sp(2n) x sl(2)).  With e = r2/2,
f = -lap/2 and h = d - n on P_d, (a) at d reads [e, f] = h, and two lemmas
follow from it:

    down lemma: if (a) holds at d, d - 2, .. >= 0 and d < n, f e is
    injective on P_d.  From f e g = 0, (a) once per step gives
    e f g_j = t_j g_j for g_j = f^j g, t_j = h_d + h_(d-2) + .. + h_(d-2j)
    < 0, and g_j = 0 past degree 0 makes every g_j = 0 from the bottom up.

    up lemma: if (a) holds at l, l + 2, .. <= 2n, then
    f e^j v = -j (mu + j - 1) e^(j-1) v, mu = l - n, for every v in P_l with
    e f v = 0, H_l among them.

For l = d + 2 <= n + 1, f e is injective and square on P_d, so onto, and
so is L_l onto P_(l-2): dim H_l = dim P_l - dim P_(l-2), and
lap r2 lap p = 0 forces lap p = 0, so Ht_l = H_l.  For l >= n + 1,
mu >= 1: were v != 0, the largest j with e^(j-1) v != 0 would have
e^j v = 0 and a nonzero coefficient, so every such v is 0.  That gives
H_l = 0, and Ht_l = 0 too, as lap r2 lap p = 0 puts e f p in H_l.  So at
every l dim Ht_l = dim H_l = max(0, dim P_l - dim P_(l-2)), the difference
being 0 at l = n + 1 and at most 0 above.  On H_l, l <= n, the coefficient
first vanishes at j = n - l + 1, so r^(2j) is injective on H_l up to
j = n - l, and e^(n-l+1) H_l lies in H_(2n-l+2) = 0: r^(2j) H_l != 0
exactly when l + j <= n, and the nonzero components r^(k-l) H_l of P_k are
those with l <= n and l + k <= 2n, a closed form the plan agreement reads.

The down lemma at a start l <= n + 1 reads (a) at l - 2, l - 4, ..; the up
lemma at a start l >= n + 2 reads it at l, l + 2, .. <= 2n, and the
vanishing of r^(k-l) H_l where l + k > 2n (so k >= n + 2) at
2n - l + 2 <= k and above.  So a report reads (a) on Lambda(2n) at
d = k - 2, k - 4, .. >= 0 and, for k >= n + 2, at d = k, k + 2, .. <= 2n.
(a) at d follows from (a) on Lambda(2) at the degrees up to min(d, 2), as
above, so the m = 0 certificate runs (a) on Lambda(2) at every
d <= min(top, 2), top the highest of those degrees, and a report that
verifies has proved its counts and its plan agreement.

The socle is r2 times the defect kernel two degrees down: an element of
r2 P_(k-2) is r2 W, and it is harmonic iff lap(r2 W) = 0, so
H0_k = r2 ker(L_k R_(k-2)).  This holds for every m, also at m = 0 where r2
is not injective, and needs no intersection: the kernel is taken on the
dim P_(k-2) columns of L_k R_(k-2), not on a stack of 2 dim P_k columns.
defect_kernel is cached beside the spaces; the socle itself is not
cached, as each verification reads it once per degree.  For m >= 1 neither
is taken: mirror_defect_rows lifts the mirror H_(2-M-k) to k - 2, and L_k
on each row after one more r2 step proves the rows lie in D.  As many rows
as the counted dim D, independent by (b), make them all of D, once the
Fischer report at k has proved the count.  Theorem A's socle is their
r2-image, and branching's prescribed-Laplacian slot takes the rows
themselves.  The lift and L_k both run through _apply_rows, so the one
mixed matrix the proof assembles is the mirror's own L, for its kernel.

Subspaces are lifted in coordinates: rsquare_lift_rows(space, k) maps all
the canonical integer rows of a Subspace through _apply_rows with r2, one
degree step at a time, from the space's degree up to k, so a split ring
builds no R_d of its own for them.  The socle, lifted_mirror and mirror_defect_rows
(the mirror harmonics H_(2-M-k), lifted to the socle at degree k and to the
admissible Laplacian parts at k - 2) work on those rows with no polynomial
in between.  rsquare_lift_row lifts one row
through the held columns of the cached R_d (exactla.apply_columns); the GT
descent and its step check (module gtbasis) lift the rows of their many
lower basis elements with it, each R_d assembled once for all of them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
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


def _head(signature: SuperSignature) -> SuperSignature:
    """The rank-one ring that leads a ring's split: its major factor taken
    down to (1|0) for m >= 1 or to (0|2) at m = 0, n >= 1; (0|0) itself."""
    while signature.factors():
        signature = signature.factors()[0]
    return signature


def _parts(
    signature: SuperSignature, d: int
) -> list[tuple[int, int, SuperMonomial, int, int]]:
    """The major parts u of the degree-d basis of a split ring, in canonical
    order, as (first, count, u, |u|, position of u in the major ring's
    basis of degree |u|).  The basis lists u times each of the count
    monomials of the minor ring of degree d - |u| in that ring's order, so
    u v sits at first plus the position of v there.  first is counted; the
    ring's basis is not listed."""
    major, minor = signature.factors()
    counts = [space_dimension(minor, d - e) for e in range(d + 1)]
    parts = sorted(
        (
            (mono, e, s)
            for e, count in enumerate(counts)
            if count
            for s, mono in enumerate(monomial_basis(major, e))
        ),
        key=itemgetter(0),
    )
    placed, first = [], 0
    for mono, e, s in parts:
        placed.append((first, counts[e], mono, e, s))
        first += counts[e]
    return placed


def _column_rule(signature: SuperSignature, k: int, shift: int, factor_matrix):
    """The columns of A = A_major (x) 1 + 1 (x) A_minor from P_k to
    P_(k+shift) of a split ring (module docstring):

        A(u v) = A_major(u) v + u A_minor(v).

    factor_matrix(ring, d) is the matrix of the operator on degree d of a
    factor ring; the columns it holds are read, each factor matrix once per
    rule.  The rule maps a part (u, |u|, s) of P_k, as _parts lists it, to
    the function from the position of v to column u v, as (rows, entries).
    A term u' w lands at the first index of u' in P_(k+shift) plus the
    position of w, so the rows come sorted from the factor columns: the
    major terms below u, then the minor terms, then those above."""
    major, minor = signature.factors()
    first = {mono: f for f, _, mono, _, _ in _parts(signature, k + shift)}
    majors: dict[int, tuple] = {}  # |u| -> columns of A_major, and its image basis
    minors: dict[int, tuple] = {}  # |v| -> columns of A_minor, as lists

    def part(mono: SuperMonomial, e: int, s: int):
        if e not in majors:
            majors[e] = columns(factor_matrix(major, e)), monomial_basis(major, e + shift)
        (starts, rows, entries), image = majors[e]
        low, low_entries, high, high_entries = [], [], [], []
        for x in range(starts[s], starts[s + 1]):
            u = image[rows[x]]
            if u < mono:
                low.append(first[u])
                low_entries.append(entries[x])
            else:
                high.append(first[u])
                high_entries.append(entries[x])
        if k - e not in minors:
            starts, rows, entries = columns(factor_matrix(minor, k - e))
            minors[k - e] = starts.tolist(), rows.tolist(), entries.tolist()
        starts, rows, entries = minors[k - e]
        base = first.get(mono)  # held if u A_minor(v) has a term

        def column(position: int) -> tuple[list[int], list[int]]:
            a, b = starts[position], starts[position + 1]
            targets = [t + position for t in low] if low else []
            if a < b:
                targets += [base + g for g in rows[a:b]]
            if high:
                targets += [t + position for t in high]
            return targets, low_entries + entries[a:b] + high_entries

        return column

    return part


def _assemble(signature: SuperSignature, k: int, shift: int, factor_matrix) -> IntMatrix:
    """The matrix from P_k to P_(k+shift) of a split ring: the column rule
    mapped over every column, written straight into compressed columns,
    with no row held."""
    rule = _column_rule(signature, k, shift, factor_matrix)

    def every_column():
        for _, count, mono, e, s in _parts(signature, k):
            column = rule(mono, e, s)
            for position in range(count):
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
    for _assemble.  On a split ring the column rule runs on the columns in
    the support of the rows only, each index unranked by bisecting the
    parts' first indices, and no matrix of the ring is built; on a rank-one
    ring it is apply_columns on the cached matrix."""
    if not signature.factors():
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
                _, _, mono, e, s = parts[j]
                read[j] = rule(mono, e, s)
            targets, entries = read[j](i - firsts[j])
            for t, c in zip(targets, entries):
                acc[t] = acc.get(t, 0) + v * c
        out.append({t: c for t, c in acc.items() if c})
    return out


@lru_cache(maxsize=None)
def laplacian_matrix(signature: SuperSignature, k: int) -> IntMatrix:
    """Matrix of the Laplacian from P_k to P_(k-2).  On the rank-one rings
    (1|0) and (0|2), and on (0|0), each basis monomial is imaged once by
    operators.laplacian; every other ring's is assembled from the matrices
    of its major and minor factors, and so, down the splits, from those of
    the rank-one rings (module docstring)."""
    if signature.factors():
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
    off L_(degree+2) on a rank-one ring, assembled from the factors'
    matrices on every other ring (module docstring)."""
    if signature.factors():
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
    degree step at a time by _apply_rows: on a split ring through the
    factor columns, with no R_d of the ring built.  At the space's own degree
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
    """Ht_k: degree-k kernel of lap r2 lap, the sparse product
    L_k R_(k-2) L_k; H_k below degree 2, where L_k is zero."""
    if k < 2:
        return harmonic_space(signature, k)
    lap = laplacian_matrix(signature, k)
    return kernel(matmul(matmul(lap, rsquare_matrix(signature, k - 2)), lap), (signature, k))


@lru_cache(maxsize=None)
def defect_kernel(signature: SuperSignature, degree: int) -> Subspace:
    """Solutions W of lap(r2 W) = 0 in degree `degree`: the admissible
    prescribed-Laplacian parts for generalized harmonics two degrees up, and
    the preimage under r2 of the socle there.  The matrix is the sparse
    product L_(degree+2) R_degree.  The socle of the kernel path takes it;
    for m >= 1 mirror_defect_rows gives its rows with no kernel."""
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
    r2 to `degree`, as a Subspace: the socle of H_k at degree k, and the
    admissible prescribed-Laplacian parts of Ht_k at degree k - 2.  The
    kernel path of Theorem A compares its socle with it."""
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
    injective on P_d.  The certificate runs it on (1|0), where column 0 is
    x1^d -> x1^(d+2); the tests run it on P_d.  The witness names the
    first column that fails."""
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
    dimension, and then the r2 lead and the commutator identity on (1|0),
    each at every degree up to k - 2 in rising order.  For n >= 1 the
    identity on Lambda(2) follows, at every degree up to 2 and up to top:
    k - 2 for m >= 1, and at m = 0 the highest degree that the down lemma
    (d = k - 2, k - 4, .. >= 0) and the up lemma (for k >= n + 2,
    d = k, k + 2, .. <= 2n) read.  These are O(k) scalar checks on two
    rank-one rings, which prove (a) and (b) on every ring the report needs
    them on."""
    witness = _plan_failure(signature, k, summands)
    if witness:
        return witness
    if signature.m == 0:
        up = range(k, 2 * signature.n + 1, 2) if k >= signature.n + 2 else ()
        top, checks = max(up, default=k - 2), []
    else:
        for l in fischer_index_sets(signature, k).exceptional:
            witness = _plan_failure(signature, l - 2, _summands(signature, l - 2)[0])
            if witness:
                return f"P_{l - 2} below the exceptional start {l}: {witness}"
        top, line = k - 2, _head(signature)
        checks = [
            ("bosonic ", _lead_failure, line, range(k - 1)),
            ("bosonic ", _commutator_failure, line, range(k - 1)),
        ]
    if signature.n:
        pair = _head(signature.factors()[1] if signature.m else signature)
        checks.append(("fermionic ", _commutator_failure, pair, range(min(top, 2) + 1)))
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
    """dim (H or Ht)_degree, counted at every m (module docstring):
    max(0, dim P_l - dim P_(l-2)), plus, for Ht with m >= 1, the counted
    defect dimension at l - 2.  For m >= 1, (b) at l - 2 and the verified
    decomposition of P_(l-2) prove the count; at m = 0, where Ht = H, the
    down lemma proves it for l <= n + 1 and the up lemma, 0, above.
    Fischer's starts, Theorem A, branching (its summands and the space it
    decomposes) and the GT verification all take their dimensions here."""
    dim = max(0, space_dimension(signature, degree) - space_dimension(signature, degree - 2))
    if kind == "Ht" and signature.m:
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
    what proves them (module docstring).  At m = 0 they are counted too,
    and the identity (a) at the degrees the down and up lemmas read proves
    them and the plan agreement; no kernel is taken at any m."""
    if k < 0:
        raise ValueError("negative degree")
    summands, suppressed = _summands(signature, k)
    witness = _certificate_failure(signature, k, summands)
    notes: tuple[str, ...] = ()
    if signature.m == 0:
        plan = [(s.kind, s.degree, s.rpower) for s in summands]
        formula_plan = _formula_plan(fischer_index_sets(signature, k))
        agreement = _plans_agree(signature, plan, formula_plan)
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


def _plans_agree(signature, fermionic_plan, formula_plan) -> bool:
    """At m = 0 the index-set formula may list components that vanish; it
    must never miss a nonzero one and never claim a nonzero extra one.  Ht
    equals H at m = 0, and r^(2j) H_l is nonzero exactly when l + j <= n
    (module docstring, the up lemma)."""

    def nonzero_components(plan):
        return {
            (degree, rpower)
            for _, degree, rpower in plan
            if 2 * degree + rpower <= 2 * signature.n
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


def mirror_defect_rows(
    report: DecompositionReport,
) -> tuple[Subspace, list[dict[int, int]], bool]:
    """For a Fischer report at an exceptional degree k of an m >= 1
    signature: the mirror harmonics H_(2-M-k), their rows lifted by r2 to
    k - 2, and whether those rows are proved to be the defect kernel
    D_(k-2) (module docstring).  The proof: the report verifies, L_k kills
    each row after one more r2 step, and there are as many rows as the
    counted dim D_(k-2); the lift is injective by (b).  Theorem A's socle is
    the r2-image of the rows, and branching's Laplacian slot takes them.
    The lift and L_k read the factor columns through _apply_rows."""
    signature, k = report.signature, report.k
    mirror = harmonic_space(signature, 2 - signature.M - k)
    rows = rsquare_lift_rows(mirror, k - 2)
    lifted = _apply_rows(signature, k - 2, 2, rsquare_matrix, rows)
    proved = (
        report.verified
        and len(rows) == _counted_defect_dim(signature, k - 2)
        and not any(_apply_rows(signature, k, -2, laplacian_matrix, lifted))
    )
    return mirror, rows, proved


def verify_theorem_A(signature: SuperSignature, k: int) -> TheoremAReport:
    """Regular degrees: Ht_k = H_k and the socle vanishes.  Exceptional
    degrees: the socle is the r-power image of the mirror harmonics, the
    chain socle < H_k < Ht_k is strict, and the three defect dimensions
    agree.

    For m >= 1 the one kernel taken is the mirror H_(2-M-k) at an
    exceptional k, on a degree at most -M/2 (module docstring).  dim H_k,
    dim D_(k-2) and so dim Ht_k and the socle are counted, and every check
    also requires the Fischer report at k to verify and the plan checks (c)
    and (d) of P_(k-2) to hold: the report's (b) proves the counts of H and
    the injectivity of the lift, the plan checks the count of D.  The
    report at k - 2 would add nothing else: its (a) and (b) are among those
    of the report at k.  mirror_defect_rows proves the mirror lifted to
    k - 2 is D, so its r2-image is the socle; no mixed R_d or L_k is
    assembled above the mirror degree.  At m = 0 the kernels are taken."""
    if k < 0:
        raise ValueError("negative degree")
    if signature.m == 0:
        return _kernel_theorem_A(signature, k)
    M = signature.M
    exceptional = k in exceptional_indices(M)
    report = fischer_decomposition(signature, k)
    below = _plan_failure(signature, k - 2, _summands(signature, k - 2)[0])
    certified = report.verified and below is None
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
        mirror, _, proved = mirror_defect_rows(report)
        dim_mirror = mirror.dim
        checks.append(("socle is r-power of mirror harmonics", certified and proved))
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
