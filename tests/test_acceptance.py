"""Acceptance gate: nine criteria, one PASS/FAIL line each.

Every comparison below is exact.  All arithmetic is rational, so the
tolerance everywhere is zero: polynomial equality, integer dimension
equality, subspace equality, byte equality.  Run with `pytest -s
tests/test_acceptance.py` to see the verdict lines.
"""

from __future__ import annotations

import math
import subprocess
import sys

from superharm import (
    SuperPolynomial,
    SuperSignature,
    branch_generalized,
    branch_harmonic,
    ck_data,
    ck_extend,
    ck_extend_recursive,
    exceptional_indices,
    extend_signature,
    fischer_decomposition,
    gt_basis,
    harmonic_space,
    monomial_basis,
    sl2_relations_check,
    space_dimension,
    theta_factor,
    verify_gt_basis,
    verify_theorem_A,
)
from superharm.branching import defect_kernel
from superharm.exactla import span_subspace, subspace_polynomials
from superharm.operators import rsquare

GRID = (
    SuperSignature(1, 1),
    SuperSignature(2, 1),
    SuperSignature(2, 2),
    SuperSignature(3, 2),
    SuperSignature(2, 3),
    SuperSignature(0, 2),
    SuperSignature(3, 0),
)
REGULAR = tuple(s for s in GRID if not (s.M <= 0 and s.M % 2 == 0))
S23 = SuperSignature(2, 3)


def harmonic_basis(sig: SuperSignature, k: int) -> tuple[SuperPolynomial, ...]:
    return subspace_polynomials(harmonic_space(sig, k))


def _verdict(num: int, text: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {num}: {text}")
    assert not failures, "\n".join([f"criterion {num} failed:"] + failures[:8])


def test_criterion_1_sl2_relations_exact():
    failures = []
    for sig in GRID:
        for k in range(9):
            for res in sl2_relations_check(sig, k):
                if not res.ok:
                    failures.append(f"{sig} k={k}: {res.name}: {res.witness_text()}")
    _verdict(1, "sl(2) relations hold on every monomial, 7 signatures, k <= 8", failures)


def test_criterion_2_regular_decompositions():
    failures = []
    for sig in REGULAR:
        for k in range(11):
            rep = fischer_decomposition(sig, k)
            if not rep.verified:
                failures.append(f"{sig} k={k}: {rep.failure_witness}")
            expected = space_dimension(sig, k) - space_dimension(sig, k - 2)
            got = len(harmonic_basis(sig, k))
            if got != expected:
                failures.append(f"{sig} k={k}: dim H = {got}, expected {expected}")
    _verdict(2, "regular decompositions verify with dim H_k = dim P_k - dim P_(k-2), k <= 10", failures)


def test_criterion_3_fermionic_decompositions():
    failures = []
    for n in (1, 2, 3):
        sig = SuperSignature(0, n)
        for k in range(2 * n + 1):
            rep = fischer_decomposition(sig, k)
            if not rep.verified:
                failures.append(f"{sig} k={k}: {rep.failure_witness}")
        for k in range(n + 1):
            expected = math.comb(2 * n, k) - (math.comb(2 * n, k - 2) if k >= 2 else 0)
            got = len(harmonic_basis(sig, k))
            if got != expected:
                failures.append(f"{sig} k={k}: dim H = {got}, expected {expected}")
    _verdict(3, "purely fermionic decompositions verify with binomial harmonic dimensions", failures)


def test_criterion_4_exceptional_window():
    failures = []
    if exceptional_indices(-4) != frozenset({4, 5, 6}):
        failures.append(f"exceptional_indices(-4) = {exceptional_indices(-4)}")
    # frozen summand pattern at (2, 3), including which degrees are dropped
    expected = {
        0: (["H_0"], ()),
        1: (["H_1"], ()),
        2: (["r^2*H_0", "H_2"], ()),
        3: (["r^2*H_1", "H_3"], ()),
        4: (["r^4*H_0", "Ht_4"], (2,)),
        5: (["r^2*H_3", "Ht_5"], (1,)),
        6: (["r^2*Ht_4", "Ht_6"], (0, 2)),
        7: (["r^4*H_3", "r^2*Ht_5", "H_7"], (1,)),
        8: (["r^4*Ht_4", "r^2*Ht_6", "H_8"], (0, 2)),
    }
    for k, (pattern, suppressed) in expected.items():
        rep = fischer_decomposition(S23, k)
        if not rep.verified:
            failures.append(f"k={k}: {rep.failure_witness}")
        if [s.describe() for s in rep.summands] != pattern:
            failures.append(f"k={k}: summands {[s.describe() for s in rep.summands]}")
        if rep.suppressed != suppressed:
            failures.append(f"k={k}: suppressed {rep.suppressed}, expected {suppressed}")
    for k in (4, 5, 6):
        rep = verify_theorem_A(S23, k)
        if not rep.exceptional:
            failures.append(f"k={k}: not flagged exceptional")
        if not rep.verified:
            bad = [name for name, ok in rep.checks if not ok]
            failures.append(f"k={k}: failed checks {bad}")
        mirror = 2 - S23.M - k
        if rep.dim_socle != len(harmonic_basis(S23, mirror)):
            failures.append(f"k={k}: socle dim {rep.dim_socle}")
        if rep.dim_ht - rep.dim_h != rep.dim_socle:
            failures.append(f"k={k}: defect {rep.dim_ht - rep.dim_h} != socle {rep.dim_socle}")
    _verdict(4, "superdimension -4 window: frozen pattern, socle and filtration identities", failures)


def test_criterion_5_ck_round_trip():
    failures = []
    for sig in GRID:
        if sig.m == 0:
            continue
        for k in range(9):
            for mono in monomial_basis(sig, k):
                p = SuperPolynomial(sig, {mono: 1})
                data = ck_data(p, k)
                closed = ck_extend(data)
                if closed != p:
                    failures.append(f"{sig} k={k}: round trip failed on {mono}")
                    break
                if ck_extend_recursive(data) != closed:
                    failures.append(f"{sig} k={k}: recursion disagrees on {mono}")
                    break
    _verdict(5, "boundary-data extension round trips every monomial, closed form = recursion, k <= 8", failures)


def test_criterion_6_harmonic_branching():
    failures = []
    sig = SuperSignature(3, 3)
    for k in range(9):
        rep = branch_harmonic(sig, k)
        if not rep.verified:
            bad = [name for name, ok in rep.checks if not ok]
            failures.append(f"{sig} k={k}: failed checks {bad}")
        total = sum(s.multiplicity * s.dim for s in rep.summands)
        if total != rep.lhs_dim or rep.lhs_dim != len(harmonic_basis(sig, k)):
            failures.append(f"{sig} k={k}: dims {total} vs {rep.lhs_dim}")
    for other in (SuperSignature(2, 1), SuperSignature(2, 2), S23, SuperSignature(3, 0)):
        for k in range(5):
            rep = branch_harmonic(other, k)
            if rep.mode != "classical" or not rep.verified:
                failures.append(f"{other} k={k}: mode {rep.mode}, verified {rep.verified}")
            shape = [(s.kind, s.degree, s.multiplicity) for s in rep.summands]
            if shape != [("H", ell, 1) for ell in range(k + 1)]:
                failures.append(f"{other} k={k}: shape {shape}")
    _verdict(6, "branching dimensions match index sets at (3,3); others degenerate to one copy per degree", failures)


def test_criterion_7_generalized_branching():
    failures = []
    cases = [(SuperSignature(2, 1), 2), (S23, 4), (S23, 5), (S23, 6)]
    for sig, k in cases:
        rep = branch_generalized(sig, k)
        if not rep.verified:
            bad = [name for name, ok in rep.checks if not ok]
            failures.append(f"{sig} k={k}: failed checks {bad}")
        mirror = 2 - sig.M - k
        expected_mults = [2] * (mirror + 1) + [1] * (k - mirror)
        if [s.multiplicity for s in rep.summands] != expected_mults:
            failures.append(f"{sig} k={k}: multiplicities {[s.multiplicity for s in rep.summands]}")
        if sum(s.multiplicity * s.dim for s in rep.summands) != rep.lhs_dim:
            failures.append(f"{sig} k={k}: dimension identity")
        # the degree k-2 polynomials killed by the composed operator are
        # exactly the lifted mirror harmonics
        ker = defect_kernel(sig, k - 2)
        lift = rsquare(sig) ** ((2 * k + sig.M - 4) // 2)
        lifted = span_subspace(sig, k - 2, [lift * h for h in harmonic_basis(sig, mirror)])
        if ker.dim != lifted.dim or not ker.contains_subspace(lifted):
            failures.append(f"{sig} k={k}: kernel {ker.dim} vs lifted mirror {lifted.dim}")
    _verdict(7, "generalized branching: doubled lower multiplicities, kernel = lifted mirror space", failures)


def _pair_removal_oracle(n: int, k: int) -> list[SuperPolynomial]:
    sig = SuperSignature(0, n)
    if k < 0 or k > n:
        return []
    if n == 0:
        return [SuperPolynomial.one(sig)]
    if n == 1:
        if k == 0:
            return [SuperPolynomial.one(sig)]
        return [SuperPolynomial.t(sig, 1), SuperPolynomial.t(sig, 2)]
    theta = theta_factor(sig, k)
    out = [extend_signature(p, sig) for p in _pair_removal_oracle(n - 1, k)]
    out += [SuperPolynomial.t(sig, 2 * n - 1) * extend_signature(p, sig) for p in _pair_removal_oracle(n - 1, k - 1)]
    out += [SuperPolynomial.t(sig, 2 * n) * extend_signature(p, sig) for p in _pair_removal_oracle(n - 1, k - 1)]
    out += [theta * extend_signature(p, sig) for p in _pair_removal_oracle(n - 1, k - 2)]
    return out


def test_criterion_8_basis_towers():
    failures = []
    for sig in GRID:
        for k in range(7):
            for target in ("H", "Ht"):
                rep = verify_gt_basis(sig, k, target)
                if not rep.verified:
                    bad = [name for name, ok in rep.checks if not ok]
                    failures.append(f"{sig} k={k} {target}: failed checks {bad}")
    for n in (1, 2, 3):
        for k in range(n + 1):
            built = [el.polynomial for el in gt_basis(SuperSignature(0, n), k)]
            if built != _pair_removal_oracle(n, k):
                failures.append(f"(0,{n}) k={k}: recursion mismatch")
    _verdict(8, "basis towers verify for all signatures, k <= 6, both targets; fermionic towers match the recursion", failures)


def _run_cli(args: list[str]) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "superharm.cli", *args],
        capture_output=True,
        check=False,
    )
    return proc.stdout + b"|" + str(proc.returncode).encode()


def test_criterion_9_cli_determinism():
    failures = []
    commands = [
        ["fischer", "--m", "2", "--n", "3", "--kmax", "6", "--format", "json"],
        ["fischer", "--m", "3", "--n", "0", "--k", "4"],
        ["branch", "--m", "3", "--n", "3", "--k", "5", "--format", "json"],
        ["branch", "--m", "2", "--n", "3", "--k", "4", "--generalized"],
        ["gt-basis", "--m", "2", "--n", "2", "--k", "3"],
        ["gt-basis", "--m", "1", "--n", "1", "--k", "1", "--format", "json"],
        ["verify", "--suite", "sl2", "--m", "1", "--n", "1", "--kmax", "3", "--format", "json"],
    ]
    for args in commands:
        first = _run_cli(args)
        second = _run_cli(args)
        if first != second:
            failures.append(f"{' '.join(args)}: outputs differ")
        if not first.split(b"|")[0]:
            failures.append(f"{' '.join(args)}: empty output")
    _verdict(9, "consecutive CLI runs produce byte-identical output", failures)
