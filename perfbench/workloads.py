"""The benchmark workloads: seeded inputs, the library calls, answer checks.

exceptional-linalg
    fischer_decomposition of (4|8) at k = 5, 6, 7 and verify_theorem_A at
    k = 5, 6.  Degrees 4..6 are the exceptional window of M = -4, so the run
    builds Ht = ker(lap r2 lap), the socle intersection, r-power lifts and
    the rank of a stack filling P_7 (dim 6400).  Exact linear algebra takes
    most of the time, so this is where a linear-algebra change should show.
restriction-arith
    branch_harmonic, branch_generalized and verify_gt_basis on small
    signatures, plus CK round trips of 300 random degree-6 polynomials of
    (3|6).  Polynomial arithmetic (Laplacian, xi, products) takes most of
    the time and linear algebra a small share, so a linear-algebra change
    should leave this workload unchanged.
verify-sweep
    every `superharm verify` suite over the built-in grid, through
    superharm.cli.main in one process with JSON output to files: hundreds of
    tiny matrices, where per-call overhead, cache reuse across suites and
    rendering dominate.

The seed decides only the inputs: the order of the calls, and for
restriction-arith the CK polynomials.  After the timed calls every answer is
reduced to a fingerprint (dimensions, summands, verdict names, output
hashes) and compared with expected.json.  An operation is one named report
or check; it fails when its verdict is not ok or its fingerprint differs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from math import comb

import superharm
import superharm.cli
from superharm import SuperMonomial, SuperPolynomial, SuperSignature

WORKLOADS = ("exceptional-linalg", "restriction-arith", "verify-sweep")

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

CK_SIGNATURE = (3, 3)
CK_DEGREE = 6
CK_POLYNOMIALS = 300
CK_TERMS = 6

VERIFY_SUITES = ("sl2", "fischer", "theoremA", "ck", "branching", "gt")
# The built-in grid and degree bounds of `superharm verify`; used only to
# check dim P_k of every space the sweep touches against the closed form.
VERIFY_GRID = ((1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (0, 2), (3, 0))
VERIFY_KMAX = {"sl2": 4, "fischer": 6, "theoremA": 6, "ck": 4, "branching": 5, "gt": 5}


def closed_form_dim(m: int, n: int, k: int) -> int:
    """dim P_k = sum_f C(2n, f) C(k - f + m - 1, m - 1), counted without
    listing monomials; at m = 0 only f = k contributes."""
    if k < 0:
        return 0
    total = 0
    for f in range(min(2 * n, k) + 1):
        bosonic = k - f
        total += comb(2 * n, f) * (comb(bosonic + m - 1, m - 1) if m else int(bosonic == 0))
    return total


# -- inputs ------------------------------------------------------------------


def _random_monomial(rng: random.Random, m: int, n: int, k: int) -> SuperMonomial:
    """Uniform degree-k monomial, drawn without listing the basis (the
    library's basis cache must stay cold until the timed run)."""
    counts = [comb(2 * n, f) * comb(k - f + m - 1, m - 1) for f in range(min(2 * n, k) + 1)]
    f = rng.choices(range(len(counts)), weights=counts)[0]
    mask = sum(1 << i for i in rng.sample(range(2 * n), f))
    cuts = sorted(rng.sample(range(k - f + m - 1), m - 1))
    bounds = [-1] + cuts + [k - f + m - 1]
    powers = tuple(bounds[i + 1] - bounds[i] - 1 for i in range(m))
    return SuperMonomial(powers, mask)


def _ck_polynomials(rng: random.Random) -> list[SuperPolynomial]:
    sig = SuperSignature(*CK_SIGNATURE)
    polys = []
    for _ in range(CK_POLYNOMIALS):
        monos: set[SuperMonomial] = set()
        while len(monos) < CK_TERMS:
            monos.add(_random_monomial(rng, sig.m, sig.n, CK_DEGREE))
        terms = {mono: rng.choice((-3, -2, -1, 1, 2, 3)) for mono in sorted(monos)}
        polys.append(SuperPolynomial(sig, terms))
    return polys


def build_inputs(workload: str, seed: int, tmpdir: str) -> list[tuple]:
    """The seeded call list: (kind, op name, arguments) per unit of work."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exceptional-linalg":
        sig = SuperSignature(4, 4)
        units = [("fischer", f"fischer {sig} k={k}", (sig, k)) for k in (5, 6, 7)]
        units += [("theoremA", f"theoremA {sig} k={k}", (sig, k)) for k in (5, 6)]
    elif workload == "restriction-arith":
        units = []
        for sig in (SuperSignature(4, 3), SuperSignature(3, 3)):
            units.append(("branch", f"branch {sig} k=6", (sig, 6)))
        sig = SuperSignature(2, 3)
        for k in (5, 6):
            units.append(("branch-generalized", f"branch generalized {sig} k={k}", (sig, k)))
        for sig, k in ((SuperSignature(3, 2), 6), (SuperSignature(2, 3), 5)):
            for target in ("H", "Ht"):
                units.append(("gt", f"gt {sig} k={k} target={target}", (sig, k, target)))
        units.append(("ck", "ck round trips", (_ck_polynomials(rng),)))
    elif workload == "verify-sweep":
        units = [
            ("verify", suite, (suite, os.path.join(tmpdir, f"verify-{suite}.json")))
            for suite in VERIFY_SUITES
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(units)
    return units


# -- the timed calls ---------------------------------------------------------


def _ck_round_trips(polys):
    out = []
    for p in polys:
        data = superharm.ck_data(p, CK_DEGREE)
        out.append((data, superharm.ck_extend(data), superharm.ck_extend_recursive(data)))
    return out


def _verify_suite(suite, path):
    return superharm.cli.main(["verify", "--suite", suite, "--format", "json", "--output", path])


# Looked up through the package at call time, so a traced run reaches the
# wrapped names.
_CALLS = {
    "fischer": lambda sig, k: superharm.fischer_decomposition(sig, k),
    "theoremA": lambda sig, k: superharm.verify_theorem_A(sig, k),
    "branch": lambda sig, k: superharm.branch_harmonic(sig, k),
    "branch-generalized": lambda sig, k: superharm.branch_generalized(sig, k),
    "gt": lambda sig, k, target: superharm.verify_gt_basis(sig, k, target),
    "ck": _ck_round_trips,
    "verify": _verify_suite,
}


def run(units) -> list:
    """Make every call of the workload; an exception is kept as the result
    of its unit, so one failing operation does not hide the others."""
    results = []
    for kind, _, args in units:
        try:
            results.append(_CALLS[kind](*args))
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            results.append(exc)
    return results


# -- answers -----------------------------------------------------------------


def _checks(checks):
    return [[name, ok] for name, ok in checks]


def _fischer_fp(rep):
    return {
        "summands": [[s.kind, s.degree, s.rpower, s.dim] for s in rep.summands],
        "suppressed": list(rep.suppressed),
        "total_dim": rep.total_dim,
        "space_dim": rep.space_dim,
        "verified": rep.verified,
    }


def _theorem_a_fp(rep):
    return {
        "exceptional": rep.exceptional,
        "dim_h": rep.dim_h,
        "dim_ht": rep.dim_ht,
        "dim_socle": rep.dim_socle,
        "dim_mirror": rep.dim_mirror,
        "quotient_dim": rep.quotient_dim,
        "checks": _checks(rep.checks),
        "verified": rep.verified,
    }


def _branch_fp(rep):
    return {
        "mode": rep.mode,
        "lhs_kind": rep.lhs_kind,
        "lhs_dim": rep.lhs_dim,
        "summands": [[s.kind, s.degree, s.multiplicity, s.dim] for s in rep.summands],
        "checks": _checks(rep.checks),
        "verified": rep.verified,
    }


def _gt_fp(rep):
    return {
        "size": rep.size,
        "expected_dim": rep.expected_dim,
        "flagged": list(rep.flagged),
        "checks": _checks(rep.checks),
        "verified": rep.verified,
    }


_REPORT_FP = {
    "fischer": _fischer_fp,
    "theoremA": _theorem_a_fp,
    "branch": _branch_fp,
    "branch-generalized": _branch_fp,
    "gt": _gt_fp,
}


def _dims_used(kind, args) -> list[tuple[int, int, int]]:
    """(m, n, k) of every P_k the unit's answers depend on."""
    if kind in ("fischer", "theoremA", "gt"):
        sig, k = args[0], args[1]
        return [(sig.m, sig.n, k)]
    if kind in ("branch", "branch-generalized"):
        sig, k = args
        lo = sig.m - 1
        return [(sig.m, sig.n, k), (sig.m, sig.n, k - 2), (lo, sig.n, k), (lo, sig.n, k - 1)]
    if kind == "ck":
        m, n = CK_SIGNATURE
        return [(m, n, CK_DEGREE), (m, n, CK_DEGREE - 2), (m - 1, n, CK_DEGREE), (m - 1, n, CK_DEGREE - 1)]
    suite = args[0]
    return [(m, n, k) for m, n in VERIFY_GRID for k in range(VERIFY_KMAX[suite] + 1)]


def _dims_ok(dims) -> bool:
    return all(
        superharm.space_dimension(SuperSignature(m, n), k) == closed_form_dim(m, n, k)
        for m, n, k in dims
    )


def _ck_outcomes(polys, triples):
    """One verdict per polynomial: the boundary and normal slots equal the
    x_m^0 and x_m^1 slices of p, read off its terms here, and both
    extensions give p back.  Also a hash of every data triple."""
    digest = hashlib.sha256()
    verdicts = []
    for p, (data, closed, recursive) in zip(polys, triples):
        boundary, normal = {}, {}
        for mono, c in p.terms.items():
            e = mono.powers[-1]
            if e <= 1:
                (boundary if e == 0 else normal)[SuperMonomial(mono.powers[:-1], mono.fermions)] = c
        lower = data.lower_signature
        verdicts.append(
            data.boundary == SuperPolynomial(lower, boundary)
            and data.normal == SuperPolynomial(lower, normal)
            and closed == p
            and recursive == p
        )
        for part in (data.boundary, data.normal, data.laplacian):
            digest.update(superharm.format_polynomial(part).encode())
            digest.update(b"\n")
    return verdicts, digest.hexdigest()


def _read_report(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, json.loads(raw)


def load_expected(workload: str) -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)[workload]


def check(units, results, expected: dict | None) -> dict:
    """Compare every answer with the expected fingerprints.

    Returns the operations as (name, failed) pairs, the fingerprints and
    the names of the units whose fingerprint differs from the expected one
    or is missing.  With expected=None only the fingerprints are taken.
    """
    ops: list[tuple[str, bool]] = []
    fingerprints: dict = {}
    mismatches: list[str] = []
    for (kind, name, args), result in zip(units, results):
        if kind == "verify" and not isinstance(result, Exception):
            try:
                raw, payload = _read_report(args[1])
            except (OSError, ValueError) as exc:
                result = exc
        if isinstance(result, Exception):
            fp = {"error": f"{type(result).__name__}: {result}"}
        elif kind == "ck":
            verdicts, digest = _ck_outcomes(args[0], result)
            fp = {"count": len(verdicts), "passed": sum(verdicts), "data_sha256": digest}
        elif kind == "verify":
            fp = {
                "exit_code": result,
                "total": payload["total"],
                "failed": payload["failed"],
                "sha256": hashlib.sha256(raw).hexdigest(),
            }
        else:
            fp = _REPORT_FP[kind](result)
        fp["dims_match_closed_form"] = _dims_ok(_dims_used(kind, args))
        fingerprints[name] = fp

        if kind == "ck":
            # Seed dependent: checked by exact identities, not against a file.
            matches = (
                "error" not in fp
                and fp["dims_match_closed_form"]
                and fp["passed"] == fp["count"] == CK_POLYNOMIALS
            )
        else:
            matches = expected is None or fp == expected.get(name)
        if not matches:
            mismatches.append(name)

        if isinstance(result, Exception):
            ops.append((name, True))
        elif kind == "ck":
            ops.extend(
                (f"ck round trip #{i}", not (ok and matches)) for i, ok in enumerate(verdicts)
            )
        elif kind == "verify":
            ops.extend((c["name"], not (c["ok"] and matches)) for c in payload["checks"])
        else:
            ops.append((name, not (result.verified and matches)))

    if expected is not None:
        missing = set(expected) - set(fingerprints)
        mismatches.extend(sorted(missing))
    return {"ops": ops, "fingerprints": fingerprints, "mismatches": mismatches}
