"""Command line interface.

    superharm fischer --m 2 --n 3 --kmax 8
    superharm branch --m 3 --n 3 --k 5
    superharm branch --m 2 --n 3 --k 4 --generalized
    superharm gt-basis --m 1 --n 1 --k 1
    superharm verify --suite fischer --format json

Exit codes: 0 success, 1 a verification failed, 2 usage error (bad
arguments, degree out of range, precondition violations, an --output that
cannot be written).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict

from .branching import branch_generalized, branch_harmonic
from .ck import ck_data, ck_extend, ck_extend_recursive
from .gtbasis import gt_basis, verify_gt_basis
from .harmonics import exceptional_indices, fischer_decomposition, verify_theorem_A
from .operators import sl2_relations_check
from .superpoly import (
    SuperPolynomial,
    SuperSignature,
    format_polynomial,
    monomial_basis,
    space_dimension,
)

SCHEMA_VERSION = "1"
DEFAULT_GUARD = 12
# Largest dim P_k a command may build; (4|8) at k=10 has 23552 monomials.
WORK_BUDGET = 100_000

_GRID = (
    (1, 1),
    (2, 1),
    (2, 2),
    (3, 2),
    (2, 3),
    (0, 2),
    (3, 0),
)

_SUITE_KMAX = {"sl2": 4, "fischer": 6, "theoremA": 6, "ck": 4, "branching": 5, "gt": 5}


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superharm",
        description="Exact harmonic analysis on polynomial superspaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, signature=True, k=False, kmax=False):
        if signature:
            p.add_argument("--m", type=int, required=True, help="bosonic variables")
            p.add_argument("--n", type=int, required=True, help="fermionic pairs")
        if k:
            p.add_argument("--k", type=int, help="degree")
        if kmax:
            p.add_argument("--kmax", type=int, help="run all degrees up to this bound")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write the result to this file instead of stdout")
        p.add_argument(
            "--guard",
            type=int,
            default=DEFAULT_GUARD,
            help=f"refuse degrees above this bound (default {DEFAULT_GUARD})",
        )

    p = sub.add_parser("fischer", help="decompose P_k into harmonic components")
    add_common(p, k=True, kmax=True)

    p = sub.add_parser("branch", help="branch (generalized) harmonics one bosonic variable down")
    add_common(p, k=True)
    p.add_argument(
        "--generalized",
        action="store_true",
        help="branch Ht_k at an exceptional degree instead of H_k",
    )

    p = sub.add_parser("gt-basis", help="print a chain-adapted basis, one element per line")
    add_common(p, k=True)
    p.add_argument("--target", choices=("H", "Ht"), default="H")

    p = sub.add_parser("verify", help="run an exact verification suite")
    p.add_argument("--suite", choices=_SUITE_RUNNERS, required=True)
    p.add_argument("--m", type=int, help="restrict to one signature (with --n)")
    p.add_argument("--n", type=int, help="restrict to one signature (with --m)")
    p.add_argument("--kmax", type=int, help="override the suite degree bound")
    add_common(p, signature=False)
    return parser


def _checked_degree(value: int, guard: int, name: str = "k") -> int:
    if value < 0:
        raise UsageError(f"{name} must be nonnegative, got {value}")
    if value > guard:
        raise UsageError(
            f"{name}={value} exceeds the guard bound {guard}; "
            "raise --guard to compute this"
        )
    return value


def _checked_work(sig: SuperSignature, degrees) -> None:
    """Refuse, before any basis is built, degrees whose dim P_k (the closed
    form, nothing listed) exceeds WORK_BUDGET."""
    for k in degrees:
        dim = space_dimension(sig, k)
        if dim > WORK_BUDGET:
            raise UsageError(
                f"dim P_{k} = {dim} for signature {sig} exceeds the work budget "
                f"{WORK_BUDGET}"
            )


def _signature(m: int, n: int) -> SuperSignature:
    try:
        return SuperSignature(m, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _checked_input(args) -> tuple[SuperSignature, list[int]]:
    """Signature and degrees of fischer, branch or gt-basis: exactly one of
    --k and --kmax (only fischer has --kmax), within the guard and the work
    budget."""
    sig = _signature(args.m, args.n)
    kmax = getattr(args, "kmax", None)
    if (args.k is None) == (kmax is None):
        need = "exactly one of --k or --kmax" if "kmax" in args else "--k"
        raise UsageError(f"{args.command} needs {need}")
    if args.k is not None:
        degrees = [_checked_degree(args.k, args.guard)]
    else:
        degrees = list(range(_checked_degree(kmax, args.guard, "kmax") + 1))
    _checked_work(sig, degrees)
    return sig, degrees


def _checked_output(path: str) -> None:
    """Refuse, before any work, an --output that is a directory, whose
    directory is missing, or that cannot be written.  Nothing is opened, so
    an existing file is not truncated before the result is ready."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = errno.EISDIR
    elif not os.path.isdir(directory):
        reason = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        reason = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {path}: {os.strerror(reason)}")


def _check_dicts(checks) -> list[dict]:
    return [{"name": name, "ok": ok} for name, ok in checks]


def _report_fields(rep) -> dict:
    """A report's dataclass fields, less the signature that the envelope
    carries: each check as {name, ok}, index sets by role only."""
    fields = asdict(rep)
    del fields["signature"]
    if "checks" in fields:
        fields["checks"] = _check_dicts(rep.checks)
    sets = fields.get("index_sets")
    if sets is not None:
        fields["index_sets"] = {
            role: sets[role] for role in ("exceptional", "suppressed", "ordinary")
        }
    return fields


def _write(args, fields: dict, text: str) -> None:
    """Write a command's result to --output or stdout: in JSON the
    schema_version, the command and its fields, otherwise the text."""
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **fields}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc.strerror}") from None


# -- fischer -----------------------------------------------------------------


def _fischer_text(sig, reports) -> str:
    blocks = []
    for rep in reports:
        lines = [f"signature {sig} degree {rep.k}"]
        if rep.summands:
            lines.append(f"  P_{rep.k} = " + " (+) ".join(s.describe() for s in rep.summands))
        else:
            lines.append(f"  P_{rep.k} = 0")
        if rep.suppressed:
            lines.append("  suppressed degrees: " + ", ".join(map(str, rep.suppressed)))
        dims = " + ".join(str(s.dim) for s in rep.summands) if rep.summands else "0"
        lines.append(f"  component dimensions: {dims} = {rep.space_dim}")
        for note in rep.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  verified: {'yes' if rep.verified else 'NO'}")
        if rep.failure_witness:
            lines.append(f"  failure: {rep.failure_witness}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _run_fischer(args) -> int:
    sig, degrees = _checked_input(args)
    reports = [fischer_decomposition(sig, k) for k in degrees]
    fields = {"signature": asdict(sig), "reports": [_report_fields(r) for r in reports]}
    _write(args, fields, _fischer_text(sig, reports))
    return 0 if all(r.verified for r in reports) else 1


# -- branch ------------------------------------------------------------------


def _branch_text(sig, rep) -> str:
    lines = [f"signature {sig} degree {rep.k}", f"  mode: {rep.mode}"]
    lhs = f"{rep.lhs_kind}_{rep.k}"
    lines.append(f"  {lhs} = " + " (+) ".join(s.describe() for s in rep.summands))
    if rep.index_sets is not None and rep.index_sets.suppressed:
        lines.append(
            "  suppressed degrees: " + ", ".join(map(str, rep.index_sets.suppressed))
        )
    lines.append(f"  dimension: {rep.lhs_dim}")
    for note in rep.notes:
        lines.append(f"  note: {note}")
    lines.append("  checks:")
    for name, ok in rep.checks:
        lines.append(f"    [{'ok' if ok else 'FAIL'}] {name}")
    lines.append(f"  verified: {'yes' if rep.verified else 'NO'}")
    return "\n".join(lines) + "\n"


def _run_branch(args) -> int:
    sig, (k,) = _checked_input(args)
    try:
        rep = branch_generalized(sig, k) if args.generalized else branch_harmonic(sig, k)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    fields = {"signature": asdict(sig), "report": _report_fields(rep)}
    _write(args, fields, _branch_text(sig, rep))
    return 0 if rep.verified else 1


# -- gt-basis ----------------------------------------------------------------


def _run_gt_basis(args) -> int:
    sig, (k,) = _checked_input(args)
    elements = [
        {"label": el.label.text(), "polynomial": format_polynomial(el.polynomial)}
        for el in gt_basis(sig, k, args.target)
    ]
    fields = {
        "signature": asdict(sig),
        "k": k,
        "target": args.target,
        "size": len(elements),
        "elements": elements,
    }
    _write(args, fields, "".join(f"{e['label']}\t{e['polynomial']}\n" for e in elements))
    return 0


# -- verify ------------------------------------------------------------------


def _suite_sl2(sigs, kmax):
    for sig in sigs:
        for k in range(kmax + 1):
            for chk in sl2_relations_check(sig, k):
                yield f"sl2 {sig} k={k}: {chk.name}", chk.ok


def _suite_per_degree(sigs, kmax, name, report):
    """One check per signature and degree: report(sig, k) verifies."""
    for sig in sigs:
        for k in range(kmax + 1):
            yield f"{name} {sig} k={k}", report(sig, k).verified


def _suite_ck(sigs, kmax):
    for sig in sigs:
        if sig.m == 0:
            continue
        for k in range(kmax + 1):
            ok = True
            for mono in monomial_basis(sig, k):
                p = SuperPolynomial(sig, {mono: 1})
                data = ck_data(p, k)
                if ck_extend(data) != p or ck_extend_recursive(data) != p:
                    ok = False
                    break
            yield f"ck round trip {sig} k={k}", ok


def _suite_branching(sigs, kmax):
    for sig in sigs:
        if sig.m == 0:
            continue
        for k in range(kmax + 1):
            yield f"branch {sig} k={k}", branch_harmonic(sig, k).verified
        window = sorted(exceptional_indices(sig.M))
        for k in window:
            if k <= kmax:
                yield f"branch generalized {sig} k={k}", branch_generalized(sig, k).verified


def _suite_gt(sigs, kmax):
    for sig in sigs:
        for k in range(kmax + 1):
            for target in ("H", "Ht"):
                rep = verify_gt_basis(sig, k, target)
                yield f"gt {sig} k={k} target={target}", rep.verified


# The per-degree suites look their report up by name when they run, so a
# wrapper later bound over that name (a tracer) is the one called.
_SUITE_RUNNERS = {
    "sl2": _suite_sl2,
    "fischer": lambda sigs, kmax: _suite_per_degree(
        sigs, kmax, "fischer", fischer_decomposition
    ),
    "theoremA": lambda sigs, kmax: _suite_per_degree(
        sigs, kmax, "theoremA", verify_theorem_A
    ),
    "ck": _suite_ck,
    "branching": _suite_branching,
    "gt": _suite_gt,
}


def _run_verify(args) -> int:
    if (args.m is None) != (args.n is None):
        raise UsageError("--m and --n must be given together")
    if args.m is not None:
        sigs = [_signature(args.m, args.n)]
    else:
        sigs = [SuperSignature(m, n) for m, n in _GRID]
    kmax = args.kmax if args.kmax is not None else _SUITE_KMAX[args.suite]
    kmax = _checked_degree(kmax, args.guard, "kmax")
    for sig in sigs:
        _checked_work(sig, range(kmax + 1))
    results = list(_SUITE_RUNNERS[args.suite](sigs, kmax))
    if not results:
        raise UsageError(
            f"suite {args.suite} has no check for signature "
            f"{', '.join(map(str, sigs))} up to kmax={kmax}"
        )
    failed = [name for name, ok in results if not ok]
    fields = {
        "suite": args.suite,
        "checks": _check_dicts(results),
        "total": len(results),
        "failed": len(failed),
        "verified": not failed,
    }
    lines = [f"[{'ok' if ok else 'FAIL'}] {name}" for name, ok in results]
    tally = f"{len(failed)} failed" if failed else "all passed"
    lines.append(f"suite {args.suite}: {len(results)} checks, {tally}")
    _write(args, fields, "".join(line + "\n" for line in lines))
    return 1 if failed else 0


_RUNNERS = {
    "fischer": _run_fischer,
    "branch": _run_branch,
    "gt-basis": _run_gt_basis,
    "verify": _run_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output:
            _checked_output(args.output)
        return _RUNNERS[args.command](args)
    except UsageError as exc:
        print(f"superharm: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
