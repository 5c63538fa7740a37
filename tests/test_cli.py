"""Command line behavior: output shapes, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys
import tracemalloc

import pytest

from superharm import cli
from superharm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gt_basis_text_lines(capsys):
    code, out, _ = run(capsys, "gt-basis", "--m", "1", "--n", "1", "--k", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    polys = [line.split("\t")[1] for line in lines]
    assert polys == ["t1", "t2", "x1"]
    labels = [line.split("\t")[0] for line in lines]
    assert all(":" in lab and "/" in lab for lab in labels)


def test_fischer_json_shape(capsys):
    code, out, _ = run(
        capsys, "fischer", "--m", "2", "--n", "3", "--k", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert payload["command"] == "fischer"
    assert payload["signature"] == {"m": 2, "n": 3}
    (report,) = payload["reports"]
    assert report["verified"] is True
    assert report["suppressed"] == [2]
    assert [(s["kind"], s["degree"], s["rpower"]) for s in report["summands"]] == [
        ("H", 0, 4),
        ("Ht", 4, 0),
    ]
    assert report["space_dim"] == 129  # lifted line (1) plus generalized harmonics (128)


def test_fischer_range(capsys):
    code, out, _ = run(
        capsys, "fischer", "--m", "1", "--n", "1", "--kmax", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["k"] for r in payload["reports"]] == [0, 1, 2, 3]
    assert all(r["verified"] for r in payload["reports"])


def test_branch_json(capsys):
    code, out, _ = run(
        capsys, "branch", "--m", "3", "--n", "3", "--k", "5", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["mode"] == "harmonic"
    assert report["index_sets"]["suppressed"] == [1, 2]
    assert report["verified"] is True


def test_branch_generalized_json(capsys):
    code, out, _ = run(
        capsys,
        "branch", "--m", "2", "--n", "1", "--k", "2", "--generalized",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["lhs_kind"] == "Ht"
    assert report["lhs_dim"] == 8
    assert [s["multiplicity"] for s in report["summands"]] == [2, 1, 1]


def test_verify_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "sl2", "--m", "1", "--n", "1", "--kmax", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["failed"] == 0
    assert payload["total"] == 9  # three relations at each of three degrees


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys,
        "fischer", "--m", "1", "--n", "1", "--k", "2",
        "--format", "json", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "fischer"


@pytest.mark.parametrize(
    "argv",
    [
        ["fischer", "--m", "1", "--n", "1", "--k", "2"],
        ["verify", "--suite", "sl2", "--m", "1", "--n", "1", "--kmax", "1", "--format", "json"],
    ],
)
@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv, where):
    target = tmp_path / "missing" / "out.json" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"superharm: cannot write {target}: ")
    assert "Traceback" not in err


def _forbidden(*args):
    raise AssertionError("the computation was started")


@pytest.mark.parametrize(
    "argv",
    [
        ["fischer", "--m", "1", "--n", "1", "--k", "2"],
        ["verify", "--suite", "fischer", "--m", "1", "--n", "1", "--kmax", "1"],
    ],
)
@pytest.mark.parametrize(
    "where,reason",
    [("missing directory", "No such file or directory"), ("a directory", "Is a directory")],
)
def test_unwritable_output_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, argv, where, reason
):
    monkeypatch.setattr(cli, "fischer_decomposition", _forbidden)
    target = tmp_path / "missing" / "out.json" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err == f"superharm: cannot write {target}: {reason}\n"


def test_output_that_fails_after_the_work_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the directory may vanish while the result is computed
    monkeypatch.setattr(cli, "_checked_output", lambda path: None)
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "fischer", "--m", "1", "--n", "1", "--k", "2", "--output", str(target))
    assert code == 2
    assert err == f"superharm: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["fischer", "--m", "2", "--n", "1", "--k", "-3"],
        ["fischer", "--m", "2", "--n", "1", "--k", "40"],
        ["fischer", "--m", "2", "--n", "1"],
        ["fischer", "--m", "2", "--n", "1", "--k", "2", "--kmax", "3"],
        ["fischer", "--m", "-1", "--n", "1", "--k", "2"],
        ["branch", "--m", "0", "--n", "2", "--k", "1"],
        ["branch", "--m", "2", "--n", "1", "--k", "3", "--generalized"],
        ["branch", "--m", "2", "--n", "1"],
        ["gt-basis", "--m", "1", "--n", "1"],
        ["verify", "--suite", "gt", "--m", "2"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("superharm:")


@pytest.mark.parametrize("suite", ["ck", "branching"])
def test_verify_with_no_check_exits_2(capsys, suite):
    # both suites need a bosonic variable, so (0|4) yields no check
    code, out, err = run(capsys, "verify", "--suite", suite, "--m", "0", "--n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith(f"superharm: suite {suite} has no check for signature (0|4) up to kmax=")


def test_work_budget_refuses_before_any_basis_is_built(capsys, monkeypatch):
    # k=12 passes the degree guard, but dim P_12 of (40|80) is about 1.6e16
    def forbidden(*args):
        raise AssertionError("the decomposition was started")

    monkeypatch.setattr(cli, "fischer_decomposition", forbidden)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "fischer", "--m", "40", "--n", "40", "--k", "12")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("superharm: dim P_12 = 15917556512462440 ")
    assert "work budget" in err
    assert peak < 1 << 20


def test_bad_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_guard_can_be_raised(capsys):
    code, out, _ = run(
        capsys, "fischer", "--m", "0", "--n", "1", "--k", "13", "--guard", "13"
    )
    assert code == 0


def test_byte_determinism_across_processes():
    cmd = [
        sys.executable, "-m", "superharm.cli",
        "gt-basis", "--m", "2", "--n", "2", "--k", "3", "--format", "json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty


# sha256 of the stdout of commands whose bytes must not change when the
# library is optimised; exit code 1 at theoremA is the known (0|4) failure.
_GOLDEN = [
    (["verify", "--suite", "sl2", "--format", "json"], 0,
     "1938e02c6235a733134d6ad033a2c51baba1bb5600b680ec8a75e7a44b5276dd"),
    (["verify", "--suite", "fischer", "--format", "json"], 0,
     "e96d5a6f7f1dc109bdd5eacef5e326dcdba08ffd21e7b55301f7ba87329a9cfa"),
    (["verify", "--suite", "theoremA", "--format", "json"], 1,
     "45aef3bba1c8d55d271392cebacdff786aeea2e51fd9274e411b84d2dbcc4c41"),
    (["verify", "--suite", "ck", "--format", "json"], 0,
     "2b98859169a62af03ee0b8a5786c6324086250eeec50b2ab31f3727d038e8b04"),
    (["verify", "--suite", "branching", "--format", "json"], 0,
     "b63f4c59fcea278c90d12a2b5b94648d1d77f81a88db1d491cb2994ef288b9c8"),
    (["verify", "--suite", "gt", "--format", "json"], 0,
     "2ebb1cbbcd1174839ef4d945691f1504f75452b4b65de3c699a518010bbcebd2"),
    (["fischer", "--m", "0", "--n", "3", "--kmax", "7"], 0,
     "27eb67dbf2baba76c9cfd937784ebfc81c0cbd18fb1a627e9fe9f3ea391a27c1"),
    (["branch", "--m", "2", "--n", "3", "--k", "4", "--generalized"], 0,
     "7744daab59a3fe5e1e68a1a4d18fcccb580fa2dd481fbd1367f8d74d8b66a08f"),
    (["gt-basis", "--m", "0", "--n", "2", "--k", "4", "--target", "Ht", "--format", "json"], 0,
     "12266a1568f307ea48a53a5db43347dfcfbce279ec0adae8dc6852eff642e9d3"),
    # bosonic descent: a1/a2/a3 over a regular lower level (63/57/8 elements)
    (["gt-basis", "--m", "2", "--n", "3", "--k", "5", "--target", "Ht", "--format", "json"], 0,
     "46fded9827c26dbe903026f571596d56ce1c9d5979d0a181fc0882f2e138f76f"),
    # bosonic descent: b3/b4/b5/b6 over an exceptional lower level (32/16/32/32)
    (["gt-basis", "--m", "3", "--n", "2", "--k", "5", "--format", "json"], 0,
     "8832252bdc635557a9296326fca707e9f16cee161ede71dbf296010718146c81"),
    # the fermionic pair recursion: fermionic-0/1/2/3 (5/4/4/1 elements)
    (["gt-basis", "--m", "0", "--n", "3", "--k", "2", "--format", "json"], 0,
     "140df3e111eeb27bb069b6f50d11a9c5ae29b2eb1083c5363dec4f30858e9a43"),
    # fischer JSON over a --kmax range, through the (2|6) window {4, 5, 6}
    (["fischer", "--m", "2", "--n", "3", "--kmax", "6", "--format", "json"], 0,
     "803a9a171556e9f2420e2a28012c144fdf5af77a1458f12858a692a57159e6da"),
    # branch JSON over an exceptional lower level (2|6): counted Ht' dimensions
    (["branch", "--m", "3", "--n", "3", "--k", "5", "--format", "json"], 0,
     "d0af5845761e291bbe2220f5158c86f3597f8be7a3ab2ba3089ebdc1c651e355"),
    # gt-basis text, one tab-separated element per line
    (["gt-basis", "--m", "2", "--n", "3", "--k", "4", "--target", "Ht"], 0,
     "eee2d73a4b5671fa4906132636d8978ba739d9dd807cbe887ecfae54114c618d"),
    # verify text: the "N failed" tally and the "all passed" tally
    (["verify", "--suite", "theoremA"], 1,
     "b35483c32319352ffb679d4e637fbb2745af1ad6798e6d08e23d4326094a6cba"),
    (["verify", "--suite", "sl2"], 0,
     "1ed41fcad9e39e5bb01ff3dacbea22d92f728065096b6caa1cdec74d0f8d2af8"),
    # generalized branch JSON: null index sets, a note, lhs_kind Ht
    (["branch", "--m", "2", "--n", "3", "--k", "4", "--generalized", "--format", "json"], 0,
     "1dad10884d2f7b22c09656efb5379f84db790cb8299b6d29e573c3b81a388734"),
    # classical branch JSON: no exceptional degree one level down
    (["branch", "--m", "2", "--n", "2", "--k", "3", "--format", "json"], 0,
     "75d0b77d50fd09e9341c0dd4c7836c17d46cdc704a5a2f0ea36ecc58e49b7016"),
    # fischer JSON at m = 0: notes and suppressed degrees
    (["fischer", "--m", "0", "--n", "3", "--k", "3", "--format", "json"], 0,
     "b8a355703fefa0cf369987b4475202b99d184283c2e8c333f754ff0d42242afb"),
    # the slot checks on (4|8): boundary and normal at k = 7, and the
    # Laplacian slot at the exceptional degree 6
    (["branch", "--m", "4", "--n", "4", "--k", "7", "--format", "json"], 0,
     "067d4a4763fbf569df5fa60aa275f8666cdb3b47ba1e4bfe24141b3e3fc4c197"),
    (["branch", "--m", "4", "--n", "4", "--k", "6", "--generalized"], 0,
     "641f874c80d0145340d136aec2c58145e377c5dc150965dcdcabca2407237357"),
    # the Fischer certificate on (4|8) past its exceptional window, with the
    # defect kernels at the Ht starts 4 and 6
    (["fischer", "--m", "4", "--n", "4", "--k", "10"], 0,
     "f31b92a0f1b8171bfad16b0718951d40f06fdca251ed058d7050b17379aa79c8"),
    # Ht, the socle and the defect kernels on the (4|8) window 4..6
    (["verify", "--suite", "theoremA", "--m", "4", "--n", "4", "--format", "json"], 0,
     "9aa6a286b598bfc98593a5c66189452ae01e9313a42c78172d55b7b364f4ca68"),
    # the GT descent on (3|4) at k = 6, the size the benchmark's
    # restriction-arith workload builds
    (["gt-basis", "--m", "3", "--n", "2", "--k", "6", "--format", "json"], 0,
     "f1df15b9b29f028cccbd33ebf5bc5c4bf9aea30bb84d609eb9f6b20140f26e11"),
    # the a3 elements of (4|8), extended through the Laplacian slot
    (["gt-basis", "--m", "4", "--n", "4", "--k", "6", "--target", "Ht", "--format", "json"], 0,
     "552c0646ef6fcd5877bff41b6f1419ec65537b668bceb18e51e33800fa9d6812"),
    # the GT step check through the (2|6) window {4, 5, 6}
    (["verify", "--suite", "gt", "--m", "2", "--n", "3", "--kmax", "6", "--format", "json"], 0,
     "b5cbf3f4d76ed2ed5b1e3a45dfd1b4638b20c7debb969fb26ce3ea468d56505a"),
    # the lead certificate on the bosonic factor (4|0) at every degree up
    # to 9, over the (4|8) window and past it
    (["fischer", "--m", "4", "--n", "4", "--kmax", "11", "--format", "json"], 0,
     "5471ec6599389a5ce83c1728786ad21f4504f30dc7ef24ee398a568acc0861b5"),
    # a bosonic-only ring: R_d read straight off L_(d+2)
    (["fischer", "--m", "3", "--n", "0", "--kmax", "8", "--format", "json"], 0,
     "78f98b9ea3a458f9a74b555650eb63c2f48040cf3966fc1c1e62d24a3360b7e7"),
    # Theorem A on (4|8) through its window 4..6 and four degrees past it,
    # and on (2|6) through its window and two degrees past it
    (["verify", "--suite", "theoremA", "--m", "4", "--n", "4", "--kmax", "10", "--format", "json"], 0,
     "d2a95077b9b72c27f19ed9eeae5a8569734af2f50fce984b0a4947721d45dd13"),
    (["verify", "--suite", "theoremA", "--m", "2", "--n", "3", "--kmax", "8", "--format", "json"], 0,
     "88c93b79d6920e1225496d6f29e14e7e556017253cd01f2c424bac43a747506b"),
    # Theorem A on (6|12) up to k = 6, its window 5..8 cut at 6: the mirrors
    # H_3 and H_2 lifted through the factor columns, killed by L_k read the
    # same way
    (["verify", "--suite", "theoremA", "--m", "6", "--n", "6", "--kmax", "6", "--format", "json"], 0,
     "e9d4c999357932a3a66bd2646aede7d47864c3add97d9cd6c6c0e5268baafc90"),
    # Theorem A on (2|8) through its window 5..8: mirrors H_3 .. H_0 lifted
    # by 1 to 4 steps of r2
    (["verify", "--suite", "theoremA", "--m", "2", "--n", "4", "--kmax", "8", "--format", "json"], 0,
     "85930f71a5021c7a6b0179e0c72790486c0579f091292ade72608ea5ecd22634"),
    # generalized branch JSON on (2|8) at the exceptional degree 6: the
    # mirror H_2, lifted to degree 4, is the admissible Laplacian parts
    (["branch", "--m", "2", "--n", "4", "--k", "6", "--generalized", "--format", "json"], 0,
     "8bab2eb4d63bf37cabfb3924e1c71c9a48b001b884946f1d4c0907db3587add1"),
    # the largest GT output: the (4|8) descent at k = 8, one text line per
    # element
    (["gt-basis", "--m", "4", "--n", "4", "--k", "8"], 0,
     "9a16b3c951897deacbe4d6cc58600fc1aa1b9f9ad9f956a6ad5016678531c7e0"),
]


@pytest.mark.parametrize(
    "argv,code,digest", _GOLDEN, ids=[" ".join(argv) for argv, _, _ in _GOLDEN]
)
def test_golden_output_bytes(capsys, argv, code, digest):
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
