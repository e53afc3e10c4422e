"""Command-line interface: subcommands, formats, exit codes, determinism."""

import csv
import io
import json
import math
import warnings
from pathlib import Path

import pytest

from descentsum import BRUTE_FORCE_CAP
from descentsum.cli import main
from descentsum.spectral import build_transfer
from descentsum.words import load_scheme

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def table_rows(out):
    lines = [ln for ln in out.splitlines() if ln.strip()]
    header = lines[0].split()
    rows = []
    for ln in lines[1:]:
        cells = ln.split()
        if cells[0].endswith(":"):
            break  # summary lines follow the data rows
        if len(cells) == len(header):
            rows.append(dict(zip(header, cells)))
    return header, rows


def test_oracle_sec6_agreement(capsys):
    rc, out, err = run(capsys, "oracle", "--preset", "sec6", "--n", "4")
    assert rc == 0
    assert "agreement: true" in out
    header, rows = table_rows(out)
    assert "alpha" in header
    assert {r["method"] for r in rows} == {"dp", "brute", "operator"}
    assert all(r["alpha"] == "26" for r in rows)


def test_oracle_all_routes_at_the_brute_force_cap(capsys):
    rc, out, _ = run(capsys, "oracle", "--preset", "sec5-1", "--n", str(BRUTE_FORCE_CAP))
    assert rc == 0
    assert "agreement: true" in out
    _, rows = table_rows(out)
    assert [r["method"] for r in rows] == ["dp", "brute", "operator"]


def test_oracle_single_method_and_refinement(capsys):
    rc, out, _ = run(capsys, "oracle", "--preset", "no-peaks", "--n", "10",
                     "--method", "dp")
    assert rc == 0
    _, rows = table_rows(out)
    assert rows[0]["alpha"] == "512"
    rc, out, _ = run(capsys, "oracle", "--preset", "sec6", "--n", "3",
                     "--method", "dp", "--start", "b", "--end", "b")
    assert rc == 0
    _, rows = table_rows(out)
    assert rows[0]["alpha"] == "2"
    rc, _, err = run(capsys, "oracle", "--preset", "sec6", "--n", "1", "--end", "b")
    assert rc == 2
    assert "error: start/end refinements require n >= 2" in err
    rc, out, _ = run(capsys, "oracle", "--preset", "sec5-1", "--n", "5", "--start", "a")
    assert rc == 0
    _, rows = table_rows(out)
    assert [r["alpha"] for r in rows] == ["51"] * 3  # half of alpha_5 = 102
    rc, _, err = run(capsys, "oracle", "--preset", "sec5-1", "--n", "2", "--end", "b")
    assert rc == 2
    assert "error: start/end refinements require n >= 3" in err
    rc, _, err = run(capsys, "oracle", "--preset", "no-descents", "--n", "5",
                     "--start", "a")
    assert rc == 2
    assert "error: start/end refinements are defined only for m >= 2" in err


def test_oracle_brute_example(capsys):
    rc, out, _ = run(capsys, "oracle", "--preset", "sec5-1", "--n", "4",
                     "--method", "brute")
    assert rc == 0
    _, rows = table_rows(out)
    assert rows[0]["alpha"] == "22"


def test_oracle_brute_over_cap_is_usage_error(capsys):
    rc, out, err = run(capsys, "oracle", "--preset", "sec6", "--n", "12",
                       "--method", "brute")
    assert rc == 2
    assert "dp" in err


@pytest.mark.parametrize(
    "argv", [["oracle", "--n", "4"], ["spectrum"], ["constants"], ["verify"]],
    ids=lambda argv: argv[0],
)
def test_scheme_commands_require_a_scheme(capsys, argv):
    # argparse refuses before any command runs or imports what it needs
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: one of the arguments --scheme --preset is required" in err


def test_unknown_preset_is_usage_error(capsys):
    rc, _, err = run(capsys, "oracle", "--preset", "nope", "--n", "4")
    assert rc == 2
    assert "available" in err


def test_malformed_scheme_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.scheme"
    bad.write_text("m = 2\nwt qq = 1\n")
    rc, _, err = run(capsys, "oracle", "--scheme", str(bad), "--n", "4")
    assert rc == 2
    assert "line 2" in err


def test_scheme_file_round_trip(tmp_path, capsys):
    f = tmp_path / "tilted.scheme"
    f.write_text("m = 2\nwt aa = 1/2\nwt2 b = 3\n")
    rc, out, _ = run(capsys, "oracle", "--scheme", str(f), "--n", "5",
                     "--method", "dp")
    assert rc == 0
    _, rows = table_rows(out)
    assert rows  # parses and counts without error


def test_spectrum_sec51_table(capsys):
    rc, out, _ = run(capsys, "spectrum", "--preset", "sec5-1")
    assert rc == 0
    header, rows = table_rows(out)
    assert header[0] == "lambda_re"
    top = rows[0]
    assert abs(float(top["lambda_re"]) - 0.9240358576) < 1e-8
    assert abs(float(top["lambda_im"])) < 1e-10
    assert top["simple"] == "true"


def test_spectrum_sec6_single_root(capsys):
    rc, out, _ = run(capsys, "spectrum", "--preset", "sec6")
    assert rc == 0
    _, rows = table_rows(out)
    assert len(rows) == 1
    assert abs(float(rows[0]["lambda_re"]) - 1.0) < 1e-10


def test_spectrum_top_keeps_conjugate_pairs(capsys):
    rc, out, _ = run(capsys, "spectrum", "--preset", "sec5-1", "--top", "3")
    assert rc == 0
    _, rows = table_rows(out)
    assert len(rows) == 3
    ims = sorted(float(r["lambda_im"]) for r in rows)
    assert abs(ims[0] + ims[2]) < 1e-12  # the pair survived truncation intact


def test_spectrum_region_flags(capsys):
    rc, out, _ = run(capsys, "spectrum", "--preset", "sec5-1",
                     "--min-modulus", "0.1", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["params"]["min_modulus"] == 0.1
    mods = [row["abs_lambda"] for row in doc["rows"]]
    assert len(mods) == 14  # the winding number's count above 0.1
    assert all(m > 0.1 for m in mods)
    bad_flags = [("--min-modulus", bad) for bad in ("0", "-1", "x", "inf")]
    bad_flags += [("--top", "-1")]
    for flag, bad in bad_flags:
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--preset", "sec5-1", flag, bad])
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --min-modulus: invalid float value: 'x'" in err
    assert "argument --top: must be nonnegative, got '-1'" in err
    with pytest.raises(SystemExit):
        main(["verify", "--preset", "sec5-1", "--tol", "abc"])
    assert "argument --tol: invalid float value: 'abc'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["spectrum", "--preset", "sec5-1", "--real-range", "0.5:2"])


def test_constants_sec6_values(capsys):
    rc, out, _ = run(capsys, "constants", "--preset", "sec6")
    assert rc == 0
    _, rows = table_rows(out)
    assert abs(float(rows[0]["const_re"]) - 1.0861612696) < 1e-9
    # the pairings with psi are in the scale of the left null vector, which
    # the constant does not see; their ratio is the scheme's
    ratio = float(rows[0]["phi_psi_re"]) / float(rows[0]["kappa_psi_re"])
    assert abs(ratio - 0.0735758882343 / 0.282692907903) < 1e-9


def test_constants_decompose_the_pair_once(capsys, monkeypatch):
    # the contour kernel and every eigenfunction read one decomposition of
    # A - B into generalized eigenspaces
    import descentsum.linalg as linalg
    import descentsum.spectral as spectral

    calls, invariant_subspaces = [], linalg.invariant_subspaces

    def counted(*args):
        calls.append(args)
        return invariant_subspaces(*args)

    monkeypatch.setattr(linalg, "invariant_subspaces", counted)
    monkeypatch.setattr(spectral, "invariant_subspaces", counted)
    rc, out, _ = run(capsys, "constants", "--preset", "sec5-1")
    assert rc == 0 and len(table_rows(out)[1]) == 26
    assert len(calls) == 1


# reversal-symmetric, m = 4: A - B has the simple eigenvalues 0.496815 and
# 0.5, which the cluster tolerance of 1e-3 ||A - B||_1 merges into one
# cluster that fails the null space test
MERGED_SIMPLE_PAIR = (
    "m = 4\nwt aaaa = 1/2\nwt aaab = 0\nwt aaba = -1/2\nwt aabb = 0\n"
    "wt abaa = -1/2\nwt abab = 1/2\nwt abba = 1\nwt abbb = 3\nwt baaa = 0\n"
    "wt baab = -1/2\nwt baba = 1/2\nwt babb = 2\nwt bbaa = 0\nwt bbab = 2\n"
    "wt bbba = 3\nwt bbbb = 3\n"
)


def test_constants_of_a_merged_cluster_of_simple_eigenvalues(tmp_path, capsys):
    f = tmp_path / "merged.scheme"
    f.write_text(MERGED_SIMPLE_PAIR)
    rc, out, err = run(capsys, "constants", "--scheme", str(f), "--top", "4",
                       "--min-modulus", "0.1")
    assert rc == 0, err
    _, rows = table_rows(out)
    assert len(rows) == 4
    assert abs(float(rows[0]["lambda_re"]) - 1.37308301916) < 1e-10
    assert abs(float(rows[0]["const_re"]) - 0.58884132657) < 1e-10


def test_spectrum_where_a_cluster_is_not_one_jordan_block(capsys):
    # m = 5: A - B has 16 simple eigenvalues, two of them 0.49938 and 0.5,
    # which the cluster tolerance merges; split again, each is a 1 x 1 block
    scheme = Path(__file__).parent / "schemes" / "cluster-split-5.scheme"
    pair = build_transfer(load_scheme(scheme.read_text()))
    assert pair.blocks.powers is not None and len(pair.blocks.centre) == pair.dim
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "spectrum", "--scheme", str(scheme),
                           "--min-modulus", "0.1")
    assert rc == 0, err
    _, rows = table_rows(out)
    assert len(rows) == 60
    lams = [complex(float(r["lambda_re"]), float(r["lambda_im"])) for r in rows]
    # 40-digit mpmath roots of det(I - z B gamma(zC)), lambda = 1/z
    for want in (0.029963636136337 - 0.466548951482465j,
                 -0.722272163234825 - 0.422965904837906j):
        assert min(abs(lam - want) for lam in lams) <= 1e-11 * abs(want)


def test_boundary_weights_need_no_symmetry(tmp_path, capsys):
    # symmetric windows, lopsided boundary weights: constants and verify run
    f = tmp_path / "ends.scheme"
    f.write_text(
        "m = 3\nwt aaa = 0\nwt bbb = 0\n"
        "wt1 aa = 1/2\nwt1 ab = 2\nwt2 ba = -1\nwt2 bb = 3\n"
    )
    rc, out, err = run(capsys, "verify", "--scheme", str(f), "--n-max", "24")
    assert rc == 0, err
    _, rows = table_rows(out)
    assert [int(r["n"]) for r in rows] == list(range(3, 25))
    assert all(float(r["abs_error"]) <= float(r["bound"]) for r in rows)
    assert float(rows[-1]["abs_error"]) < 1e-15
    # one constant per eigenvalue of sec5-1, whose windows these are
    rc, out, _ = run(capsys, "constants", "--scheme", str(f))
    assert rc == 0
    _, rows = table_rows(out)
    _, spec = table_rows(run(capsys, "spectrum", "--preset", "sec5-1")[1])
    assert [r["lambda_re"] for r in rows] == [r["lambda_re"] for r in spec]


def test_verify_sec51_top1(capsys):
    rc, out, _ = run(capsys, "verify", "--preset", "sec5-1", "--top", "1")
    assert rc == 0
    assert "r_hat: 0.493852" in out
    _, rows = table_rows(out)
    last = rows[-1]
    assert int(last["n"]) == 14
    assert float(last["abs_error"]) < float(last["bound"])


def test_verify_sec6(capsys):
    rc, out, _ = run(capsys, "verify", "--preset", "sec6", "--n-max", "12")
    assert rc == 0
    assert "none (all found eigenvalues used)" in out
    _, rows = table_rows(out)
    errs = {int(r["n"]): float(r["abs_error"]) for r in rows}
    assert errs[12] < 1e-9


@pytest.mark.parametrize(
    "preset",
    ["sec5-1", "sec5-2", "sec6", "no-descents", "no-peaks", "alternating", "all-ones"],
)
def test_real_eigenvalues_get_real_constants(capsys, preset):
    # A, B, kappa, mu and the null vector are real at a real lambda, so its
    # constant and pairings are: no rounding residue is left in their
    # imaginary parts to add up in verify's prediction
    rc, out, _ = run(capsys, "constants", "--preset", preset, "--format", "json")
    rows = json.loads(out)["rows"] if rc == 0 else []
    assert rc == 0 or preset == "no-peaks"  # not reversal-symmetric
    for row in rows:
        if row["lambda_im"] == 0.0:
            for name in ("const", "phi_mu", "kappa_psi", "phi_psi"):
                assert row[f"{name}_im"] == 0.0, (name, row)


def test_verify_sec52_has_no_imaginary_residue(capsys):
    # the rounding in the imaginary parts of real lambdas' constants (2.25e-9
    # at lambda = -0.0539) added up to an imaginary residue that failed it
    for n_max in ("14", "40"):
        rc, _, err = run(capsys, "verify", "--preset", "sec5-2", "--n-max", n_max)
        assert rc == 0, err
        assert "imaginary residue" not in err


def test_verify_bound_stops_at_float_resolution(capsys):
    # past n = 21 the decay bound would fall below what float64 resolves
    rc, out, err = run(capsys, "verify", "--preset", "sec5-1", "--n-max", "24")
    assert rc == 0, err
    # negative control: one eigenvalue against a tight bound still fails
    rc, _, err = run(capsys, "verify", "--preset", "sec5-1", "--top", "1",
                     "--tol", "1e-3")
    assert rc == 1
    assert "exceeds the decay bound" in err


def test_verify_envelope_underflows_at_large_n(capsys):
    # every found eigenvalue of sec6 is used, so the bound is the envelope
    # tol * 4^n/(n + 1)!, 4 twice the largest weight: from n = 170 its
    # (n + 1)! no longer converts to a float, and in logs the envelope falls
    # to 0, under the 1e-13 relative floor
    rc, out, err = run(capsys, "verify", "--preset", "sec6", "--n-max", "400",
                       "--format", "json")
    assert rc == 0, err
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == list(range(2, 401))
    for r in rows:
        n, exact = r["n"], r["alpha_over_n_factorial"]
        envelope = 3 * 4.0**n / math.factorial(n + 1) if n < 170 else 0.0
        assert r["bound"] == pytest.approx(max(envelope, 1e-13 * exact), rel=1e-11)


def test_a_window_past_the_matrix_cap_is_a_usage_error(tmp_path, capsys, monkeypatch):
    import descentsum.constants as constants
    import descentsum.spectral as spectral

    def barred(scheme):
        raise AssertionError("the transfer pair was built")

    for module in (spectral, constants):
        monkeypatch.setattr(module, "build_transfer", barred)
    f = tmp_path / "m8.scheme"
    f.write_text("m = 8\nwt aaaaaaaa = 0\n")
    for command in ("spectrum", "constants", "verify"):
        rc, out, err = run(capsys, command, "--scheme", str(f))
        assert (rc, out) == (2, ""), err
        assert err.startswith(
            "error: window length m = 8 needs transfer matrices of dimension "
            "128, above the cap 64\n"
        )
    # the exact routes have no cap: only the identity has eight ascents
    rc, out, err = run(capsys, "oracle", "--scheme", str(f), "--n", "9",
                       "--method", "dp", "--format", "json")
    assert rc == 0, err
    assert json.loads(out)["rows"][0]["alpha"] == str(math.factorial(9) - 1)
    # a window past the cap of the scheme tables is refused by every command
    # as the file is parsed, before any of its 2^m words is listed
    f.write_text("m = 40\n")
    for argv in (["oracle", "--n", "5"], ["spectrum"], ["constants"], ["verify"]):
        rc, out, err = run(capsys, *argv, "--scheme", str(f))
        assert (rc, out) == (2, ""), err
        assert err.startswith(
            "error: line 1: window length m = 40 is above the cap 16\n"
        )


def test_library_errors_are_check_failures(capsys, monkeypatch):
    # verify imports predict_alpha when it runs, so the patch goes to the
    # module that defines it
    import descentsum.constants as constants

    for exc in (ValueError("prediction has imaginary residue 1e-3"),
                OverflowError("matrix 1-norm 800 exceeds the exp overflow bound")):
        def fail(*args, exc=exc):
            raise exc

        monkeypatch.setattr(constants, "predict_alpha", fail)
        rc, out, err = run(capsys, "verify", "--preset", "sec6")
        assert rc == 1
        assert f"check failed: {exc}\n" in err
        assert "Traceback" not in err
        assert out == ""


ASYMMETRIC = ROOT / "tests" / "schemes" / "asymmetric-3.scheme"


def test_constants_and_verify_run_on_an_asymmetric_scheme(capsys):
    # no window weight equals its reversal's, and the boundary weights are
    # lopsided too: the constants come from the left null vector of P(lambda)
    rc, out, err = run(capsys, "constants", "--scheme", str(ASYMMETRIC))
    assert rc == 0, err
    _, rows = table_rows(out)
    # the top constant from the exact Taylor series of f (ROADMAP item 15)
    assert abs(float(rows[0]["const_re"]) - 2.69422688033) <= 1e-9 * 2.69422688033
    # above |lambda| = 0.1: the eigenvalues below carry constants up to 5e6,
    # and with them the sum falls inside the decay bound only from n = 15
    rc, out, err = run(
        capsys, "verify", "--scheme", str(ASYMMETRIC), "--min-modulus", "0.1",
        "--n-max", "30",
    )
    assert rc == 0, err
    _, rows = table_rows(out)
    assert [int(r["n"]) for r in rows] == list(range(3, 31))


def test_spectrum_top_on_an_asymmetric_scheme(tmp_path, capsys):
    f = tmp_path / "lop.scheme"
    f.write_text("m = 3\nwt aab = 0\n")
    for top, count in (("0", 11), ("1", 1)):
        rc, out, _ = run(capsys, "spectrum", "--scheme", str(f), "--top", top)
        assert rc == 0
        _, rows = table_rows(out)
        assert len(rows) == count
    # the json record names the flags that chose those rows
    rc, out, _ = run(capsys, "spectrum", "--scheme", str(f), "--top", "1",
                     "--min-modulus", "0.2", "--format", "json")
    assert rc == 0
    assert json.loads(out)["params"] == {"min_modulus": 0.2, "top": 1}


def test_verify_validation(capsys):
    rc, _, err = run(capsys, "verify", "--preset", "sec6", "--n-max", "1")
    assert rc == 2
    for bad in ("-1", "0", "nan", "inf", "-inf"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--preset", "sec6", f"--tol={bad}"])
        assert exc.value.code == 2
    err = capsys.readouterr().err
    for bad in ("nan", "-inf"):
        assert f"argument --tol: must be a finite positive number, got '{bad}'" in err
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--preset", "sec6", "--n", "-1"])
    assert exc.value.code == 2
    assert "argument --n: must be nonnegative, got '-1'" in capsys.readouterr().err


def test_sequence_default(capsys):
    rc, out, _ = run(capsys, "sequence")
    assert rc == 0
    assert "integral-equation check through order 12: ok" in out
    assert "fails as expected" in out
    _, rows = table_rows(out)
    by_n = {int(r["n"]): r for r in rows}
    assert by_n[4]["total"] == "26"
    assert by_n[4]["bb"] == "9"
    assert by_n[2]["nearest_bb"] == "ok"
    assert by_n[2]["nearest_aa"] == "-"  # below its threshold
    assert by_n[12]["derangement_ok"] == "true"


def test_sequence_rejects_other_presets(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sequence", "--preset", "sec5-1"])
    assert exc.value.code == 2


def test_sequence_n_max_validation(capsys):
    rc, _, err = run(capsys, "sequence", "--n-max", "3")
    assert rc == 2


def test_json_format(capsys):
    rc, out, _ = run(capsys, "oracle", "--preset", "sec6", "--n", "4",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "oracle"
    assert "agreement: true" in doc["summary"]
    assert any(row["alpha"] == "26" for row in doc["rows"])


def test_json_spectrum_numbers_are_numbers(capsys):
    rc, out, _ = run(capsys, "spectrum", "--preset", "sec6", "--format", "json")
    doc = json.loads(out)
    assert isinstance(doc["rows"][0]["lambda_re"], float)


def test_csv_format(capsys):
    rc, out, _ = run(capsys, "spectrum", "--preset", "sec6", "--format", "csv")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert abs(float(rows[0]["lambda_re"]) - 1.0) < 1e-10


def test_stdout_is_deterministic(capsys):
    _, out1, _ = run(capsys, "spectrum", "--preset", "sec5-1", "--format", "json")
    _, out2, _ = run(capsys, "spectrum", "--preset", "sec5-1", "--format", "json")
    assert out1 == out2


def test_timing_goes_to_stderr_not_stdout(capsys):
    rc, out, err = run(capsys, "oracle", "--preset", "sec6", "--n", "4")
    assert "elapsed" in err
    assert "elapsed" not in out


def test_bad_flag_value_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--preset", "sec6", "--n", "4", "--method", "nope"])
    assert exc.value.code == 2
