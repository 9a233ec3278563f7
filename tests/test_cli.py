import csv
import io
import json
import os
import warnings

import numpy as np
import pytest

import kaczlab as kl
from kaczlab.cli import REPORT_COLUMNS, main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text.split("\n\n")[0])))
    assert rows[0] == list(REPORT_COLUMNS)
    return [dict(zip(rows[0], r)) for r in rows[1:] if r]


def test_solve_smoke(capsys, tmp_path):
    code, out, _ = _run(capsys, "solve", "--gen", "gaussian:60x12", "--engine",
                        "agrak", "--stop", "rse", "--tol", "1e-3",
                        "--check-period", "50", "--seed", "3")
    assert code == 0
    rows = _parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["engine"] == "agrak"
    assert (row["m"], row["n"], row["nnz"]) == ("60", "12", "720")
    assert float(row["RSE"]) <= 1e-3
    assert row["SNR"] == "" and row["speedup_vs_grak"] == ""


def test_solve_json_report_file(capsys, tmp_path):
    report = tmp_path / "out.json"
    code, out, _ = _run(capsys, "solve", "--gen", "gaussian:40x8", "--stop", "lise",
                        "--window-L", "50", "--tol", "1e-5", "--seed", "1",
                        "--format", "json", "--report", str(report))
    assert code == 0 and out == ""
    doc = json.loads(report.read_text())
    assert doc["schema"] == list(REPORT_COLUMNS)
    assert doc["runs"][0]["engine"] == "grak"
    assert doc["runs"][0]["converged"] is True
    assert doc["runs"][0]["stop_kind"] == "lise"


def test_solve_deterministic_minus_walltime(capsys):
    args = ("solve", "--gen", "gaussian:50x10", "--engine", "grak", "--stop",
            "rse", "--tol", "1e-3", "--check-period", "50", "--seed", "9")
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    r1, r2 = _parse_csv(out1)[0], _parse_csv(out2)[0]
    r1.pop("CPU_s"), r2.pop("CPU_s")
    assert r1 == r2


def test_aise_sees_column_steps(capsys):
    # a greedy column step moves only z; aise compared x alone, read 0 there
    # and stopped grak after one step with RSE 1.0
    code, out, _ = _run(capsys, "solve", "--gen", "gaussian:200x30", "--engine", "grak",
                        "--stop", "aise", "--tol", "1e-7", "--seed", "3", "--format", "json")
    assert code == 0
    run = json.loads(out)["runs"][0]
    assert run["converged"] and run["stop_value"] > 0.0
    assert run["iterations"] > 1000
    assert run["final_rse"] < 1e-4


def test_solve_flag_errors(capsys):
    code, _, err = _run(capsys, "solve", "--gen", "gaussian:10x5",
                        "--engine", "rek,grak")
    assert code == 2
    code, _, _ = _run(capsys, "solve")
    assert code == 2
    code, _, _ = _run(capsys, "solve", "--gen", "gaussian:10x5", "--matrix", "a.mtx")
    assert code == 2
    code, _, _ = _run(capsys, "solve", "--gen", "bogus:10x5")
    assert code == 2
    code, _, _ = _run(capsys, "bench", "--gen", "gaussian:10x5", "--engine", "nope")
    assert code == 2


def test_lise_rejects_check_period(capsys):
    # lise checks every --window-L steps; a period it would ignore is an error
    code, out, err = _run(capsys, "solve", "--gen", "gaussian:200x30", "--stop", "lise",
                          "--check-period", "7")
    assert code == 2
    assert out == "" and "check_period" in err
    code, out, _ = _run(capsys, "solve", "--help")
    assert code == 0
    assert "rek-native and grak-native rules (lise checks every L)" in " ".join(out.split())
    # the help names exactly the kinds --stop accepts, less lise
    listed = " ".join(out.split()).split("cadence of the ")[1].split(" rules")[0]
    assert listed.replace(" and ", ", ").split(", ") == ["rse", "aise", "rres", "rek-native",
                                                          "grak-native"]
    code, _, err = _run(capsys, "solve", "--gen", "gaussian:20x5", "--stop", "ase")
    assert code == 2 and "invalid choice" in err


def test_bad_engine_rejected_before_problem_is_built(capsys, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("problem built before the engine list was checked")

    monkeypatch.setattr("kaczlab.cli.gen_gaussian", built)
    monkeypatch.setattr("kaczlab.cli.gen_paralleltomo", built)
    tomo = ("tomo", "--N", "6", "--p", "9", "--engine")
    for argv in (("solve", "--gen", "gaussian:20x5", "--engine", "bogus"),
                 ("solve", "--gen", "gaussian:20x5", "--engine", "grak,rek"),
                 ("bench", "--gen", "gaussian:20x5", "--engine", "grak,bogus"),
                 ("bench", "--gen", "gaussian:20x5", "--engine", "grak,grak"),
                 (*tomo, "bogus"), (*tomo, "grak,grak")):
        code, out, err = _run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: "), argv


_GEN = ("--gen", "gaussian:20x5")
_TOMO = ("tomo", "--N", "6", "--p", "9")


@pytest.mark.parametrize("argv", [
    # each ended in a traceback with exit 1 ...
    ("solve", *_GEN, "--engine", "sampled", "--eta", "0"),
    ("solve", *_GEN, "--engine", "sampled", "--eta", "1.5"),
    (*_TOMO, "--engine", "sampled", "--eta", "0"),
    ("bench", *_GEN, "--engine", "rek,grak,agrak,sampled", "--eta", "0"),
    ("bench", *_GEN, "--reps", "0"),
    ("bench", *_GEN, "--reps", "-2"),
    # ... or ran with the value quietly replaced or clamped
    ("solve", *_GEN, "--stop", "rse", "--check-period", "0"),
    ("solve", *_GEN, "--stop", "rse", "--check-period", "-3"),
    ("solve", *_GEN, "--max-iters", "-4"),
    (*_TOMO, "--iters", "-3"),
], ids=" ".join)
def test_bad_run_flags_exit_2_before_problem_is_built(capsys, monkeypatch, argv):
    def built(*args, **kwargs):
        raise AssertionError("problem built before the run flags were checked")

    monkeypatch.setattr("kaczlab.cli.gen_gaussian", built)
    monkeypatch.setattr("kaczlab.cli.gen_paralleltomo", built)
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == "" and "error:" in err


def test_unmapped_typed_error_exits_2(capsys, monkeypatch):
    def failing_run(*args, **kwargs):
        raise kl.InvalidRatio("sampling ratio must be in (0, 1], got 0")

    monkeypatch.setattr("kaczlab.cli.run", failing_run)
    code, out, err = _run(capsys, "solve", *_GEN, "--no-reference")
    assert code == 2
    assert out == "" and err == "error: sampling ratio must be in (0, 1], got 0\n"


@pytest.mark.parametrize("fmt,size", [("coordinate", "2 2 100000000000000"),
                                      ("coordinate", "2 2 -1"), ("coordinate", "0 0 0"),
                                      ("array", "100000000 100000000")])
def test_size_line_the_file_cannot_hold_exits_3(capsys, tmp_path, fmt, size):
    # the first and last allocated the declared size (MemoryError, exit 1);
    # the other two exited 2 from the matrix constructor
    path = tmp_path / "hostile.mtx"
    path.write_text(f"%%MatrixMarket matrix {fmt} real general\n{size}\n1 1 1.0\n")
    code, out, err = _run(capsys, "solve", "--matrix", str(path))
    assert code == 3
    assert out == "" and err.startswith("error: line 2: ") and err.count("\n") == 1


def test_underflowing_line_norm_exits_3(capsys, tmp_path):
    path = tmp_path / "tiny.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n"
                    "1 1 1e-200\n2 2 1.0\n")
    code, out, err = _run(capsys, "solve", "--matrix", str(path))
    assert code == 3
    assert out == "" and "squared norm underflows to 0" in err


def test_bench_rejects_repeated_engine(capsys):
    # each engine gets one row; a repeat used to report its second set of
    # runs in both rows
    code, out, err = _run(capsys, "bench", "--gen", "gaussian:200x30", "--engine",
                          "grak,grak", "--reps", "1", "--format", "json")
    assert code == 2
    assert out == "" and "grak,grak" in err


def test_solve_missing_matrix_is_ingestion_error(capsys):
    code, _, err = _run(capsys, "solve", "--matrix", "does-not-exist.mtx")
    assert code == 3
    assert "error" in err


def test_solve_oracle_failure(capsys):
    code, _, err = _run(capsys, "solve", "--gen", "gaussian:20x5",
                        "--oracle-tol", "0", "--seed", "2")
    assert code == 4


def test_solve_not_converged_still_writes_report(capsys, tmp_path):
    report = tmp_path / "r.csv"
    code, _, _ = _run(capsys, "solve", "--gen", "gaussian:50x10", "--stop", "rse",
                      "--tol", "1e-12", "--check-period", "50", "--max-iters",
                      "60", "--seed", "4", "--report", str(report))
    assert code == 5
    assert report.exists()
    row = _parse_csv(report.read_text())[0]
    assert row["IT"] == "60"


def test_solve_rule_without_reference(capsys):
    code, _, _ = _run(capsys, "solve", "--gen", "gaussian:30x6", "--stop", "rse",
                      "--no-reference", "--seed", "1")
    assert code == 4


def test_solve_trace_and_bounds(capsys, tmp_path):
    trace = tmp_path / "trace.log"
    code, out, _ = _run(capsys, "solve", "--gen", "gaussian:30x6", "--stop", "lise",
                        "--window-L", "20", "--tol", "1e-6", "--seed", "5",
                        "--bounds", "--trace", str(trace))
    assert code == 0
    assert trace.exists() and trace.read_text().count("\n") > 0
    assert "# bounds" in out
    bounds = dict(line.split(",", 1) for line in
                  out.split("# bounds\n", 1)[1].strip().splitlines())
    assert 0.0 < float(bounds["beta"]) < 1.0


def test_randn_rhs_mode(capsys):
    code, out, _ = _run(capsys, "solve", "--gen", "gaussian:40x8", "--rhs", "randn",
                        "--stop", "lise", "--window-L", "40", "--tol", "1e-5",
                        "--seed", "6")
    assert code == 0


def test_bench_table_shape_and_speedup(capsys):
    code, out, _ = _run(capsys, "bench", "--gen", "gaussian:60x15", "--engine",
                        "rek,grak,agrak,sampled", "--eta", "0.2", "--stop", "rse",
                        "--tol", "1e-3", "--check-period", "50", "--reps", "2",
                        "--seed", "3", "--max-iters", "30000")
    assert code == 0
    rows = _parse_csv(out)
    assert [r["engine"] for r in rows] == ["rek", "grak", "agrak", "sampled"]
    assert all(float(r["speedup_vs_grak"]) > 0 for r in rows)
    grak_row = [r for r in rows if r["engine"] == "grak"][0]
    assert float(grak_row["speedup_vs_grak"]) == pytest.approx(1.0)


def test_bench_single_rep_matches_single_run(capsys):
    args = ("--gen", "gaussian:40x10", "--stop", "rse", "--tol", "1e-3",
            "--check-period", "50", "--seed", "11", "--max-iters", "30000")
    code, bench_out, _ = _run(capsys, "bench", "--engine", "grak", "--reps", "1", *args)
    assert code == 0
    code, solve_out, _ = _run(capsys, "solve", "--engine", "grak", *args)
    assert code == 0
    b = _parse_csv(bench_out)[0]
    s = _parse_csv(solve_out)[0]
    assert b["IT"] == s["IT"] and b["RSE"] == s["RSE"]


def test_gen_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "gen.mtx"
    code, _, _ = _run(capsys, "gen", "--gen", "sparse:50x8:0.2", "--seed", "5",
                      "--out", str(out_path))
    assert code == 0
    mat = kl.read_matrix_market(str(out_path))
    ref = kl.gen_sparse_gaussian(50, 8, 0.2, seed=5)
    np.testing.assert_array_equal(mat.to_dense(), ref.to_dense())

    dense_path = tmp_path / "dense.mtx"
    code, _, _ = _run(capsys, "gen", "--gen", "gaussian:6x4", "--seed", "1",
                      "--out", str(dense_path))
    assert code == 0
    assert kl.read_matrix_market(str(dense_path)).m == 6
    np.testing.assert_array_equal(kl.read_matrix_market(str(dense_path)).to_dense(),
                                  kl.gen_gaussian(6, 4, seed=1).to_dense())

    # the file is written at exactly the path given, whatever its suffix
    code, _, _ = _run(capsys, "gen", "--gen", "sparse:50x8:0.2", "--seed", "5",
                      "--out", str(tmp_path / "g.txt"))
    assert code == 0
    assert sorted(os.listdir(tmp_path)) == ["dense.mtx", "g.txt", "gen.mtx"]
    assert (tmp_path / "g.txt").read_bytes() == out_path.read_bytes()


def test_tomo_images_and_snr(capsys, tmp_path):
    images = tmp_path / "imgs"
    code, out, _ = _run(capsys, "tomo", "--N", "8", "--angles", "0:20:160",
                        "--p", "12", "--iters", "400", "--seed", "2",
                        "--engine", "grak,agrak", "--images", str(images))
    assert code == 0
    rows = _parse_csv(out)
    assert [r["engine"] for r in rows] == ["grak", "agrak"]
    assert all(float(r["SNR"]) > 0 for r in rows)
    assert all(r["IT"] == "400" for r in rows)
    names = sorted(os.listdir(images))
    assert names == ["agrak.pgm", "exact.pgm", "grak.pgm"]
    with open(images / "exact.pgm", "rb") as fh:
        assert fh.read(2) == b"P5"


def test_tomo_zero_iterations_unit_snr(capsys):
    # the zero reconstruction scores exactly one: signal energy over itself
    code, out, _ = _run(capsys, "tomo", "--N", "6", "--angles", "0:30:150",
                        "--p", "9", "--iters", "0", "--seed", "1",
                        "--engine", "grak", "--no-reference")
    assert code == 0
    assert float(_parse_csv(out)[0]["SNR"]) == 1.0


def test_tomo_non_finite_angle_exits_3_without_warning(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, "tomo", "--N", "6", "--p", "5", "--angles", "0,nan")
    assert code == 3
    assert out == "" and err.startswith("error:")
    assert caught == []


def test_reference_oracle_writes_nothing_home(capsys, tmp_path, monkeypatch):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    for name in [k for k in os.environ if k.startswith("KACZLAB_")]:
        monkeypatch.delenv(name)  # no setting may send a write elsewhere
    code, out, _ = _run(capsys, "solve", "--gen", "gaussian:40x10", "--seed", "4")
    assert code == 0 and _parse_csv(out)[0]["RSE"] != ""
    code, out, _ = _run(capsys, "tomo", "--N", "8", "--angles", "0:20:160",
                        "--p", "12", "--iters", "200", "--engine", "grak")
    assert code == 0 and _parse_csv(out)[0]["RSE"] != ""
    assert list(home.iterdir()) == []


def test_help_documents_schema(capsys):
    code, out, _ = _run(capsys, "--help")
    assert code == 0
    assert "speedup_vs_grak" in out
