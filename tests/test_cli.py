"""CLI behavior: formats, determinism, exit codes."""

import json

import pytest

from qbtrials import cli
from qbtrials.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pmf_exact_csv_bytes(capsys):
    args = ("pmf", "--mode", "sooner", "--success", "run:2", "--failure", "run:2",
            "--theta", "1/2", "--q", "1", "--n-max", "3", "--exact", "--format", "csv")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out == "n,probability\n2,1/2\n3,1/4\n"
    code2, out2, _ = run_cli(capsys, *args)
    assert code2 == 0 and out2 == out


def test_pmf_float_mode(capsys):
    code, out, _ = run_cli(
        capsys, "pmf", "--mode", "sooner", "--success", "run:2", "--failure",
        "run:2", "--theta", "0.5", "--q", "1.0", "--n-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,probability"
    assert float(lines[1].split(",")[1]) == pytest.approx(0.5)


def test_pmf_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "pmf", "--mode", "later", "--success", "freq:2", "--failure",
        "run:2", "--theta", "1/2", "--q", "9/10", "--n-max", "6",
        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == {"theta": "1/2", "q": "9/10"}
    assert payload["quota"] == {"mode": "later", "success": "freq:2", "failure": "run:2"}
    assert [row["n"] for row in payload["support"]] == [4, 5, 6]


def test_longest_table(capsys):
    code, out, _ = run_cli(
        capsys, "longest", "--n", "2", "--theta", "1/2", "--q", "1/2")
    assert code == 0
    assert out == "n,probability\n0,3/8\n1,3/8\n2,1/4\n"


def test_exact_values_of_any_size(capsys):
    # q's denominator is the Mersenne prime 2**521 - 1, so at n = 10 the
    # exact values pass the 4,300 digits str() converts by default; they
    # print in full, and the interpreter's limit is left as it was
    import sys
    from fractions import Fraction

    from qbtrials import ModelParams, longest_run_pmf

    limit = sys.get_int_max_str_digits()
    prime = 2**521 - 1
    code, out, _ = run_cli(capsys, "longest", "--n", "10", "--theta", "1/2",
                           "--q", f"1/{prime}", "--exact")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    params = ModelParams(Fraction(1, 2), Fraction(1, prime))
    values = [longest_run_pmf(params, 10, k) for k in range(11)]
    sys.set_int_max_str_digits(0)
    try:
        want = "n,probability\n" + "".join(f"{k},{v}\n" for k, v in enumerate(values))
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == want
    assert max(len(line) for line in out.splitlines()) > 2 * 4300


def test_longest_cdf_and_joint(capsys):
    code, out, _ = run_cli(
        capsys, "longest", "--n", "2", "--theta", "1/2", "--q", "1/2", "--cdf")
    assert code == 0
    assert out == "n,probability\n0,3/8\n1,3/4\n2,1\n"
    code, out, _ = run_cli(
        capsys, "longest", "--n", "2", "--theta", "1/2", "--q", "1/2",
        "--joint", "1", "le", "1", "le")
    assert code == 0
    assert out == "n,probability\n2,3/8\n"


def test_oracle_matches_pmf_output(capsys):
    base = ("--mode", "sooner", "--success", "run:2", "--failure", "run:2",
            "--theta", "1/2", "--q", "1", "--n-max", "3")
    _, out_pmf, _ = run_cli(capsys, "pmf", *base, "--exact")
    _, out_oracle, _ = run_cli(capsys, "oracle", *base, "--exact")
    assert out_pmf == out_oracle


def test_verify_default_small_file_grid(capsys, tmp_path):
    grid = {"thetas": ["1/2"], "qs": ["1/2", "1"], "k_pairs": [[2, 2]], "n_max": 7}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "--grid", str(path),
                             "--report", str(report))
    assert code == 0
    assert "0 mismatches" in out
    payload = json.loads(report.read_text())
    assert all(item["verdict"] == "match" for item in payload)


def test_refused_verify_leaves_an_old_report(capsys, tmp_path):
    # a scan refused over the enumeration budget or for want of points
    # exits 2 and leaves an existing report byte for byte as it was; a
    # scan that succeeds then replaces it whole
    report = tmp_path / "report.json"
    old = b"old\n" * 4096
    report.write_bytes(old)
    path = tmp_path / "grid.json"
    for grid in ({"thetas": ["1/2"], "qs": ["1/2"], "k_pairs": [[2, 2]], "n_max": 21},
                 {"thetas": ["1/2"], "qs": ["1/2"], "k_pairs": [[30, 30]], "n_max": 5}):
        path.write_text(json.dumps(grid))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--grid", str(path), "--report", str(report)])
        assert exc.value.code == 2, grid
        assert report.read_bytes() == old, grid
    path.write_text(json.dumps({"thetas": ["1/2"], "qs": ["1/2"], "k_pairs": [[2, 2]],
                                "n_max": 5}))
    code, out, _ = run_cli(capsys, "verify", "--grid", str(path), "--report", str(report))
    assert code == 0 and "0 mismatches" in out
    payload = json.loads(report.read_text())
    assert payload and all(item["verdict"] == "match" for item in payload)


def test_exact_requires_fraction_inputs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pmf", "--mode", "sooner", "--success", "run:2", "--failure",
              "run:2", "--theta", "0.5", "--q", "1", "--n-max", "3", "--exact"])
    assert exc.value.code == 2


def test_bad_params_exit_2(capsys, tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["pmf", "--mode", "sooner", "--success", "run:2", "--failure",
              "run:2", "--theta", "3/2", "--q", "1", "--n-max", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--samples", "10", "--seed", "1", "--theta", "1/2",
              "--q", "0", "--n", "4", "--atmost", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--samples", "0", "--seed", "1", "--theta", "1/2",
              "--q", "1/2", "--n", "4", "--atmost", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--samples", "10", "--seed", "1", "--theta", "1/2",
              "--q", "1/2", "--n", "-1", "--atmost", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["pmf", "--mode", "sooner", "--success", "run:2", "--failure",
              "run:2", "--theta", "0.5", "--q", "1", "--n-max", "3",
              "--precision", "-1"])
    assert exc.value.code == 2
    # each refusal names its cause on stderr
    refused = (
        (["pmf", "--mode", "sooner", "--success", "run:2", "--failure", "run:2",
          "--theta", "half", "--q", "1/2", "--n-max", "3"], "not a number: 'half'"),
        (["pmf", "--mode", "later", "--success", "run:2", "--failure", "freq:3",
          "--theta", "1/2", "--q", "1/2", "--n-max", "4"], "--n-max below the support minimum 5"),
        (["longest", "--n", "-1", "--theta", "1/2", "--q", "1/2"], "--n must be >= 0"),
        (["mc", "--samples", "10", "--seed", "1", "--theta", "1/2", "--q", "1/2", "--n", "4"],
         "mc needs either --atmost or --mode/--success/--failure"),
    )
    for argv, message in refused:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and message in capsys.readouterr().err, argv
    for quota_flag in (("--mode", "sooner"), ("--success", "run:2"), ("--failure", "run:2")):
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--samples", "10", "--seed", "1", "--theta", "1/2",
                  "--q", "1/2", "--n", "4", "--atmost", "2", *quota_flag])
        assert exc.value.code == 2
    # a zero denominator on every subcommand that reads --theta and --q
    commands = (["pmf", "--mode", "sooner", "--success", "run:2", "--failure", "run:2",
                 "--n-max", "3"],
                ["oracle", "--mode", "sooner", "--success", "run:2", "--failure", "run:2",
                 "--n-max", "3"],
                ["longest", "--n", "3"],
                ["mc", "--samples", "10", "--seed", "1", "--n", "4", "--atmost", "2"])
    for command in commands:
        for theta, q in (("1/0", "1/2"), ("1/2", "0/0")):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--theta", theta, "--q", q])
            assert exc.value.code == 2
    for bad in ({"thetas": ["3/2"], "qs": ["1/2"], "k_pairs": [[2, 2]], "n_max": 5},
                {"thetas": ["1/0"], "qs": ["1/2"], "k_pairs": [[2, 2]], "n_max": 5},
                {"thetas": ["1/2"], "qs": ["0/0"], "k_pairs": [[2, 2]], "n_max": 5},
                # counts that are not JSON integers are refused, not truncated
                {"thetas": ["1/2"], "qs": ["1/2"], "k_pairs": [[2, 2]], "n_max": 6.9},
                {"thetas": ["1/2"], "qs": ["1/2"], "k_pairs": [[2.5, 2]], "n_max": 6},
                {"thetas": ["1/2"], "qs": ["1/2"], "k_pairs": [[2, 2]], "n_max": "6"},
                {"thetas": ["1/2"], "qs": ["1/2"], "k_pairs": [[0, 2]], "n_max": 5},
                # probabilities that are JSON floats or booleans are refused,
                # not read as binary fractions or as 0/1
                {"thetas": [0.1], "qs": ["1/2"], "k_pairs": [[2, 2]], "n_max": 5},
                {"thetas": [True], "qs": ["1/2"], "k_pairs": [[2, 2]], "n_max": 5},
                {"thetas": ["1/2"], "qs": [0.5], "k_pairs": [[2, 2]], "n_max": 5},
                {"thetas": ["1/2"], "qs": [False], "k_pairs": [[2, 2]], "n_max": 5},
                {"thetas": 5, "qs": ["1/2"], "k_pairs": [[2, 2]], "n_max": 5},
                {"thetas": ["1/2"], "qs": ["1/2"], "k_pairs": [2], "n_max": 5},
                [["1/2"], ["1/2"], [[2, 2]], 5],
                # grids with no point to check
                {"thetas": [], "qs": ["1/2"], "k_pairs": [[2, 2]], "n_max": 5},
                {"thetas": ["1/2"], "qs": ["1/2"], "k_pairs": [[2, 2]], "n_max": 1},
                {"thetas": ["1/2"], "qs": ["1/2"], "k_pairs": [[2, 2]], "n_max": -3}):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--grid", str(path)])
        assert exc.value.code == 2
    # a report path that cannot be written is refused before the scan runs
    def no_scan(grid):
        raise AssertionError("the scan ran before the report path was checked")

    monkeypatch.setattr(cli, "differential_scan", no_scan)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--grid", "default", "--report", str(tmp_path / "missing" / "r.json")])
    assert exc.value.code == 2


def test_oracle_budget_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--mode", "sooner", "--success", "run:2", "--failure",
              "run:2", "--theta", "1/2", "--q", "1", "--n-max", "25",
              "--exact"])
    assert exc.value.code == 2


def test_bad_quota_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pmf", "--mode", "sooner", "--success", "run:0", "--failure",
              "run:2", "--theta", "1/2", "--q", "1", "--n-max", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["pmf", "--mode", "nope", "--success", "run:2", "--failure",
              "run:2", "--theta", "1/2", "--q", "1", "--n-max", "3"])
    assert exc.value.code == 2


def test_bad_joint_relation_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["longest", "--n", "4", "--theta", "1/2", "--q", "1/2",
              "--joint", "1", "lt", "1", "le"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["longest", "--n", "4", "--theta", "1/2", "--q", "1/2",
              "--joint", "0", "ge", "1", "le"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["longest", "--n", "4", "--theta", "1/2", "--q", "1/2",
              "--joint", "1", "le", "1", "le", "--cdf"])
    assert exc.value.code == 2


def test_mc_deterministic_output(capsys):
    args = ("mc", "--samples", "2000", "--seed", "9", "--theta", "1/2",
            "--q", "1/2", "--n", "6", "--atmost", "2")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out.splitlines()[0] == "estimate,stderr"
    code2, out2, _ = run_cli(capsys, *args)
    assert out2 == out


def test_mc_waiting_event(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--samples", "2000", "--seed", "4", "--theta", "1/2",
        "--q", "1/2", "--n", "4", "--mode", "sooner", "--success", "run:2",
        "--failure", "run:2")
    assert code == 0
    est = float(out.splitlines()[1].split(",")[0])
    assert 0 <= est <= 1
    # a wait that has not ended by trial n never counts as ending at trial 0
    code, out, _ = run_cli(
        capsys, "mc", "--samples", "10", "--seed", "1", "--theta", "1/2",
        "--q", "1/2", "--n", "0", "--mode", "sooner", "--success", "run:2",
        "--failure", "run:2")
    assert code == 0
    assert out == "estimate,stderr\n0,0\n"


def test_one_parser_per_process(capsys, monkeypatch, tmp_path):
    # in-process calls share one parser, and each prints what a fresh
    # process prints for the same arguments; a repeated call, what the
    # first printed
    import os
    import subprocess
    import sys

    import qbtrials

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"thetas": ["2/5"], "qs": ["3/4"], "k_pairs": [[2, 3]],
                                "n_max": 8}))
    calls = [
        ("pmf", "--mode", "later", "--success", "run:2", "--failure", "freq:2",
         "--theta", "2/5", "--q", "3/4", "--n-max", "7"),
        ("longest", "--n", "5", "--theta", "0.37", "--q", "0.81", "--cdf"),
        ("verify", "--grid", str(grid)),
        ("pmf", "--mode", "sooner", "--success", "run:0", "--failure", "run:2",
         "--theta", "1/2", "--q", "1", "--n-max", "3"),
        ("verify", "--grid", str(grid)),
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qbtrials.__file__)))
    fresh = {}
    try:
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            got = (code, *capsys.readouterr())
            if argv not in fresh:
                proc = subprocess.run([sys.executable, "-m", "qbtrials.cli", *argv], env=env,
                                      capture_output=True, text=True, timeout=120, check=False)
                fresh[argv] = (proc.returncode, proc.stdout, proc.stderr)
            assert got == fresh[argv], argv
    finally:
        cli._parser.cache_clear()
    assert [code for code, _, _ in fresh.values()] == [0, 0, 0, 2]
    assert built == [1]
