"""CLI behavior: formats, determinism, exit codes."""

import json

import pytest

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


def test_exact_requires_fraction_inputs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pmf", "--mode", "sooner", "--success", "run:2", "--failure",
              "run:2", "--theta", "0.5", "--q", "1", "--n-max", "3", "--exact"])
    assert exc.value.code == 2


def test_bad_params_exit_2(capsys, tmp_path):
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
