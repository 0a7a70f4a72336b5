"""End-to-end tests for the command line interface.

Every test drives ``main(argv)`` directly and inspects exit code, stdout,
and stderr; nothing here shells out.
"""

from fractions import Fraction
import json

import pytest

from conftest import FIXTURES
from flowreject.analysis import CheckReport
from flowreject.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from flowreject.instance import parse_instance
from flowreject.rational import parse_rational

E1 = str(FIXTURES / "e1_instance.jsonl")
E3 = str(FIXTURES / "e3_instance.jsonl")
IDLING = str(FIXTURES / "idling_instance.jsonl")
COUNTER_TAIL = str(FIXTURES / "counter_tail_instance.jsonl")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SINGLETON_TEXT = (
    '{"machines": 1, "epsilon": "1/2"}\n'
    '{"id": 0, "r": 0, "w": 5, "p": {"m0": 2}}\n'
)


class TestGen:
    def test_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "gen", "--n", "6", "--seed", "11")
        code2, out2, _ = run_cli(capsys, "gen", "--n", "6", "--seed", "11")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert len(out1.splitlines()) == 7  # header plus one line per job

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run_cli(capsys, "gen", "--n", "6", "--seed", "11")
        _, out2, _ = run_cli(capsys, "gen", "--n", "6", "--seed", "12")
        assert out1 != out2

    def test_n_zero_emits_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--n", "0")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["machines"] == 2
        assert header["epsilon"] == "1/2"

    def test_epsilon_flag_lands_in_header(self, capsys):
        _, out, _ = run_cli(capsys, "gen", "--n", "0", "--epsilon", "1/4")
        assert json.loads(out.splitlines()[0])["epsilon"] == "1/4"

    def test_output_is_a_valid_instance(self, capsys):
        _, out, _ = run_cli(capsys, "gen", "--n", "8", "--m", "3", "--seed", "5")
        inst = parse_instance(out)
        assert inst.machines == 3
        assert len(inst.jobs) == 8
        for job in inst.jobs:
            for p in job.proc.values():
                assert 1 <= p <= 10

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "gen.jsonl"
        code, out, _ = run_cli(
            capsys, "gen", "--n", "4", "--seed", "2", "--out", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        _, stdout_copy, _ = run_cli(capsys, "gen", "--n", "4", "--seed", "2")
        assert target.read_text() == stdout_copy


class TestRunVerify:
    def test_run_passes_on_known_instance(self, capsys):
        code, out, err = run_cli(capsys, "run", E1)
        assert code == EXIT_OK
        assert err == ""
        report = json.loads(out)
        assert report["report_version"] == 1
        assert report["jobs"] == 3
        assert report["epsilon"] == "1/2"
        assert [c["name"] for c in report["checks"]] == [
            "structural_properties",
            "dual_feasibility",
            "main_inequality",
            "weight_balance",
            "alpha_lower_bound",
            "theorem_chain",
        ]
        assert all(c["passed"] for c in report["checks"])
        totals = report["totals"]
        assert totals["alg_weighted_flow"] == 2
        assert totals["rejected_fraction_preempt"] == "1/3"
        assert totals["rejected_fraction_weight_gap"] == "1/3"
        assert report["oracle"] is None

    def test_run_repeat_is_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "run", E1)
        _, out2, _ = run_cli(capsys, "run", E1)
        assert out1 == out2

    def test_run_matches_golden_report(self, capsys):
        code, out, _ = run_cli(capsys, "run", E1)
        assert code == EXIT_OK
        assert out == (FIXTURES / "e1_report.json").read_text()

    def test_verify_appends_monotonicity_check(self, capsys):
        _, out, _ = run_cli(capsys, "verify", E1)
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert names[-1] == "monotonicity"
        assert len(names) == 7

    def test_run_keeps_instance_file_epsilon(self, capsys):
        # no --epsilon flag: the file's value must survive, not the default
        code, out, _ = run_cli(capsys, "run", E3)
        assert code == EXIT_OK
        assert json.loads(out)["epsilon"] == "1/4"

    def test_run_epsilon_override(self, capsys):
        code, out, _ = run_cli(capsys, "run", E3, "--epsilon", "1/2")
        assert code == EXIT_OK
        assert json.loads(out)["epsilon"] == "1/2"

    @pytest.mark.parametrize("bad", ["1", "0", "3/2", "x", "0.5"])
    def test_run_rejects_bad_epsilon_override(self, capsys, bad):
        code, out, err = run_cli(capsys, "run", E1, "--epsilon", bad)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")

    def test_run_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "run", E1, "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["jobs"] == 3

    def test_missing_instance_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "nope.jsonl"))
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    def test_corrupt_instance_file(self, capsys, tmp_path):
        path = write_instance(tmp_path, "bad.jsonl", "this is not json\n")
        code, _, err = run_cli(capsys, "run", path)
        assert code == EXIT_USAGE
        assert "line 1" in err

    def test_empty_instance_runs_clean(self, capsys, tmp_path):
        path = write_instance(
            tmp_path, "empty.jsonl", '{"machines": 1, "epsilon": "1/2"}\n'
        )
        code, out, _ = run_cli(capsys, "run", path)
        assert code == EXIT_OK
        totals = json.loads(out)["totals"]
        assert totals["total_weight"] == 0
        assert totals["alg_weighted_flow"] == 0

    def test_failing_check_sets_exit_code(self, capsys, monkeypatch):
        import flowreject.cli as cli

        def forced_failure(cert, outcome, objs):
            return [
                CheckReport(
                    name="forced",
                    passed=False,
                    margin=Fraction(1),
                    witness=(0, Fraction(0), None),
                )
            ]

        monkeypatch.setattr(cli, "run_all_checks", forced_failure)
        code, out, _ = run_cli(capsys, "run", E1)
        assert code == EXIT_CHECK_FAILED
        report = json.loads(out)
        assert report["checks"][0]["passed"] is False
        assert report["checks"][0]["witness"] == {
            "machine": 0,
            "time": 0,
            "time_decimal": "0.000000",
            "job": None,
        }


class TestOracle:
    def test_single_job(self, capsys, tmp_path):
        path = write_instance(tmp_path, "one.jsonl", SINGLETON_TEXT)
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == EXIT_OK
        section = json.loads(out)["oracle"]
        assert section["sequences"] == [[0]]
        assert section["opt_cost"] == 10
        assert section["empirical_ratio"] == 1
        assert section["theorem_bound"] == 330
        assert section["weak_duality_ok"] is True

    def test_rejection_beats_opt_on_flow(self, capsys):
        # the heavy late job preempts the light early one; served flow drops
        # below the serve-everything optimum
        code, out, _ = run_cli(capsys, "oracle", IDLING)
        assert code == EXIT_OK
        section = json.loads(out)["oracle"]
        assert section["opt_cost"] == 112
        assert section["empirical_ratio"] == "25/28"
        assert parse_rational(section["empirical_ratio"]) < 1
        baselines = section["baselines"]
        assert set(baselines) == {"hdf-no-reject", "fcfs"}
        for sub in baselines.values():
            assert parse_rational(sub["weighted_flow"]) >= 112

    def test_too_many_jobs_for_default_limit(self, capsys):
        code, _, err = run_cli(capsys, "oracle", COUNTER_TAIL)
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    def test_oracle_limit_flag(self, capsys, tmp_path):
        path = write_instance(tmp_path, "one.jsonl", SINGLETON_TEXT)
        code, _, err = run_cli(capsys, "oracle", path, "--oracle-limit", "0")
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    def test_non_grid_instance_skips_lp(self, capsys, tmp_path):
        path = write_instance(
            tmp_path,
            "frac.jsonl",
            '{"machines": 1, "epsilon": "1/2"}\n'
            '{"id": 0, "r": 0, "w": 2, "p": {"m0": "1/2"}}\n',
        )
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == EXIT_OK
        section = json.loads(out)["oracle"]
        assert section["oracle_slot_lp_cost"] is None
        assert section["weak_duality_ok"] is None


class TestSweep:
    def test_two_epsilons(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--count", "1",
            "--n", "5",
            "--seed", "3",
            "--epsilons", "1/4,1/2",
        )
        assert code == EXIT_OK
        agg = json.loads(out)
        assert agg["report_version"] == 1
        assert agg["command"] == "sweep"
        assert agg["count"] == 1
        assert agg["seed"] == 3
        assert agg["all_passed"] is True
        assert [row["epsilon"] for row in agg["rows"]] == ["1/4", "1/2"]
        for row in agg["rows"]:
            eps = parse_rational(row["epsilon"])
            assert row["runs"] == 1
            assert parse_rational(row["max_rejected_fraction_preempt"]) <= eps
            assert parse_rational(row["max_rejected_fraction_weight_gap"]) <= 4 * eps
            assert row["checks_passed"] == row["checks_total"] == 6
            # 5 jobs fit under the default oracle limit
            assert row["max_empirical_ratio"] is not None

    def test_oracle_skipped_above_limit(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "sweep",
            "--count", "1",
            "--n", "9",
            "--oracle-limit", "3",
            "--epsilons", "1/2",
        )
        row = json.loads(out)["rows"][0]
        assert row["max_empirical_ratio"] is None
        assert row["max_empirical_ratio_decimal"] is None

    def test_empty_epsilons_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--epsilons", "", "--count", "1")
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    def test_zero_count_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--count", "0")
        assert code == EXIT_USAGE
        assert err.startswith("error:")


class TestConfig:
    def test_flag_beats_config_beats_default(self, capsys, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(
            "# generator settings\n"
            "n = 3\n"
            "seed = 9\n"
            "mean-interarrival = 5\n"
            "\n"
        )
        _, from_config, _ = run_cli(
            capsys, "gen", "--config", str(cfg), "--n", "4"
        )
        _, from_flags, _ = run_cli(
            capsys, "gen", "--n", "4", "--seed", "9", "--mean-interarrival", "5"
        )
        assert from_config == from_flags
        assert len(from_config.splitlines()) == 5  # flag n=4 wins over config n=3

    def test_config_epsilon_applies_to_run(self, capsys, tmp_path):
        cfg = tmp_path / "eps.cfg"
        cfg.write_text("epsilon = 1/2\n")
        _, out, _ = run_cli(capsys, "run", E3, "--config", str(cfg))
        assert json.loads(out)["epsilon"] == "1/2"

    def test_unknown_config_key_names_line_and_key(self, capsys, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("# shared by gen and sweep\ncount = 3\nsede = 5\n")
        code, _, err = run_cli(capsys, "gen", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "line 3" in err and "'sede'" in err
        # A key of another command is allowed: one file serves several.
        cfg.write_text("count = 3\nn = 2\n")
        code, out, _ = run_cli(capsys, "gen", "--config", str(cfg))
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        code, _, err = run_cli(capsys, "gen", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "line 1" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gen", "--config", str(tmp_path / "no.cfg"))
        assert code == EXIT_USAGE
        assert err.startswith("error:")


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--count", "1", "--n", "-1"],
            ["sweep", "--count", "1", "--epsilons", "2"],
            ["sweep", "--count", "1", "--p-range", "5:1"],
            ["gen", "--config", "{tmp}/seed.cfg"],
            ["run", E1, "--out", "{tmp}/missing/x.json"],
            ["gen", "--config", "{tmp}/underscore.cfg"],
            ["gen", "--config", "{tmp}/arabic.cfg"],
            ["gen", "--config", "{tmp}/utf16.cfg"],
            ["gen", "--p-range", "1_0:20"],
            ["run", "{tmp}/utf16.jsonl"],
            ["gen", "--n", "1_0"],
            ["gen", "--m", "\u0662"],
            ["gen", "--n", "abc"],
            ["gen", "--config", "{tmp}/typo.cfg"],
            ["run", E1, "--epsilon", "+2/4"],
            ["verify", E1, "--epsilon", "2/4"],
            ["run", E1, "--epsilon", "1/2 "],
            ["gen", "--epsilon", "02/8"],
            ["sweep", "--count", "1", "--epsilons", "1/4,+1/2"],
            ["run", E1, "--config", "{tmp}/eps.cfg"],
            ["gen", "--n", "02"],
            ["gen", "--seed", "+7"],
            ["gen", "--p-range", "+1:010"],
            ["gen", "--config", "{tmp}/zero.cfg"],
            ["sweep", "--n", "3", "--count", "1", "--oracle-limit", "-1"],
            ["oracle", E1, "--oracle-limit", "-3"],
            ["sweep", "--n", "3", "--count", "1", "--config", "{tmp}/limit.cfg"],
        ],
    )
    def test_bad_usage_exits_2_with_one_error_line(self, capsys, tmp_path, argv):
        (tmp_path / "seed.cfg").write_text("seed = abc\n")
        (tmp_path / "typo.cfg").write_text("n = 3\nsede=5\n")
        (tmp_path / "eps.cfg").write_text("epsilon = 2/4\n")
        (tmp_path / "underscore.cfg").write_text("n = 1_0\n")
        (tmp_path / "zero.cfg").write_text("n = 02\n")
        (tmp_path / "limit.cfg").write_text("oracle-limit = -2\n")
        (tmp_path / "arabic.cfg").write_text("seed = \u0661\n", encoding="utf-8")
        # A UTF-16 byte-order mark is not valid UTF-8.
        (tmp_path / "utf16.cfg").write_bytes(b"\xff\xfes\x00")
        (tmp_path / "utf16.jsonl").write_bytes(b"\xff\xfe" + SINGLETON_TEXT.encode("utf-16-le"))
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()
