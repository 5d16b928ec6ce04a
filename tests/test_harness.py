"""Audit orchestration, report emission, CLI behavior."""

import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fairlens import ConfigError, RunConfig, TestConfig, cmd_audit, fairness, harness
from fairlens.cli import main
from fairlens.fairness import HOLDS, INCONCLUSIVE, VIOLATED
from fairlens.harness import (AuditReport, cmd_reproduce_separation,
                              cmd_table, config_from_dict, determinism_digest,
                              emit_report, format_table, report_csv_text,
                              report_from_dict, report_json_bytes,
                              report_to_dict, table_csv_text)

from conftest import verdict_for

QUICK_TEST = TestConfig(alpha=0.01, n_permutations=199, seed=3)


def quick_config(**kwargs):
    defaults = dict(rho1=0.1, rho2=0.9, n=2 * 10**4, seed=42, test=QUICK_TEST)
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestRunConfig:
    def test_invalid_rho_pair(self):
        # an int past str()'s limit on digits is refused without str()
        for rho1, rho2 in [(0.8, 0.7), (10**400, 0.0), (10**5000, 0.0), (0.0, -10**5000)]:
            with pytest.raises(ConfigError):
                RunConfig(rho1=rho1, rho2=rho2)

    def test_sample_size_floor(self):
        with pytest.raises(ConfigError):
            RunConfig(rho1=0.1, rho2=0.9, n=999)

    def test_sample_size_ceiling_bounds_the_audit_heap(self):
        """MAX_N rows at the per-row heap fit the budget and one more row
        does not; RunConfig and the CLI refuse n above the ceiling
        before anything is allocated."""
        per_row = harness.AUDIT_HEAP_BYTES_PER_ROW
        assert harness.MAX_N * per_row <= harness.AUDIT_HEAP_BUDGET_BYTES
        assert (harness.MAX_N + 1) * per_row > harness.AUDIT_HEAP_BUDGET_BYTES
        assert RunConfig(rho1=0.1, rho2=0.9, n=harness.MAX_N)
        with pytest.raises(ConfigError, match="n must be"):
            RunConfig(rho1=0.1, rho2=0.9, n=harness.MAX_N + 1)
        assert main(["audit", "--rho1", "0.1", "--rho2", "0.9",
                     "--n", str(harness.MAX_N + 1)]) == 2

    def test_audit_heap_per_row_within_the_estimate(self):
        """The audit's heap is linear in n; at n = 5e5 its tracemalloc
        peak stays within the per-row figure that MAX_N is derived
        from."""
        n = 500_000
        tracemalloc.start()
        try:
            cmd_audit(RunConfig(rho1=0.1, rho2=0.9, n=n, seed=5,
                                test=TestConfig(seed=5)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= harness.AUDIT_HEAP_BYTES_PER_ROW * n

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_refused(self, seed):
        """A seed is one 64-bit word of the generator key: masking it
        would run seed 0 for 2^64 and record a seed it did not use."""
        with pytest.raises(ConfigError, match="seed must be in"):
            RunConfig(rho1=0.1, rho2=0.9, seed=seed)
        assert RunConfig(rho1=0.1, rho2=0.9, seed=(1 << 64) - 1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True])
    def test_non_integer_seed_refused(self, seed):
        """A float seed used to pass and fail in the generator key."""
        with pytest.raises(ConfigError, match="seed must be an integer"):
            RunConfig(rho1=0.1, rho2=0.9, n=1000, seed=seed)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            RunConfig(rho1=0.1, rho2=0.9, n=1000, test=TestConfig(seed=seed))

    @pytest.mark.parametrize("n", [1e4, 10_000.0, True, "10000"])
    def test_non_integer_n_refused(self, n):
        """A float n used to pass and fail inside numpy's simulation."""
        with pytest.raises(ConfigError, match="n must be an integer"):
            RunConfig(rho1=0.1, rho2=0.9, n=n)

    def test_numpy_numbers_are_kept_as_python_numbers(self):
        cfg = RunConfig(rho1=0.1, rho2=0.9, n=np.int32(5000),
                        test=TestConfig(alpha=np.float64(0.05),
                                        n_permutations=np.int64(199)))
        assert (type(cfg.n), type(cfg.test.alpha), type(cfg.test.n_permutations)) \
            == (int, float, int)
        assert (cfg.n, cfg.test.alpha, cfg.test.n_permutations) == (5000, 0.05, 199)

    def test_numpy_integer_seeds_reach_the_report(self):
        report = cmd_audit(quick_config(n=1000, seed=np.int64(42),
                                        test=TestConfig(seed=np.uint64(3))))
        raw = json.loads(report_json_bytes(report))
        assert (raw["config"]["seed"], raw["config"]["test_seed"]) == (42, 3)

    @pytest.mark.parametrize("rho1", [0, np.float32(0.5), np.float64(0.1)],
                             ids=["int", "float32", "float64"])
    def test_report_bytes_survive_a_round_trip(self, rho1):
        """rho is stored as a float, so a report of an int or numpy rho
        writes the bytes and digest that the report read back writes; an
        int used to come back as a float, and a float32 did not serialize."""
        first = report_json_bytes(cmd_audit(quick_config(rho1=rho1, rho2=0, n=1000)))
        again = report_json_bytes(report_from_dict(json.loads(first)))
        assert again == first
        assert determinism_digest(again) == determinism_digest(first)

    # Python's limit on the digits of str(int) is 4,300: each refusal
    # used to raise ValueError while printing the value
    HUGE = 10**5000
    HUGE_INPUTS = {
        "alpha": lambda huge: TestConfig(alpha=huge),
        "n_permutations": lambda huge: TestConfig(n_permutations=huge),
        "test_seed": lambda huge: TestConfig(seed=huge),
        "n": lambda huge: RunConfig(rho1=0.1, rho2=0.9, n=huge),
        "seed": lambda huge: RunConfig(rho1=0.1, rho2=0.9, seed=huge),
        "reproduce_n": lambda huge: cmd_reproduce_separation(huge, 1),
        "table_n": lambda huge: cmd_table(n=huge),
    }

    @pytest.mark.parametrize("build", HUGE_INPUTS.values(), ids=list(HUGE_INPUTS))
    def test_huge_integer_refused_with_config_error(self, build):
        with pytest.raises(ConfigError, match="an int of 16610 bits"):
            build(self.HUGE)

    def test_output_format_checked(self):
        with pytest.raises(ConfigError):
            RunConfig(rho1=0.1, rho2=0.9, output_format="xml")

    def test_output_path_checked(self):
        """A non-string path used to pass and fail in emit_report."""
        with pytest.raises(ConfigError, match="output_path must be a string"):
            RunConfig(rho1=0.1, rho2=0.9, output_path=5)

    def test_functional_checked(self):
        with pytest.raises(ConfigError):
            RunConfig(rho1=0.1, rho2=0.9, functional="fitted")

    def test_config_from_dict_unknown_key(self):
        # the checker's ranks, detrending, level count and bin count are
        # not options
        for key in ("bogus", "rank_transform", "n_levels", "residualize",
                    "n_bins_y"):
            with pytest.raises(ConfigError):
                config_from_dict({"rho1": 0.1, "rho2": 0.9, key: 1})

    def test_config_from_dict_requires_rhos(self):
        with pytest.raises(ConfigError):
            config_from_dict({"rho1": 0.1})

    def test_config_from_dict_round_trip(self):
        cfg = quick_config()
        from fairlens.harness import _config_to_dict
        assert config_from_dict(_config_to_dict(cfg)) == cfg
        assert config_from_dict({"rho1": 0.1, "rho2": 0.9}) == \
            RunConfig(rho1=0.1, rho2=0.9)

    def test_config_from_dict_type_checks(self):
        cfg = config_from_dict({"rho1": 0, "rho2": 0.5, "n": 1e6,
                                "n_permutations": 199.0})
        assert (cfg.rho1, cfg.n, cfg.test.n_permutations) == (0.0, 10**6, 199)
        assert type(cfg.n) is int and type(cfg.rho1) is float
        for bad in ({"rho2": "0.9"}, {"alpha": True}, {"n": 1500.5},
                    {"seed": "42"}, {"test_seed": True},
                    {"n_permutations": None}, {"functional": ["null"]},
                    {"output_format": "xml"}, {"output_path": 3}):
            with pytest.raises(ConfigError):
                config_from_dict({"rho1": 0.1, "rho2": 0.9, **bad})


class TestCmdAudit:
    def test_reference_parameters_all_violated(self):
        report = cmd_audit(quick_config())
        assert len(report.verdicts) == 3
        for outcome in report.verdicts:
            assert outcome.statistical.verdict == VIOLATED
            assert outcome.analytic.verdict == VIOLATED
            assert outcome.agree
        assert report.all_agree
        assert set(report.reproduction_numbers) == {"cov_x1_d", "mean_y", "var_y"}
        cov = report.reproduction_numbers["cov_x1_d"]
        assert abs(cov.value - 0.1) < 4 * cov.std_error + 0.01

    def test_small_n_yields_inconclusive_statistical_verdicts(self):
        cfg = RunConfig(rho1=0.0, rho2=0.0, n=10**3, seed=7, test=QUICK_TEST)
        report = cmd_audit(cfg)
        for outcome in report.verdicts:
            assert outcome.statistical.verdict == INCONCLUSIVE
            assert outcome.analytic.verdict == HOLDS
            assert outcome.agree
        assert report.all_agree

    def test_audit_cuts_only_the_pairs_its_checks_read(self, monkeypatch):
        """At n = 5e5 the audit cuts 2 full-length columns, the
        conditioning bins of y and of the price, and nothing else."""
        n = 500_000
        lengths = []
        level_ids = fairness._level_ids

        def counting(order, counts):
            lengths.append(order.shape[0])
            return level_ids(order, counts)

        monkeypatch.setattr(fairness, "_level_ids", counting)
        cmd_audit(RunConfig(rho1=0.1, rho2=0.9, n=n, seed=5,
                            test=TestConfig(seed=5)))
        assert lengths == [n, n]

    def test_null_price_audit_independence_holds(self):
        cfg = quick_config(n=10**5, functional="null",
                           test=TestConfig(n_permutations=199, seed=3))
        report = cmd_audit(cfg)
        ind = verdict_for(report, "independence")
        assert ind.statistical.verdict == HOLDS
        assert ind.statistical.statistic == 0.0
        assert ind.analytic.verdict == HOLDS
        # constant prices cannot satisfy sufficiency off the diagonal
        suf = verdict_for(report, "sufficiency")
        assert suf.analytic.verdict == VIOLATED

    def test_negative_correlations_supported(self):
        """Sign flips of D or X2 relabel the model without touching the
        axioms, so audits accept any valid (rho1, rho2) pair."""
        cfg = RunConfig(rho1=-0.1, rho2=0.9, n=2 * 10**4, seed=6,
                        test=QUICK_TEST)
        report = cmd_audit(cfg)
        ind = verdict_for(report, "independence")
        assert ind.analytic.verdict == VIOLATED
        assert ind.statistical.verdict == VIOLATED
        cfg = RunConfig(rho1=-0.2, rho2=0.0, n=2 * 10**4, seed=6,
                        test=QUICK_TEST)
        report = cmd_audit(cfg)
        assert verdict_for(report, "sufficiency").analytic.verdict == HOLDS
        assert verdict_for(report, "separation").analytic.verdict == VIOLATED

    def test_constant_price_sufficiency_when_rho_squares_underflow(self):
        """rho1**2 underflows to 0, yet Cov(Y, D) = rho1 != 0, so Y and D
        are dependent and the constant price violates sufficiency."""
        cfg = RunConfig(rho1=1e-200, rho2=0.0, n=10**3, functional="null",
                        test=QUICK_TEST)
        suf = verdict_for(cmd_audit(cfg), "sufficiency").analytic
        assert suf.verdict == VIOLATED
        assert suf.analytic_criterion == 0.0


class TestGoldenPanelAgreement:
    def test_independent_model_zero_disagreements(self):
        """On the fully independent portfolio at n=1e6, statistical and
        analytic verdicts agree (all HOLDS) on every panel seed."""
        for seed in range(1, 21):
            cfg = RunConfig(rho1=0.0, rho2=0.0, n=10**6, seed=seed,
                            test=TestConfig(alpha=0.01, n_permutations=199,
                                            seed=4000 + seed))
            report = cmd_audit(cfg)
            assert report.all_agree, seed
            for outcome in report.verdicts:
                assert outcome.statistical.verdict == HOLDS, (
                    seed, outcome.axiom, outcome.statistical.p_value)
                assert outcome.analytic.verdict == HOLDS


class TestReproduceSeparation:
    def test_moments_and_ordering(self):
        frag = cmd_reproduce_separation(10**6, seed=2)
        assert frag["e_x1sq_given_y0_d0"].value == pytest.approx(0.5197, abs=0.005)
        assert frag["e_x1sq_given_y0"].value == pytest.approx(0.6041, abs=0.005)
        assert frag["ordering_ok"]
        assert frag["gap_margin_se"] > 5.0
        assert frag["unit_margin_se"] > 5.0

    def test_minimum_n(self):
        with pytest.raises(ConfigError):
            cmd_reproduce_separation(10**5, seed=1)

    @pytest.mark.parametrize("n", [1e6, 1_000_000.0, True, "1000000"])
    def test_non_integer_n_refused(self, n):
        with pytest.raises(ConfigError, match="n must be an integer"):
            cmd_reproduce_separation(n, seed=1)

    def test_n_above_the_ceiling_refused_before_any_draw(self, monkeypatch):
        """A mistyped n such as 1e18 used to run until killed."""
        def no_draws(*args):
            raise AssertionError("drew")

        monkeypatch.setattr(harness.oracles, "second_moment_x1_given_y0_d0_mc",
                            no_draws)
        with pytest.raises(ConfigError, match="reproduction requires n in"):
            cmd_reproduce_separation(harness.MAX_REPRODUCE_N + 1, seed=1)
        with pytest.raises(AssertionError, match="drew"):
            cmd_reproduce_separation(harness.MAX_REPRODUCE_N, seed=1)
        assert main(["reproduce", "separation-moments",
                     "--n", "1000000000000000000"]) == 2


class TestCmdTable:
    def test_schema_and_analytic_grid(self):
        cells = cmd_table(n=2 * 10**4, seed=11, test=QUICK_TEST)
        assert len(cells) == 12
        analytic = {(c["rho1"], c["rho2"], c["axiom"]): c["analytic"]
                    for c in cells}
        assert analytic[(0.3, 0.5, "independence")] == "NO"
        assert analytic[(0.3, 0.0, "sufficiency")] == "YES"
        assert analytic[(0.0, 0.5, "independence")] == "YES"
        assert analytic[(0.0, 0.0, "separation")] == "YES"
        text = format_table(cells)
        assert "independence" in text and "legend" in text
        assert "!" not in text.splitlines()[1]
        flipped = [dict(c, agree=False) if c["axiom"] == "separation" else c
                   for c in cells]
        assert format_table(flipped).splitlines()[1].split()[3] == "NO/NO!"

    def test_format_table_columns_line_up(self):
        """Each column is as wide as its widest entry, so an
        INCONCLUSIVE cell or a negative rho does not shift the grid."""
        cells = [{"rho1": rho1, "rho2": 0.5, "axiom": axiom,
                  "analytic": "NO", "statistical": statistical,
                  "agree": axiom != "sufficiency"}
                 for rho1, statistical in ((0.3, "NO"), (-0.3, "INCONCLUSIVE"))
                 for axiom in ("independence", "separation", "sufficiency")]
        lines = format_table(cells).splitlines()
        assert lines[2].split()[2:] == ["NO/INCONCLUSIVE", "NO/INCONCLUSIVE",
                                        "NO/INCONCLUSIVE!"]
        # a column is a run of text with no double space inside
        spans = [[m.span() for m in re.finditer(r"\S+(?: \S+)*", line)]
                 for line in lines[:-1]]
        assert [len(s) for s in spans] == [4, 4, 4]
        assert spans[1][0][0] == spans[2][0][0] == spans[0][0][0]
        for column in (1, 2, 3):
            assert len({row[column][1] for row in spans}) == 1, column

    @pytest.mark.parametrize("seed", ["7", True])
    def test_non_integer_seed_refused(self, seed):
        """A string seed used to raise TypeError and True to run seed 1."""
        with pytest.raises(ConfigError, match="seed must be an integer"):
            cmd_table(rho_pairs=[(0.0, 0.0)], n=1000, seed=seed)

    def test_seed_plus_pair_index_past_64_bits_refused(self):
        """The refusal names seed + k, not a seed the caller never passed."""
        last = (1 << 64) - 1
        with pytest.raises(ConfigError, match=r"pair k runs on seed \+ k, which "
                           r"leaves \[0, 2\^64\) for seed 18446744073709551615 "
                           r"and 2 pairs"):
            cmd_table(rho_pairs=[(0.0, 0.0)] * 2, n=1000, seed=last)
        assert len(cmd_table(rho_pairs=[(0.0, 0.0)], n=1000, seed=last)) == 3

    def test_csv_shape(self):
        cells = cmd_table(n=2 * 10**4, seed=11, test=QUICK_TEST)
        lines = table_csv_text(cells).splitlines()
        assert lines[0] == "rho1,rho2,axiom,analytic,statistical,agree"
        assert len(lines) == 13


class TestEmission:
    def test_csv_schema_and_row_count(self):
        report = cmd_audit(quick_config())
        lines = report_csv_text(report).splitlines()
        assert lines[0] == ("axiom,verdict_statistical,verdict_analytic,"
                            "statistic,p_value,analytic_criterion,alpha,n,seed")
        assert len(lines) == 4
        assert lines[1].startswith("independence,VIOLATED,VIOLATED,")

    def test_empty_report_gives_header_only_csv(self):
        report = AuditReport(config=quick_config(), verdicts=(),
                             reproduction_numbers={}, timestamp="t")
        assert report_csv_text(report) == (
            "axiom,verdict_statistical,verdict_analytic,statistic,p_value,"
            "analytic_criterion,alpha,n,seed\n")

    def test_json_round_trip_exact(self):
        report = cmd_audit(quick_config())
        raw = json.loads(report_json_bytes(report).decode())
        assert report_from_dict(raw) == report
        # older reports also carry a "tag" per verdict; it is ignored
        for v in raw["verdicts"]:
            assert set(v) == {"axiom", "statistical", "analytic", "agree"}
            v["tag"] = ""
        assert report_from_dict(raw) == report

    def test_emit_files(self, tmp_path):
        report = cmd_audit(quick_config())
        emit_report(report, "json", tmp_path / "r.json")
        emit_report(report, "csv", tmp_path / "r.csv")
        parsed = json.loads((tmp_path / "r.json").read_text())
        assert parsed["version"] == report.version
        assert len((tmp_path / "r.csv").read_text().splitlines()) == 4

    def test_determinism_modulo_timestamp(self):
        cfg = quick_config()
        a = cmd_audit(cfg)
        b = cmd_audit(cfg)
        assert a.timestamp != "" and b.timestamp != ""
        assert determinism_digest(report_json_bytes(a)) == \
            determinism_digest(report_json_bytes(b))
        da, db = report_to_dict(a), report_to_dict(b)
        da.pop("timestamp"), db.pop("timestamp")
        assert json.dumps(da) == json.dumps(db)


class TestCli:
    def test_audit_writes_report_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["audit", "--rho1", "0.1", "--rho2", "0.9",
                     "--n", "20000", "--seed", "42", "--alpha", "0.01",
                     "--permutations", "199", "--out", str(out)])
        assert code == 0
        parsed = json.loads(out.read_text())
        assert {v["axiom"] for v in parsed["verdicts"]} == {
            "independence", "separation", "sufficiency"}
        # valid by 1 - rho1^2 - rho2^2 > 0 (1.0e-17), though a Cholesky
        # factorization of the covariance matrix rejects the pair
        assert main(["audit", "--rho1", "0.997209935789211",
                     "--rho2", "0.07464813435898883", "--n", "1000",
                     "--format", "csv", "--out", str(tmp_path / "edge.csv")]) == 0
        capsys.readouterr()
        # without --out the report goes to stdout
        assert main(["audit", "--rho1", "0.1", "--rho2", "0.9", "--n", "1000",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("axiom,verdict_statistical,")
        assert len(lines) == 4

    def test_audit_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "rho1": 0.3, "rho2": 0.5, "n": 20000, "seed": 1,
            "n_permutations": 199}))
        out = tmp_path / "r.json"
        code = main(["audit", "--config", str(cfg_path), "--rho1", "0.1",
                     "--rho2", "0.9", "--out", str(out)])
        assert code == 0
        parsed = json.loads(out.read_text())
        assert parsed["config"]["rho1"] == 0.1  # flag beats file
        assert parsed["config"]["n"] == 20000   # file value kept

    CONFIG_FILE = {"rho1": 0.1, "rho2": 0.9, "n": 10000, "seed": 1,
                   "alpha": 0.01, "n_permutations": 99, "test_seed": 0,
                   "functional": "unawareness", "output_format": "json",
                   "output_path": "from_file.json"}
    # (flag, config key, flag text, value in the report)
    FLAG_CASES = [
        ("--rho1", "rho1", "0.2", 0.2),
        ("--rho2", "rho2", "0.8", 0.8),
        ("--n", "n", "12000", 12000),
        ("--seed", "seed", "9", 9),
        ("--alpha", "alpha", "0.02", 0.02),
        ("--permutations", "n_permutations", "199", 199),
        ("--test-seed", "test_seed", "5", 5),
        ("--functional", "functional", "null", "null"),
        ("--format", "output_format", "json", "json"),
        ("--out", "output_path", "from_flag.json", "from_flag.json"),
    ]

    @pytest.mark.parametrize("flag,key,text,value", FLAG_CASES,
                             ids=[case[0] for case in FLAG_CASES])
    def test_audit_flag_beats_config_file(self, tmp_path, monkeypatch,
                                          flag, key, text, value):
        monkeypatch.chdir(tmp_path)
        from_file = dict(self.CONFIG_FILE)
        if key == "output_format":  # CSV reports carry no config block
            from_file["output_format"] = "csv"
        Path("cfg.json").write_text(json.dumps(from_file))
        assert main(["audit", "--config", "cfg.json", flag, text]) == 0
        want = {**from_file, key: value}
        parsed = json.loads(Path(want["output_path"]).read_text())
        assert parsed["config"] == want

    def test_bad_config_exits_two(self):
        assert main(["audit", "--rho1", "0.9", "--rho2", "0.9"]) == 2
        assert main(["audit", "--rho1", "0.1", "--rho2", "0.9",
                     "--n", "10"]) == 2

    @pytest.mark.parametrize("raw", [
        {"rho1": 0.1, "rho2": "x"},
        {"rho1": 0.1, "rho2": 0.9, "n_permutations": "999"},
        pytest.param([0.1, 0.9], id="json-list"),
        pytest.param("{rho1: 0.1", id="not-json"),  # written verbatim
    ])
    def test_mistyped_config_file_exits_two(self, tmp_path, capsys, raw):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
        assert main(["audit", "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bin_count_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--rho1", "0.1", "--rho2", "0.9", "--bins", "6"])
        assert exc.value.code == 2
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rho1": 0.1, "rho2": 0.9,
                                        "n_bins_y": 20}))
        assert main(["audit", "--config", str(cfg_path)]) == 2
        assert "unknown config keys: ['n_bins_y']" in capsys.readouterr().err

    def test_permutations_above_the_ceiling_exit_two(self, capsys):
        code = main(["audit", "--rho1", "0.1", "--rho2", "0.9", "--n", "20000",
                     "--permutations", "99999999999999999999"])
        assert code == 2
        assert "n_permutations must be in [99, 32768]" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self):
        assert main(["audit", "--config", "/nonexistent/cfg.json"]) == 2

    # (argv, config file bytes or None): each ended in a traceback
    # before the pair check and the config file's one clause
    OVERFLOWING_INPUTS = {
        "huge-rho-flag": (["audit", "--rho1", "1e200", "--rho2", "0"], None),
        "huge-rho-pair": (["table", "--pairs", "1e200,0"], None),
        "huge-rho-in-file": ([], b'{"rho1": 0, "rho2": 1e200}'),
        "not-utf8": ([], b'{"rho1": 0.1, "rho2": 0.9, "functional": "\xff"}'),
        "int-past-float": ([], b'{"rho1": 1' + b"0" * 400 + b', "rho2": 0}'),
        "int-past-digit-limit": (
            [], b'{"rho1": 0.1, "rho2": 0.9, "n": 1' + b"0" * 4999 + b"}"),
    }

    @pytest.mark.parametrize("argv,config", OVERFLOWING_INPUTS.values(),
                             ids=list(OVERFLOWING_INPUTS))
    def test_overflowing_input_exits_two(self, tmp_path, capsys, argv, config):
        if config is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_bytes(config)
            argv = ["audit", "--config", str(cfg_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("fairlens: config error:")
        assert "Traceback" not in err

    def test_unwritable_output_exits_four(self, tmp_path, capsys):
        code = main(["audit", "--rho1", "0.1", "--rho2", "0.9",
                     "--n", "20000", "--permutations", "199",
                     "--out", str(tmp_path / "no_dir" / "r.json")])
        assert code == 4
        assert "fairlens: I/O error:" in capsys.readouterr().err

    def test_table_command(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["table", "--n", "20000", "--seed", "11",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 13
        out = tmp_path / "table.json"
        assert main(["table", "--n", "20000", "--seed", "11",
                     "--format", "json", "--out", str(out)]) == 0
        cells = json.loads(out.read_text())
        assert len(cells) == 12
        assert all(set(c) == {"rho1", "rho2", "axiom", "analytic",
                              "statistical", "agree"} for c in cells)

    def test_table_custom_pairs(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["table", "--pairs", "0,0", "--n", "20000",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 4
        capsys.readouterr()
        assert main(["table", "--pairs", "0,0", "--n", "20000",
                     "--out", str(tmp_path / "no_dir" / "t.csv")]) == 4
        assert "fairlens: I/O error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["audit", "--rho1", "0.1", "--rho2", "0.9", "--n", "20000"],
        ["reproduce", "separation-moments"],
        ["table", "--pairs", "0,0", "--n", "20000"],
    ], ids=["audit", "reproduce", "table"])
    @pytest.mark.parametrize("seed", [str(-1), str(1 << 64)])
    def test_seed_outside_64_bits_exits_two(self, command, seed, capsys):
        assert main(command + ["--seed", seed]) == 2
        assert "seed must be in [0, 2^64)" in capsys.readouterr().err

    def test_test_seed_outside_64_bits_exits_two(self, capsys):
        assert main(["audit", "--rho1", "0.1", "--rho2", "0.9",
                     "--test-seed", str(1 << 64)]) == 2
        assert "test seed must be in [0, 2^64)" in capsys.readouterr().err

    def test_table_seeds_past_64_bits_exit_two_before_any_audit(
            self, monkeypatch):
        """Pair k runs on seed + k: the last of the four default pairs
        would pass 2^64, and no audit runs."""
        audits = []
        monkeypatch.setattr(harness, "cmd_audit", audits.append)
        assert main(["table", "--seed", str((1 << 64) - 3)]) == 2
        assert audits == []

    def test_table_without_flags_keeps_the_library_defaults(
            self, monkeypatch, capsys):
        """Flags left out are not passed on: cmd_table keeps its own n
        and seed, and TestConfig its defaults.  The table takes no
        --permutations: no p-value and no cell depends on it."""
        calls = []
        monkeypatch.setattr(harness, "cmd_table",
                            lambda **kwargs: calls.append(kwargs) or [])
        assert main(["table"]) == 0
        assert calls == [{"rho_pairs": None, "test": TestConfig()}]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["table", "--permutations", "199"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --permutations" in capsys.readouterr().err

    def test_table_bad_pair_exits_two(self):
        assert main(["table", "--pairs", "0.5;0.9"]) == 2
        assert main(["table", "--pairs", "a,b"]) == 2

    def test_reproduce_command(self, capsys):
        code = main(["reproduce", "separation-moments", "--n", "1000000",
                     "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "E[X1^2 | Y=0, D=0]" in out
        assert "ordering value1 < value2 < 1: True" in out
