import math

from pathlib import Path

import pytest

from squadfountain import analytics
from squadfountain.cli import main, parse_delta_grid, load_config_file
from squadfountain.errors import ConfigError


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def data_rows(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


class TestCsvFormat:
    def test_metadata_header_and_lf(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "a.csv",
            ["decode-sim", "--k", "40", "--trials", "3", "--seed", "5"],
        )
        assert code == 0
        assert text.startswith("# ")
        assert "# seed=5" in text
        assert "\r" not in text and text.endswith("\n")

    def test_nine_significant_digits(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "b.csv",
            ["analyze", "--yield-lambda", "1", "--t-max", "10", "--seed", "1"],
        )
        _, rows = data_rows(text)
        t2 = [r for r in rows if r["t"] == "2"][0]
        assert t2["prob"] == f"{math.exp(-2):.9g}"


class TestStreamVersion:
    @pytest.mark.parametrize("argv", [
        ["decode-sim", "--k", "40", "--trials", "2"],
        ["decode-sim", "--network", "--k", "40", "--h", "10", "--trials", "2"],
        ["disseminate", "--k", "7"],
        ["validate", "--criterion", "yield_anchor"],
        ["cost", "--k", "100", "--h", "10", "--delta-grid", "0:0.01:0.01",
         "--mc-kd", "--trials", "2"],
    ])
    def test_drawn_outputs_carry_version(self, tmp_path, argv):
        _, text = run_to_file(tmp_path, "v.csv", argv + ["--seed", "1"])
        assert "# stream_version=4\n" in text

    def test_analytic_outputs_carry_none(self, tmp_path):
        _, text = run_to_file(tmp_path, "a.csv", ["analyze", "--k", "100", "--seed", "1"])
        assert "stream_version" not in text


class TestDecodeSim:
    def test_byte_identical_reruns(self, tmp_path):
        argv = ["decode-sim", "--k", "50", "--trials", "4", "--seed", "9"]
        _, first = run_to_file(tmp_path, "r1.csv", argv)
        _, second = run_to_file(tmp_path, "r2.csv", argv)
        assert first == second

    def test_summary_rows_per_strategy(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "c.csv",
            ["decode-sim", "--k", "300", "--trials", "30", "--payload-len", "8",
             "--dist", "is,rs", "--seed", "2"],
        )
        _, rows = data_rows(text)
        summaries = [r for r in rows if r["trial"] in ("mean", "var")]
        assert len(summaries) == 4  # mean+var for each strategy
        is_mean = float([r for r in summaries if r["strategy"] == "is" and r["trial"] == "mean"][0]["k_d"])
        rs_mean = float([r for r in summaries if r["strategy"] == "rs" and r["trial"] == "mean"][0]["k_d"])
        assert is_mean < rs_mean

    def test_network_mode_runs(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "d.csv",
            ["decode-sim", "--network", "--k", "60", "--h", "15", "--trials", "2",
             "--payload-len", "8", "--seed", "3"],
        )
        assert code == 0
        _, rows = data_rows(text)
        assert len(rows) == 4  # 2 trials + mean + var

    @pytest.mark.parametrize("storage, dist, written", [
        ("rs", "is", "is"), ("is", "is,rs", "is,rs"), ("coupon", "is", "coupon"),
    ])
    def test_network_metadata_names_storage_that_ran(self, tmp_path, storage, dist, written):
        # combining storage uses the strategy's code, whatever --storage says
        common = ["decode-sim", "--network", "--k", "40", "--h", "10", "--trials", "2",
                  "--payload-len", "8", "--seed", "4", "--dist", dist]
        _, text = run_to_file(tmp_path, "m.csv", common + ["--storage", storage])
        assert f"# storage={written}\n" in text
        _, ran = run_to_file(tmp_path, "w.csv", common + ["--storage", written.split(",")[0]])
        assert data_rows(text) == data_rows(ran)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_range_rejected(self, seed):
        assert main(["decode-sim", "--k", "50", "--trials", "1", "--seed", str(seed)]) == 2

    @pytest.mark.parametrize("network", [[], ["--network", "--h", "5"]])
    def test_negative_symbol_count_rejected(self, tmp_path, network):
        code, text = run_to_file(
            tmp_path, "n.csv",
            ["decode-sim", "--k", "20", "--ks", "-1", "--trials", "1", "--seed", "1",
             *network],
        )
        assert code == 2 and text == ""

    @pytest.mark.parametrize("network", [[], ["--network", "--h", "15"]])
    def test_seeds_draw_different_trials(self, tmp_path, network):
        # trials are keyed by the pair (seed, trial): seeds 1 and 2 share none
        kd = {}
        for seed in (1, 2):
            _, text = run_to_file(
                tmp_path, f"s{seed}.csv",
                ["decode-sim", "--k", "60", "--trials", "8", "--payload-len", "8",
                 "--seed", str(seed), *network],
            )
            _, rows = data_rows(text)
            trials = [r for r in rows if r["trial"].isdigit()]
            assert {r["seed"] for r in trials} == {str(seed)}
            kd[seed] = [r["k_d"] for r in trials]
        assert kd[1] != kd[2]
        assert sorted(kd[1]) != sorted(kd[2])  # not the same trials reordered


class TestAnalyze:
    def test_delta_grid_decreasing(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "e.csv",
            ["analyze", "--k", "2000", "--delta-grid", "0:0.04:0.02", "--seed", "4"],
        )
        _, rows = data_rows(text)
        pd = [float(r["p_d"]) for r in rows]
        assert len(pd) == 3
        assert pd[0] > pd[1] > pd[2]

    def test_single_delta_matches_library(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "f.csv", ["analyze", "--k", "1000", "--delta", "0", "--seed", "4"]
        )
        _, rows = data_rows(text)
        pred = analytics.expected_dopings(1000, 0.0)
        # CSV floats carry nine significant digits
        assert float(rows[0]["predicted_kd"]) == pytest.approx(pred.k_d, rel=1e-8)

    def test_yield_dump_anchor(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "g.csv",
            ["analyze", "--yield-lambda", "1", "--t-max", "6", "--seed", "4"],
        )
        _, rows = data_rows(text)
        assert float(rows[2]["prob"]) == pytest.approx(math.exp(-2), abs=1e-9)


class TestDisseminate:
    def test_k7_degree_two(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "h.csv", ["disseminate", "--k", "7", "--seed", "1"]
        )
        header, rows = data_rows(text)
        assert len(rows) == 7
        assert all(r["rounds"] == "3" and r["verified"] == "true" for r in rows)

    def test_k7_degree_one_transmissions(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "i.csv",
            ["disseminate", "--k", "7", "--dissemination", "d1", "--seed", "1"],
        )
        _, rows = data_rows(text)
        assert all(r["transmissions"] == "7" for r in rows)

    def test_k3_both_modes_verified(self, tmp_path):
        for mode in ("d1", "d2"):
            _, text = run_to_file(
                tmp_path, f"j{mode}.csv",
                ["disseminate", "--k", "3", "--dissemination", mode, "--seed", "1"],
            )
            _, rows = data_rows(text)
            assert all(r["verified"] == "true" for r in rows)


class TestCost:
    def test_polling_normalized_constant(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "k.csv",
            ["cost", "--strategies", "polling", "--h", "10,100,1000", "--seed", "1"],
        )
        _, rows = data_rows(text)
        assert [r["c_T_normalized"] for r in rows] == ["1", "1", "1"]

    def test_strategy_table_rows(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "l.csv",
            ["cost", "--strategies", "polling,coupon,rs_no_doping,is_doping",
             "--h", "100", "--seed", "1"],
        )
        _, rows = data_rows(text)
        assert [r["strategy"] for r in rows] == [
            "polling", "coupon", "rs_no_doping", "is_doping"
        ]

    def test_delta_grid_mode(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "m.csv",
            ["cost", "--h", "15", "--delta-grid", "0:0.02:0.01", "--seed", "1"],
        )
        _, rows = data_rows(text)
        assert len(rows) == 3
        assert all(r["strategy"] == "is_doping" for r in rows)


class TestConfigFile:
    def test_file_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("k=40\ntrials=3\nseed=11\n")
        out1 = tmp_path / "n1.csv"
        code = main(["decode-sim", "--config", str(cfg), "--out", str(out1)])
        assert code == 0
        assert "# k=40" in out1.read_text()
        out2 = tmp_path / "n2.csv"
        code = main(["decode-sim", "--config", str(cfg), "--k", "30", "--out", str(out2)])
        assert code == 0
        assert "# k=30" in out2.read_text()

    @pytest.mark.parametrize("network", ["true", "false"])
    def test_typed_values_and_flags_from_file(self, tmp_path, network):
        cfg = tmp_path / "typed.conf"
        cfg.write_text(f"k=30\nh=3\ndelta=0.1\ntrials=2\nseed=4\nnetwork={network}\n")
        by_file, by_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert main(["decode-sim", "--config", str(cfg), "--out", str(by_file)]) == 0
        flags = ["--k", "30", "--h", "3", "--delta", "0.1", "--trials", "2", "--seed", "4"]
        flags += ["--network"] if network == "true" else []
        assert main(["decode-sim", *flags, "--out", str(by_flags)]) == 0
        assert by_file.read_text() == by_flags.read_text()

    def test_malformed_line_reports_position(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("k=40\nnot a pair\n")
        with pytest.raises(ConfigError, match="bad.conf:2"):
            load_config_file(str(cfg))

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "odd.conf"
        cfg.write_text("warp=9\n")
        code = main(["decode-sim", "--config", str(cfg), "--seed", "1"])
        assert code == 2

    def test_missing_seed_fails(self, tmp_path):
        code = main(["decode-sim", "--k", "20", "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestValidateCommand:
    def test_single_criterion_passes(self, capsys):
        code = main(["validate", "--criterion", "yield_anchor", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PASS yield_anchor")

    def test_tightened_tolerance_flips_verdict(self, capsys):
        code = main(
            ["validate", "--criterion", "yield_anchor", "--seed", "1",
             "--tolerance-scale", "1e-9"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("FAIL yield_anchor")

    def test_unknown_criterion_rejected(self):
        assert main(["validate", "--criterion", "nonsense", "--seed", "1"]) == 2

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_range_rejected(self, seed):
        # -1 would wrap to 2**64-1 in a two-word Philox key
        assert main(["validate", "--criterion", "dissemination", "--seed", str(seed)]) == 2

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        main(["validate", "--criterion", "dissemination", "--seed", "1",
              "--out", str(out)])
        capsys.readouterr()
        text = out.read_text()
        assert "criterion,passed,measured,threshold" in text
        assert "dissemination,true" in text
