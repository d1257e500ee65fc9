import csv
import math
import shlex

from pathlib import Path

import pytest

from squadfountain import analytics, cli, codec, network, validation
from squadfountain.cli import main, parse_delta_grid, load_config_file
from squadfountain.errors import ConfigError


README_COMMANDS = [
    line.split("#")[0].strip()
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    if line.startswith("squadfountain ")
]


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

    @pytest.mark.parametrize("argv, meta", [
        (["decode-sim", "--k", "40", "--trials", "2", "--dist", "is,rs"],
         "command=decode-sim|delta=0|dist=is,rs|k=40|ks=40|network=false|payload_len=32|"
         "rs_c=0.1|rs_delta=0.5|seed=3|stream_version=6|trials=2"),
        (["decode-sim", "--network", "--k", "40", "--h", "10", "--trials", "2",
          "--dissemination", "d2", "--storage-input", "degree_two_inputs"],
         "collector=1|command=decode-sim|delta=0|dissemination=d2|dist=is|h=10|k=40|ks=40|"
         "network=true|payload_len=32|rs_c=0.1|rs_delta=0.5|seed=3|storage=is|"
         "storage_input=degree_two_inputs|stream_version=6|trials=2"),
        (["analyze", "--k", "100", "--delta-grid", "0:0.02:0.01"],
         "command=analyze|delta_grid=0,0.01,0.02|k=100|kd_includes_uncovered=true|"
         "mode=expected_dopings|seed=3"),
        (["analyze", "--yield-lambda", "1.05", "--t-max", "5"],
         "command=analyze|mode=yield_pmf|seed=3|t_max=5|tail=0.670801457|yield_lambda=1.05"),
        (["validate", "--criterion", "yield_anchor,dissemination"],
         "command=validate|criteria=yield_anchor,dissemination|seed=3|stream_version=6"),
    ], ids=["decode_sim", "decode_sim_network", "analyze_grid", "analyze_yield", "validate"])
    def test_metadata_block(self, tmp_path, capsys, argv, meta):
        _, text = run_to_file(tmp_path, "meta.csv", argv + ["--seed", "3"])
        assert [l for l in text.splitlines() if l.startswith("#")] == [
            f"# {item}" for item in meta.split("|")
        ]


class TestStreamVersion:
    @pytest.mark.parametrize("argv", [
        ["decode-sim", "--k", "40", "--trials", "2"],
        ["decode-sim", "--network", "--k", "40", "--h", "10", "--trials", "2"],
        # its dissemination criterion draws nothing, but the battery's CSV does
        ["validate", "--criterion", "dissemination"],
        ["validate", "--criterion", "yield_anchor"],
        ["cost", "--k", "100", "--h", "10", "--delta-grid", "0:0.01:0.01",
         "--mc-kd", "--trials", "2"],
    ])
    def test_drawn_outputs_carry_version(self, tmp_path, argv):
        _, text = run_to_file(tmp_path, "v.csv", argv + ["--seed", "1"])
        assert "# stream_version=6\n" in text

    def test_analytic_outputs_carry_none(self, tmp_path):
        for argv in (["analyze", "--k", "100"], ["disseminate", "--k", "7"]):
            _, text = run_to_file(tmp_path, "a.csv", argv + ["--seed", "1"])
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
        (None, "is,rs", "is,rs"), ("rs", "rs", "rs"), ("coupon", "is", "coupon"),
    ])
    def test_network_metadata_names_storage_that_ran(self, tmp_path, storage, dist, written):
        # without --storage, combining storage uses each strategy's own code
        common = ["decode-sim", "--network", "--k", "40", "--h", "10", "--trials", "2",
                  "--payload-len", "8", "--seed", "4"]
        given = [] if storage is None else ["--storage", storage]
        _, text = run_to_file(tmp_path, "m.csv", common + ["--dist", dist] + given)
        assert f"# storage={written}\n" in text
        # each code alone, with --storage unset unless it stores coupons
        coupon = given if storage == "coupon" else []
        ran = []
        for name in dist.split(","):
            _, alone = run_to_file(tmp_path, "w.csv", common + ["--dist", name] + coupon)
            ran += data_rows(alone)[1]
        assert data_rows(text)[1] == ran

    @pytest.mark.parametrize("storage, dist", [("rs", "is"), ("is", "is,rs")])
    def test_network_storage_not_the_strategys_code_rejected(self, tmp_path, capsys,
                                                             storage, dist):
        # a given combining code must be every strategy's own; the error's
        # advice, leaving --storage unset, runs each strategy on its own code
        common = ["decode-sim", "--network", "--k", "40", "--h", "10", "--trials", "2",
                  "--payload-len", "8", "--seed", "4", "--dist", dist]
        code, text = run_to_file(tmp_path, "m.csv", common + ["--storage", storage])
        err = capsys.readouterr().err
        assert code == 2 and text == "" and err.count("\n") == 1
        assert err.startswith(f"error: --storage {storage} ") and "leave --storage unset" in err
        code, text = run_to_file(tmp_path, "u.csv", common)
        assert code == 0 and f"# storage={dist}\n" in text

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

    def test_seeds_above_2_63_keep_their_low_bits(self, tmp_path):
        # a Philox key built from a list of ints >= 2**63 went float and lost them
        rows = []
        for seed in (2**63 + 1, 2**63 + 2):
            _, text = run_to_file(
                tmp_path, f"s{seed}.csv",
                ["decode-sim", "--k", "50", "--trials", "2", "--seed", str(seed)],
            )
            rows.append([(r["trial"], r["k_d"]) for r in data_rows(text)[1]])
        assert rows[0] != rows[1]

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

    @pytest.mark.parametrize("h", ["1e300", "5e17"])
    def test_huge_h_rejected_before_any_array(self, tmp_path, capsys, h):
        # k * h storage nodes past int64 would overflow the squad sizes
        code, text = run_to_file(tmp_path, "h.csv", ["decode-sim", "--network", "--k", "20",
                                                     "--h", h, "--trials", "1", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert err.startswith("error: k * h must be below 2**62") and err.count("\n") == 1


class TestTrialCount:
    @pytest.mark.parametrize("argv", [
        ["decode-sim", "--k", "50", "--trials", "0"],
        ["decode-sim", "--k", "50", "--trials", "-3"],
        ["cost", "--k", "50", "--mc-kd", "--trials", "0"],
        ["cost", "--k", "50", "--mc-kd", "--trials", "-1"],
    ])
    def test_below_one_rejected(self, tmp_path, capsys, argv):
        code, text = run_to_file(tmp_path, "t.csv", argv + ["--seed", "1"])
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: --trials")


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


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("spec", ["0:nan:0.01", "nan:0.1:0.01", "0:inf:0.01",
                                      "0:0.1:inf", "-inf:0:0.01"])
    def test_delta_grid_rejected(self, spec):
        with pytest.raises(ConfigError, match="finite"):
            parse_delta_grid(spec)

    def test_delta_grid_point_bound(self):
        # counted from (b - a) / step before any point is built; an infinite
        # span is rejected, not passed to int()
        assert len(parse_delta_grid("0:99999:1")) == 100_000
        for spec in ("0:100000:1", "0:1:1e-9", "-1e308:1e308:1e-300"):
            with pytest.raises(ConfigError, match="more than 100000 points"):
                parse_delta_grid(spec)

    @pytest.mark.parametrize("argv", [
        ["analyze", "--delta-grid", "0:nan:0.01"],
        ["analyze", "--delta-grid", "0:inf:0.01"],
        ["analyze", "--delta", "nan"],
        ["analyze", "--delta", "inf"],
        ["decode-sim", "--delta", "nan", "--k", "50", "--trials", "1"],
        ["cost", "--strategies", "is_doping", "--delta", "nan"],
        ["cost", "--delta-grid", "nan:0.1:0.01"],
        ["decode-sim", "--k", "50", "--trials", "1", "--payload-len", "-3"],
        ["decode-sim", "--network", "--k", "20", "--h", "2", "--trials", "1",
         "--payload-len", "-3"],
        ["disseminate", "--k", "7", "--payload-len", "-3"],
        ["disseminate", "--k", "10001"],
        ["decode-sim", "--network", "--k", "20", "--h", "2", "--ks", "100", "--trials", "1"],
        ["decode-sim", "--network", "--k", "20", "--h", "nan", "--trials", "1"],
        ["decode-sim", "--network", "--k", "20", "--h", "inf", "--trials", "1"],
        ["cost", "--h", "nan"],
        ["cost", "--h", "inf"],
        ["cost", "--h", "abc"],
        ["cost", "--strategies", "rs_no_doping", "--eps-rs", "0"],
        ["cost", "--strategies", "rs_no_doping", "--eps-rs", "-1"],
        ["cost", "--h", ","],
        ["cost", "--strategies", ","],
        ["decode-sim", "--k", "50", "--trials", "1", "--dist", ","],
        ["cost", "--k", "100", "--h", "10", "--strategies", ""],
        ["analyze", "--k", "100", "--delta-grid", "0:1e-12:1e-13"],
        ["validate", "--criterion", ","],
        ["validate", "--criterion", ""],
        # bounds are fixed: no flag scales them
        ["validate", "--tolerance-scale", "1", "--criterion", "yield_anchor"],
        ["analyze", "--k", "100", "--delta-grid", "0:1:1e-9"],
        ["cost", "--k", "100", "--h", "10", "--delta-grid", "0:1:1e-9"],
        ["decode-sim", "--network", "--k", "20", "--h", "2", "--trials", "1",
         "--dist", "is,rs", "--storage", "coupon"],
        # a combining code that is not every strategy's own
        ["decode-sim", "--network", "--k", "20", "--h", "2", "--trials", "1",
         "--dist", "is", "--storage", "rs"],
        ["decode-sim", "--network", "--k", "20", "--h", "2", "--trials", "1",
         "--dist", "is,rs", "--storage", "is"],
        ["analyze", "--k", "100", "--delta", "0.5", "--delta-grid", "0:0.01:0.01"],
        ["cost", "--k", "0", "--h", "10", "--strategies", "polling"],
        ["cost", "--k", "0", "--h", "10", "--strategies", "coupon"],
        ["cost", "--k", "0", "--h", "10", "--strategies", "rs_no_doping"],
        # a flag the chosen mode never reads
        ["analyze", "--yield-lambda", "1", "--delta", "0.5"],
        ["analyze", "--yield-lambda", "1", "--delta-grid", "0:0.01:0.01"],
        ["analyze", "--yield-lambda", "1", "--k", "100"],
        ["analyze", "--k", "100", "--t-max", "10"],
        ["decode-sim", "--k", "50", "--trials", "1", "--ks", "52", "--delta", "0.04"],
        ["cost", "--k", "100", "--h", "10", "--strategies", "polling",
         "--delta-grid", "0:0.01:0.01"],
        ["cost", "--k", "100", "--h", "10", "--delta", "0.02"],
        ["analyze", "--k", "100", "--delta-grid", ""],
        ["cost", "--k", "100", "--h", "10", "--delta-grid", ""],
        ["decode-sim", "--k", "10", "--trials", "1", "--dist", "rs", "--rs-c", "nan"],
        ["decode-sim", "--network", "--k", "20", "--h", "2", "--trials", "1",
         "--dist", "rs", "--storage", "rs", "--rs-c", "nan"],
    ])
    def test_clean_error(self, tmp_path, capsys, argv):
        code, text = run_to_file(tmp_path, "x.csv", argv + ["--seed", "1"])
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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

    def test_draws_nothing(self, tmp_path, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("disseminate drew a block or built a network")

        monkeypatch.setattr(codec.SourceBlock, "random", no_draw)
        monkeypatch.setattr(network, "build_network", no_draw)
        texts = []
        for seed in ("1", "2"):
            code, text = run_to_file(tmp_path, f"s{seed}.csv", ["disseminate", "--seed", seed])
            assert code == 0
            texts.append(text.replace(f"# seed={seed}\n", ""))
        assert texts[0] == texts[1]

    def test_rejects_payload_len(self, tmp_path, capsys):
        code, text = run_to_file(tmp_path, "p.csv",
                                 ["disseminate", "--payload-len", "8", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "--payload-len" in err

    def test_help_states_the_k_bound(self, capsys):
        # verify takes time k**2, so a ring above 10000 is refused while parsing
        with pytest.raises(SystemExit):
            main(["disseminate", "--help"])
        assert "--k K                 ring size, at most 10000" in capsys.readouterr().out

    @pytest.mark.parametrize("k, mode, sent, rounds",
                             [(7, "d1", 7, 3), (7, "d2", 3, 3), (8, "d1", 8, 4), (8, "d2", 4, 4)])
    def test_csv_bytes(self, tmp_path, k, mode, sent, rounds):
        _, text = run_to_file(
            tmp_path, "g.csv",
            ["disseminate", "--k", str(k), "--dissemination", mode, "--seed", "1"],
        )
        assert text == (
            f"# command=disseminate\n# dissemination={mode}\n# k={k}\n"
            f"# rounds={rounds}\n# seed=1\n# verified=true\n"
            "relay,transmissions,rounds,verified\n"
            + "".join(f"{relay},{sent},{rounds},true\n" for relay in range(1, k + 1))
        )


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

    @pytest.mark.parametrize("strategies, rows, simulated", [
        ("polling,is_doping",
         "polling,200,50,,0,200,50,1\nis_doping,200,50,0.02,204,8,4.55,0.091\n", 3),
        ("polling", "polling,200,50,,0,200,50,1\n", 0),
    ], ids=["with_is_doping", "polling_only"])
    def test_mc_kd_simulates_only_the_delta_it_reads(
        self, tmp_path, monkeypatch, strategies, rows, simulated
    ):
        trials = []
        sample = cli.codec_dopings

        def counted(seed, streams, *args):
            trials.extend(streams)
            return sample(seed, streams, *args)

        monkeypatch.setattr(cli, "codec_dopings", counted)
        _, text = run_to_file(
            tmp_path, "mc.csv",
            ["cost", "--strategies", strategies, "--mc-kd", "--trials", "3", "--k", "200",
             "--h", "50", "--delta", "0.02", "--seed", "1"],
        )
        assert text == (
            "# command=cost\n# eps_rs=0.5\n# h=50\n"
            "# hop_model=costeq\n# k=200\n# mc_kd=true\n# seed=1\n"
            f"# strategies={strategies}\n# stream_version=6\n# trials=3\n"
            "strategy,k,h,delta,k_s,k_d,c_T,c_T_normalized\n" + rows
        )
        assert len(trials) == simulated

    @pytest.mark.parametrize("delta, grids", [
        ("0.02", ["0:0.06:0.01", "0.02:0.03:0.01"]),  # on the grid
        ("0.015", ["0:0.06:0.01", "0.02:0.03:0.01"]),  # off it
    ])
    def test_mc_kd_is_decode_sim_mean(self, tmp_path, delta, grids):
        # k_d at delta is decode-sim's mean over the same trials, in a strategy
        # table (which reads no grid) and on every curve whose grid holds delta
        common = ["--k", "200", "--trials", "4", "--seed", "7"]
        k_s = str(round(200 * (1.0 + float(delta))))
        _, text = run_to_file(tmp_path, "ds.csv", ["decode-sim", "--ks", k_s, *common])
        mean = [r["k_d"] for r in data_rows(text)[1] if r["trial"] == "mean"]
        _, table = run_to_file(
            tmp_path, "st.csv",
            ["cost", "--strategies", "is_doping", "--delta", delta, "--h", "50",
             "--mc-kd", *common],
        )
        assert [r["k_d"] for r in data_rows(table)[1]] == mean
        if delta == "0.02":  # on both grids; 0.015 is on neither
            for grid in grids:
                _, curve = run_to_file(
                    tmp_path, "cv.csv",
                    ["cost", "--h", "50", "--delta-grid", grid, "--mc-kd", *common],
                )
                assert [r["k_d"] for r in data_rows(curve)[1] if r["delta"] == delta] == mean


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

    @pytest.mark.parametrize("network", ["true", "false", "YES", "no", "1", "0"])
    def test_typed_values_and_flags_from_file(self, tmp_path, network):
        cfg = tmp_path / "typed.conf"
        cfg.write_text(f"k=30\nh=3\ndelta=0.1\ntrials=2\nseed=4\nnetwork={network}\n")
        by_file, by_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert main(["decode-sim", "--config", str(cfg), "--out", str(by_file)]) == 0
        flags = ["--k", "30", "--h", "3", "--delta", "0.1", "--trials", "2", "--seed", "4"]
        flags += ["--network"] if network.lower() in ("true", "yes", "1") else []
        assert main(["decode-sim", *flags, "--out", str(by_flags)]) == 0
        assert by_file.read_text() == by_flags.read_text()

    def test_malformed_line_reports_position(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("k=40\nnot a pair\n")
        with pytest.raises(ConfigError, match="bad.conf:2"):
            load_config_file(str(cfg))

    @pytest.mark.parametrize("command, line", [
        ("decode-sim", "dissemination=d3\nnetwork=true"),
        ("decode-sim", "storage=xyz"),
        ("cost", "hop_model=foo"),
        ("decode-sim", "network=maybe"),
        ("cost", "mc_kd=2"),
        ("cost", "strategies="),
        ("validate", "criterion=,"),
    ])
    def test_bad_value_rejected(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.conf"
        cfg.write_text(line + "\n")
        code, text = run_to_file(tmp_path, "x.csv", [command, "--config", str(cfg), "--seed", "1"])
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "odd.conf"
        cfg.write_text("warp=9\n")
        code = main(["decode-sim", "--config", str(cfg), "--seed", "1"])
        assert code == 2

    def test_nested_config_rejected(self, tmp_path, capsys):
        # a file naming another would be overridden by the command line's
        # own --config, so the nested file's pairs would never be read
        nested = tmp_path / "nested.conf"
        nested.write_text("warp=9\n")
        outer = tmp_path / "outer.conf"
        outer.write_text(f"k=20\nconfig={nested}\n")
        out = tmp_path / "x.csv"
        assert main(["decode-sim", "--config", str(outer), "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "outer.conf" in err
        assert not out.exists()

    def test_missing_seed_fails(self, tmp_path):
        code = main(["decode-sim", "--k", "20", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_flags_after_the_file_win(self, tmp_path):
        # pairs are parsed as flags ahead of the command line's own
        cfg = tmp_path / "net.conf"
        cfg.write_text("k=30\nh=5\ntrials=2\nseed=4\nnetwork=true\n")
        by_file, by_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        argv = ["decode-sim", "--config", str(cfg), "--network", "no", "--seed", "5"]
        assert main([*argv, "--out", str(by_file)]) == 0
        flags = ["--k", "30", "--h", "5", "--trials", "2", "--seed", "5", "--network", "0"]
        assert main(["decode-sim", *flags, "--out", str(by_flags)]) == 0
        assert by_file.read_text() == by_flags.read_text()
        assert "# network=false\n" in by_file.read_text()


class TestBadArgument:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, pairs", [
        ("decode-sim", {"dissemination": "d3", "seed": "1"}),
        ("decode-sim", {"seed": "abc"}),
        ("decode-sim", {"warp": "9", "seed": "1"}),
        ("analyze", {"delta_g": "0:0.01:0.01", "seed": "1"}),
        ("decode-sim", {"network": "maybe", "seed": "1"}),
        ("cost", {"mc_kd": "2", "seed": "1"}),
        ("decode-sim", {"k": "20"}),
    ], ids=["bad_choice", "seed_not_integer", "unknown_name", "abbreviation",
            "network_word", "mc_kd_word", "no_seed"])
    def test_one_error_line(self, tmp_path, capsys, source, command, pairs):
        # either source goes through the one parser: exit 2, one line, no usage
        if source == "flag":
            argv = [command]
            for key, value in pairs.items():
                argv += [f"--{key.replace('_', '-')}", value]
        else:
            cfg = tmp_path / "run.conf"
            cfg.write_text("".join(f"{key}={value}\n" for key, value in pairs.items()))
            argv = [command, "--config", str(cfg)]
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "usage" not in captured.err + captured.out and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["decode-sim", "--seed", "1", "--config", "{tmp}/absent.conf"],
        ["disseminate", "--seed", "1", "--out", "{tmp}/absent/x.csv"],
    ], ids=["config_file", "out_dir"])
    def test_missing_path(self, tmp_path, capsys, argv):
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["cost", "--help"]])
    def test_help_still_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ")


class TestReadmeExamples:
    def test_readme_has_examples(self):
        assert len(README_COMMANDS) >= 11

    @pytest.mark.parametrize("line", README_COMMANDS)
    def test_example_parses(self, line):
        # parse only: the examples run at full size
        argv = shlex.split(line)[1:]
        args = cli._build_parser().parse_args(cli._with_config(argv))
        assert args.command == argv[0]


class TestValidateCommand:
    def test_single_criterion_passes(self, capsys):
        code = main(["validate", "--criterion", "yield_anchor", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PASS yield_anchor")

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

    def test_report_parses_as_csv(self, tmp_path, capsys, monkeypatch):
        # thresholds and a failure list hold commas; quoted, every row has four fields
        names = ["yield_anchor", "degree_evolution", "recursion_matrix", "dissemination",
                 "cost_minima", "strategy_order"]
        _, threshold = validation.CRITERIA["dissemination"]
        monkeypatch.setitem(validation.CRITERIA, "dissemination",
                            (lambda seed: (False, {"failures": [3, 5]}), threshold))
        code, text = run_to_file(tmp_path, "r.csv",
                                 ["validate", "--seed", "1", "--criterion", ",".join(names)])
        assert code == 1
        rows = list(csv.reader(l for l in text.splitlines() if not l.startswith("#")))
        assert rows[0] == ["criterion", "passed", "measured", "threshold"]
        assert [row[:2] for row in rows[1:]] == [
            [name, "false" if name == "dissemination" else "true"] for name in names]
        assert [row[3] for row in rows[1:]] == [validation.CRITERIA[n][1] for n in names]
        assert rows[4][2] == "failures=[3, 5]"

    def test_report_file_is_byte_identical_across_runs(self, tmp_path, capsys):
        # wall time goes to stdout, never into the CSV
        texts = []
        for name in ("a.csv", "b.csv"):
            code, text = run_to_file(tmp_path, name, [
                "validate", "--seed", "1", "--criterion", "decoder_bitexact"])
            assert code == 0 and "seconds" not in text
            texts.append(text)
        assert texts[0] == texts[1]
        assert " seconds=" in capsys.readouterr().out

    def test_every_criterion_is_timed(self, capsys):
        # yield_anchor keeps no timer of its own; run_criterion times it
        assert main(["validate", "--criterion", "yield_anchor", "--seed", "1"]) == 0
        assert " seconds=" in capsys.readouterr().out
