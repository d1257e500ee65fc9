"""Golden CSVs: subcommands run in-process must write exactly the committed
bytes.  A change that moves a draw bumps ``cli.STREAM_VERSION`` and rewrites
these files in the same change (``python tests/golden/rewrite.py``).

``validate`` runs only criteria whose measured text is independent of the
BLAS; ``yield_anchor`` and ``recursion_matrix`` report ~1e-16 errors that
are not."""

from pathlib import Path

import pytest

from squadfountain import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = {
    "decode_sim_codec.csv": ["decode-sim", "--seed", "1", "--k", "300", "--trials", "3",
                             "--dist", "is,rs"],
    "decode_sim_network_d1.csv": ["decode-sim", "--seed", "1", "--network", "--k", "200",
                                  "--h", "20", "--trials", "2"],
    "decode_sim_network_d2.csv": ["decode-sim", "--seed", "1", "--network", "--k", "200",
                                  "--h", "20", "--trials", "2", "--dissemination", "d2",
                                  "--storage-input", "degree_two_inputs"],
    "analyze_grid.csv": ["analyze", "--k", "2000", "--delta-grid", "0:0.06:0.01", "--seed", "1"],
    "analyze_grid_k10000.csv": ["analyze", "--k", "10000", "--delta-grid", "0:0.1:0.005",
                                "--seed", "1"],
    "analyze_yield.csv": ["analyze", "--yield-lambda", "1.0", "--t-max", "50", "--seed", "1"],
    "cost_curve.csv": ["cost", "--h", "10,15,30", "--delta-grid", "0:0.06:0.01", "--seed", "1"],
    "cost_strategies.csv": ["cost", "--strategies", "polling,coupon,rs_no_doping,is_doping",
                            "--h", "100", "--seed", "1"],
    "disseminate_d1.csv": ["disseminate", "--k", "7", "--dissemination", "d1", "--seed", "1"],
    "disseminate_d2.csv": ["disseminate", "--k", "7", "--dissemination", "d2", "--seed", "1"],
    "validate_analytic.csv": ["validate", "--seed", "1", "--criterion",
                              "cost_minima,strategy_order"],
    "cost_curve_mc_kd.csv": ["cost", "--k", "200", "--h", "10,15,30", "--delta-grid",
                             "0:0.06:0.02", "--mc-kd", "--trials", "3", "--seed", "1"],
    "decode_sim_config.csv": ["decode-sim", "--config",
                              str(GOLDEN_DIR / "decode_sim_network_rs.conf")],
    # the README's two decode-sim examples at small k and --trials
    "readme_decode_sim_codec.csv": ["decode-sim", "--k", "100", "--trials", "5", "--dist",
                                    "is,rs", "--seed", "42"],
    "readme_decode_sim_network.csv": ["decode-sim", "--network", "--k", "100", "--h", "20",
                                      "--trials", "3", "--seed", "42"],
}
# subcommands whose CSV names the RNG stream; analyze, disseminate and an
# analytic cost draw nothing, while cost --mc-kd runs decode-sim's trials
STREAM_COMMANDS = {"decode-sim", "validate"}


def draws(argv):
    return argv[0] in STREAM_COMMANDS or "--mc-kd" in argv


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bytes_match_golden(name, tmp_path):
    golden = (GOLDEN_DIR / name).read_bytes()
    if draws(GOLDEN[name]):
        assert f"# stream_version={cli.STREAM_VERSION}\n".encode() in golden
    else:
        assert b"# stream_version=" not in golden
    out = tmp_path / name
    assert cli.main(GOLDEN[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == golden
