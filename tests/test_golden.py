"""Golden CSVs: subcommands run in-process must write exactly the committed
bytes.  A change that moves a draw bumps ``cli.STREAM_VERSION`` and rewrites
these files in the same change (``python tests/golden/rewrite.py``)."""

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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bytes_match_golden(name, tmp_path):
    golden = (GOLDEN_DIR / name).read_bytes()
    assert f"# stream_version={cli.STREAM_VERSION}\n".encode() in golden
    out = tmp_path / name
    assert cli.main(GOLDEN[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == golden
