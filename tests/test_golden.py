"""Fixed-seed CLI outputs must stay byte-identical to the committed copies.

The files in ``tests/golden/`` were written by::

    wsnmle sweep --constraint unimodular --n-list 8,16 --trials 3 --seed 7
    wsnmle topology --n 16 --seed 7
    wsnmle consensus --n 8 --seed 7      # consensus_trace.csv, summary.json
    wsnmle optimize --n 8 --seed 7       # opt_trace.csv, gains.csv

A change that alters them on purpose regenerates them with these commands
and says why in CHANGES.md.
"""

from pathlib import Path

import pytest

from wsnmle.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONSENSUS = ["consensus", "--n", "8", "--seed", "7"]
OPTIMIZE = ["optimize", "--n", "8", "--seed", "7"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["sweep", "--constraint", "unimodular", "--n-list", "8,16", "--trials", "3", "--seed", "7"], "sweep.csv"),
        (["topology", "--n", "16", "--seed", "7"], "graph.json"),
        (CONSENSUS, "consensus_trace.csv"),
        (CONSENSUS, "summary.json"),
        (OPTIMIZE, "opt_trace.csv"),
        (OPTIMIZE, "gains.csv"),
    ],
    ids=["sweep", "topology", "consensus-trace", "consensus-summary", "optimize-trace", "optimize-gains"],
)
def test_output_bytes_match_golden(tmp_path, argv, name):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
