"""Fixed-seed CLI outputs must stay byte-identical to the committed copies.

The files in ``tests/golden/`` were written by::

    wsnmle sweep --constraint unimodular --n-list 8,16 --trials 3 --seed 7
    wsnmle sweep --n-list 4,8 --trials 3 --seed 7   # sweep_fixed_energy.csv
    wsnmle topology --n 16 --seed 7
    wsnmle consensus --n 8 --seed 7      # consensus_trace.csv, summary.json
    wsnmle consensus --n 8 --seed 7 --rho 0.5   # consensus_trace_rho0.5.csv
    wsnmle consensus --n 64 --seed 7 --constraint unimodular   # summary_n64.json
    wsnmle optimize --n 8 --seed 7       # opt_trace.csv, gains.csv

The second sweep runs the default fixed-energy gains; its ``sweep.csv``
is kept as ``sweep_fixed_energy.csv``.  The second consensus run sets the
step constant the first one fits to the graph; its trace is kept as
``consensus_trace_rho0.5.csv``.  The third consensus run's ``summary.json``,
kept as ``summary_n64.json``, pins the round kernel on degrees of 12 to 50,
where numpy sums each neighbour segment in pairwise blocks.  A change that alters them on
purpose regenerates them with these commands and says why in CHANGES.md.
"""

from pathlib import Path

import pytest

from wsnmle import cli
from wsnmle.cli import main
from wsnmle.topology import load_graph, save_graph

GOLDEN = Path(__file__).parent / "golden"
SWEEP = ["sweep", "--constraint", "unimodular", "--n-list", "8,16", "--trials", "3", "--seed", "7"]
CONSENSUS = ["consensus", "--n", "8", "--seed", "7"]
OPTIMIZE = ["optimize", "--n", "8", "--seed", "7"]


@pytest.mark.parametrize(
    "argv, name, golden",
    [
        (SWEEP, "sweep.csv", "sweep.csv"),
        (["sweep", "--n-list", "4,8", "--trials", "3", "--seed", "7"], "sweep.csv", "sweep_fixed_energy.csv"),
        (["topology", "--n", "16", "--seed", "7"], "graph.json", "graph.json"),
        (CONSENSUS, "consensus_trace.csv", "consensus_trace.csv"),
        (CONSENSUS, "summary.json", "summary.json"),
        (CONSENSUS + ["--rho", "0.5"], "consensus_trace.csv", "consensus_trace_rho0.5.csv"),
        (["consensus", "--n", "64", "--seed", "7", "--constraint", "unimodular"], "summary.json", "summary_n64.json"),
        (OPTIMIZE, "opt_trace.csv", "opt_trace.csv"),
        (OPTIMIZE, "gains.csv", "gains.csv"),
    ],
    ids=["sweep", "sweep-fixed-energy", "topology", "consensus-trace", "consensus-summary",
         "consensus-trace-rho0.5", "consensus-summary-n64", "optimize-trace", "optimize-gains"],
)
def test_output_bytes_match_golden(tmp_path, argv, name, golden):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / golden).read_bytes()


def test_graph_file_round_trips(tmp_path):
    # The committed graph read back through the edge-list constructor.
    g, seed, model = load_graph(GOLDEN / "graph.json")
    save_graph(g, tmp_path / "graph.json", seed=seed, model=model)
    assert (tmp_path / "graph.json").read_bytes() == (GOLDEN / "graph.json").read_bytes()


def test_one_parser_serves_every_call(tmp_path, capsys):
    # The parser is built once per process: a rejected argv and --help
    # between runs leave nothing behind that changes a later run's bytes.
    parser = cli._parser()
    assert main(SWEEP + ["--out-dir", str(tmp_path / "sweep-1")]) == 0
    assert main(CONSENSUS + ["--out-dir", str(tmp_path / "consensus")]) == 0
    with pytest.raises(SystemExit) as stop:
        main(["sweep", "--n-list", "0,4", "--out-dir", str(tmp_path / "rejected")])
    assert stop.value.code == 2 and not (tmp_path / "rejected").exists()
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0 and "usage: wsnmle" in capsys.readouterr().out
    assert main(SWEEP + ["--out-dir", str(tmp_path / "sweep-2")]) == 0
    assert cli._parser() is parser
    for out, name in [("sweep-1", "sweep.csv"), ("consensus", "consensus_trace.csv"),
                      ("consensus", "summary.json"), ("sweep-2", "sweep.csv")]:
        assert (tmp_path / out / name).read_bytes() == (GOLDEN / name).read_bytes(), (out, name)
