"""Command-line entry point.

Subcommands::

    wsnmle topology   --out-dir out          # generate and save a graph
    wsnmle optimize   --out-dir out          # gain optimization traces
    wsnmle consensus  --out-dir out          # decentralized estimation run
    wsnmle sweep      --n-list 4,8,16        # variance vs network size
    wsnmle selfcheck                         # property suite, exit code 0/1

Every subcommand takes ``--config FILE`` (JSON, same keys as
``ExperimentConfig``), ``--seed`` and only the other flags it reads
(``_COMMANDS``), by exact name.  Each command that writes files is one
call into :mod:`wsnmle.experiment`; this module parses and prints.  A
value that breaks its rule, wherever the library checks it, raises
:class:`~wsnmle.errors.ConfigError`, which exits 2 with the subcommand's
usage line and ``wsnmle <cmd>: error: <message>``, as argparse does.  The
parser is built on the first :func:`main` call and reused for the rest of
the process; the property suite is imported only by ``wsnmle selfcheck``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .errors import ConfigError
from .experiment import ExperimentConfig, run_convergence, run_optimize, run_variance_sweep, write_topology
from .network_model import GainDomain


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json_file(args.config) if args.config else ExperimentConfig()
    for flag, key in (("seed", "master_seed"), ("trials", "trials"), ("n", "n"), ("constraint", "constraint")):
        if getattr(args, flag, None) is not None:  # ExperimentConfig turns a constraint name into its GainDomain
            cfg = dataclasses.replace(cfg, **{key: getattr(args, flag)})
    if getattr(args, "rho", None) is not None:
        cfg = dataclasses.replace(cfg, admm=dataclasses.replace(cfg.admm, rho=args.rho))
    return cfg


def cmd_topology(cfg: ExperimentConfig, args) -> int:
    path = write_topology(cfg, args.out_dir)
    print(f"wrote {path}")
    return 0


def cmd_optimize(cfg: ExperimentConfig, args) -> int:
    trace = run_optimize(cfg, args.out_dir)
    print(
        f"n={cfg.n} cycles={trace.outer_cycles} converged={trace.converged} "
        f"variance {trace.variances[0]:.6g} -> {trace.var_final:.6g}"
    )
    return 0


def cmd_consensus(cfg: ExperimentConfig, args) -> int:
    summary = run_convergence(cfg, args.out_dir)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_sweep(cfg: ExperimentConfig, args) -> int:
    rows = run_variance_sweep(cfg, args.n_list, args.out_dir)
    for row in rows:
        print(
            f"n={row['n']:3d} trials={row['trials']} failures={row['failures']} "
            f"var(opt)={row['mean_var_optimized']:.6g} var(ones)={row['mean_var_all_ones']:.6g} "
            f"var(rand)={row['mean_var_random']:.6g} improved={row['frac_improved']:.3f}"
        )
    return 0


def _sizes(text: str) -> list[int]:
    """``--n-list``: one or more comma-separated integers (``run_variance_sweep`` checks their range)."""
    try:
        sizes = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        sizes = []
    if not sizes:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return sizes


def cmd_selfcheck(cfg: ExperimentConfig, args) -> int:
    from .selfcheck import run_all  # the suite's only user: other commands skip compiling it

    results = run_all(seed=cfg.master_seed, cases=args.cases)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}" + (f": {r.detail}" if r.detail else ""))
    if failed:
        print(f"first failing property: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


# Every flag's definition, once; each subcommand takes the ones it reads.
_FLAGS = {
    "--config": dict(type=Path, help="JSON config file"),
    "--seed": dict(type=int, help="master seed override"),
    "--out-dir": dict(type=Path, default=Path("out"), help="output directory"),
    "--n": dict(type=int, help="network size override"),
    "--n-list": dict(type=_sizes, default="4,8,12,16", help="comma-separated network sizes"),
    "--trials": dict(type=int, help="Monte Carlo trial count override"),
    "--constraint": dict(choices=[d.value for d in GainDomain], help="gain constraint domain override"),
    "--rho": dict(type=float, help="consensus step constant override"),
    "--cases": dict(type=int, default=100, help="random cases per property"),
}

# (name, handler, help, flags) of each subcommand.
_COMMANDS = (
    ("topology", cmd_topology, "generate a random connected graph",
     ("--config", "--seed", "--out-dir", "--n")),
    ("optimize", cmd_optimize, "run the cyclic gain optimizer",
     ("--config", "--seed", "--out-dir", "--n", "--constraint")),
    ("consensus", cmd_consensus, "run the decentralized estimation experiment",
     ("--config", "--seed", "--out-dir", "--n", "--constraint", "--rho")),
    ("sweep", cmd_sweep, "variance vs network size sweep",
     ("--config", "--seed", "--out-dir", "--n-list", "--trials", "--constraint")),
    ("selfcheck", cmd_selfcheck, "run the randomized property suite",
     ("--config", "--seed", "--cases")),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process (each add_argument makes a HelpFormatter that
    # probes the terminal), so it holds nothing that varies between calls:
    # main loads the config, and the handlers look their collaborators up, per call.
    parser = argparse.ArgumentParser(
        prog="wsnmle",
        description="Decentralized ML estimation and sensor-gain optimization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, text, flags in _COMMANDS:
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn, usage_error=p.error)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(_load_config(args), args)
    except ConfigError as exc:  # a value that breaks its rule: reported like argparse's own errors
        args.usage_error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
