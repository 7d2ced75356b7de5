"""Command-line entry point.

Subcommands::

    wsnmle topology   --out-dir out          # generate and save a graph
    wsnmle optimize   --out-dir out          # gain optimization traces
    wsnmle consensus  --out-dir out          # decentralized estimation run
    wsnmle sweep      --n-list 4,8,16        # variance vs network size
    wsnmle selfcheck                         # property suite, exit code 0/1

All subcommands accept ``--config FILE`` (JSON, same keys as
``ExperimentConfig``) plus a handful of common overrides.  The parser is
built on the first :func:`main` call and reused for the rest of the
process; the property suite is imported only by ``wsnmle selfcheck``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .experiment import (
    ExperimentConfig,
    build_scenario,
    optimize_with_reselection,
    run_convergence,
    run_variance_sweep,
    write_gains,
    write_opt_trace,
    write_topology,
)
from .network_model import GainDomain, GainVector


def _load_config(args) -> ExperimentConfig:
    cfg = (
        ExperimentConfig.from_json_file(args.config)
        if args.config
        else ExperimentConfig()
    )
    for flag, key in (("seed", "master_seed"), ("trials", "trials"), ("n", "n"), ("constraint", "constraint")):
        if getattr(args, flag) is not None:  # ExperimentConfig turns a constraint name into its GainDomain
            cfg = dataclasses.replace(cfg, **{key: getattr(args, flag)})
    if args.rho is not None:
        cfg = dataclasses.replace(cfg, admm=dataclasses.replace(cfg.admm, rho=args.rho))
    return cfg


def cmd_topology(args) -> int:
    cfg = _load_config(args)
    path = write_topology(cfg, args.out_dir)
    print(f"wrote {path}")
    return 0


def cmd_optimize(args) -> int:
    cfg = _load_config(args)
    _, model = build_scenario(cfg)  # rejects a bad model before any output exists
    _, trace = optimize_with_reselection(model, GainVector.ones(cfg.n, cfg.constraint))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_opt_trace(out / "opt_trace.csv", trace)
    write_gains(out / "gains.csv", trace.gains)
    print(
        f"n={cfg.n} cycles={trace.outer_cycles} converged={trace.converged} "
        f"variance {trace.variances[0]:.6g} -> {trace.var_final:.6g}"
    )
    return 0


def cmd_consensus(args) -> int:
    cfg = _load_config(args)
    summary = run_convergence(cfg, args.out_dir)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = run_variance_sweep(cfg, args.n_list, args.out_dir)
    for row in rows:
        print(
            f"n={row['n']:3d} trials={row['trials']} failures={row['failures']} "
            f"var(opt)={row['mean_var_optimized']:.6g} var(ones)={row['mean_var_all_ones']:.6g} "
            f"var(rand)={row['mean_var_random']:.6g} improved={row['frac_improved']:.3f}"
        )
    return 0


def _sizes(text: str) -> list[int]:
    """``--n-list``: one or more comma-separated network sizes, each an integer of at least 1."""
    try:
        sizes = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        sizes = [0]
    if not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers of at least 1, got {text!r}")
    return sizes


def _cases(text: str) -> int:
    """``--cases``: random cases per property, an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def cmd_selfcheck(args) -> int:
    from .selfcheck import run_all  # the suite's only user: other commands skip compiling it

    cfg = _load_config(args)
    results = run_all(seed=cfg.master_seed, cases=args.cases)
    failed = [r for r in results if not r.passed]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        line = f"[{mark}] {r.name}"
        if r.detail:
            line += f": {r.detail}"
        print(line)
    if failed:
        print(f"first failing property: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process (each add_argument makes a HelpFormatter that
    # probes the terminal), so it holds nothing that varies between calls:
    # the cmd_* functions look their collaborators up when they run.
    parser = argparse.ArgumentParser(
        prog="wsnmle",
        description="Decentralized ML estimation and sensor-gain optimization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # flags every subcommand takes
    common.add_argument("--config", type=Path, help="JSON config file")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--out-dir", type=Path, default=Path("out"), help="output directory")
    common.add_argument("--trials", type=int, help="Monte Carlo trial count override")
    common.add_argument("--n", type=int, help="network size override")
    common.add_argument(
        "--constraint",
        choices=[d.value for d in GainDomain],
        help="gain constraint domain override",
    )
    common.add_argument("--rho", type=float, help="consensus step constant override")

    p = sub.add_parser("topology", parents=[common], help="generate a random connected graph")
    p.set_defaults(fn=cmd_topology)

    p = sub.add_parser("optimize", parents=[common], help="run the cyclic gain optimizer")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("consensus", parents=[common], help="run the decentralized estimation experiment")
    p.set_defaults(fn=cmd_consensus)

    p = sub.add_parser("sweep", parents=[common], help="variance vs network size sweep")
    p.add_argument("--n-list", type=_sizes, default="4,8,12,16", help="comma-separated network sizes")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("selfcheck", parents=[common], help="run the randomized property suite")
    p.add_argument("--cases", type=_cases, default=100, help="random cases per property")
    p.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
