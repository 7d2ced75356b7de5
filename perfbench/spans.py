"""Span recording for the traced benchmark run.

The traced run wraps the exported entry points of each wsnmle layer from
outside the package: every call of a wrapped function appends one span
``[name, start, end, parent, trial]`` to an in-memory list, which is
written out once the run ends.  Self time is computed from the spans
afterwards.

Functions that run inside an inner loop are deliberately not wrapped, so
the overhead stays small: ``project_gains`` (one call per power-iteration
step, ~600k calls per sweep), ``local_model`` / ``local_noise_covariance``
/ ``information_value`` (one call per node inside ``node_information``),
``information_total``, ``build_Q`` and ``build_R`` (their time shows as
``optimize`` self time).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (module under wsnmle, attribute) of every wrapped entry point.  The span
# name is "<module>.<attribute>", so a layer is the prefix before the dot.
ENTRY_POINTS = (
    ("topology", "random_connected_graph"),
    ("network_model", "sample_channels"),
    ("network_model", "node_information"),
    ("fusion", "select_retainers"),
    ("fusion", "build_global_model"),
    ("fusion", "sample_received"),
    ("fusion", "decompose_information"),
    ("fusion", "ml_estimate"),
    ("fusion", "ml_variance"),
    ("gain_optimizer", "optimize"),
    ("gain_optimizer", "power_iterate"),
    ("gain_optimizer", "update_y"),
    ("gain_optimizer", "lambda_max_estimate"),
    ("consensus", "decentralized_mle"),
    ("experiment", "run_variance_sweep"),
    ("experiment", "run_convergence"),
    ("experiment", "build_scenario"),
    ("experiment", "optimize_with_reselection"),
    ("experiment", "write_convergence_trace"),
    ("cli", "main"),
)
# NetworkModel validates its channel table in __post_init__; that method is
# the model-building entry point.
MODEL_BUILD = "network_model.NetworkModel"

FUSION_ESTIMATE = (
    "fusion.sample_received",
    "fusion.decompose_information",
    "fusion.ml_estimate",
    "fusion.ml_variance",
)


def _plan_links(args, kwargs, plan):
    # Retained external rows and the 2|E| directed links they come from.
    graph = args[0] if args else kwargs["g"]
    external = len(plan.retained) - graph.n
    return external, external + plan.r


def _trace_rows(args, kwargs, _result):
    run = args[1] if len(args) > 1 else kwargs["run"]
    return int(run.I.shape[0] * run.I.shape[1])


# Small facts read off a wrapped call, so no large result is kept alive.
OBSERVERS = {
    "topology.random_connected_graph": lambda a, k, g: g.num_edges,
    "network_model.sample_channels": lambda a, k, h: len(h),
    "fusion.select_retainers": _plan_links,
    "fusion.build_global_model": lambda a, k, gm: gm.m,
    "gain_optimizer.optimize": lambda a, k, t: (t.outer_cycles, sum(t.inner_iters_used), t.converged),
    "consensus.decentralized_mle": lambda a, k, run: run.iterations,
    "experiment.write_convergence_trace": _trace_rows,
}


class SpanRecorder:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.facts: dict[str, list] = defaultdict(list)
        self.trial = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.trial])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if observe is not None:
                self.facts[name].append(observe(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point wherever a wsnmle module refers to it."""
        modules = [m for key, m in sys.modules.items() if key == "wsnmle" or key.startswith("wsnmle.")]
        for mod_name, attr in ENTRY_POINTS:
            orig = getattr(sys.modules[f"wsnmle.{mod_name}"], attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        cls = sys.modules["wsnmle.network_model"].NetworkModel
        orig = cls.__dict__["__post_init__"]
        cls.__post_init__ = self._wrap(MODEL_BUILD, orig)
        self._undo.append((cls, "__post_init__", orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "trial": trial}))
                fh.write("\n")


def span_times(spans):
    """Inclusive and self seconds summed per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        inclusive[name] += end - start
        own[name] += end - start - child[i]
    return inclusive, own


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def layer_metrics(rec: SpanRecorder, scenarios: int, bytes_written: int) -> dict:
    """Per-layer metrics of one traced pass, as ``{name: (value, unit)}``.

    Times are seconds per scenario, so passes of different lengths compare;
    counts are means per call unless stated otherwise.
    """
    inclusive, own = span_times(rec.spans)
    per = 1.0 / max(scenarios, 1)

    def layer_self(layer):
        return sum(v for k, v in own.items() if k.startswith(layer + "."))

    opt_calls = [e - s for name, s, e, _, _ in rec.spans if name == "gain_optimizer.optimize"]
    opt_facts = rec.facts["gain_optimizer.optimize"]
    inner_total = sum(f[1] for f in opt_facts)
    iters_total = sum(rec.facts["consensus.decentralized_mle"])
    plans = rec.facts["fusion.select_retainers"]
    links_2e = sum(p[1] for p in plans)
    return {
        "topology.random_connected_graph_s": (inclusive["topology.random_connected_graph"] * per, "s"),
        "topology.edges": (_mean(rec.facts["topology.random_connected_graph"]), "count"),
        "network_model.sample_channels_s": (inclusive["network_model.sample_channels"] * per, "s"),
        "network_model.model_build_s": (inclusive[MODEL_BUILD] * per, "s"),
        "network_model.node_information_s": (inclusive["network_model.node_information"] * per, "s"),
        "network_model.links": (_mean(rec.facts["network_model.sample_channels"]), "count"),
        "fusion.select_retainers_s": (inclusive["fusion.select_retainers"] * per, "s"),
        "fusion.build_global_model_s": (inclusive["fusion.build_global_model"] * per, "s"),
        "fusion.estimate_s": (sum(inclusive[n] for n in FUSION_ESTIMATE) * per, "s"),
        "fusion.rows": (_mean(rec.facts["fusion.build_global_model"]), "count"),
        "fusion.kept_ratio": (sum(p[0] for p in plans) / links_2e if links_2e else 0.0, "ratio"),
        "gain_optimizer.optimize_s": (inclusive["gain_optimizer.optimize"] * per, "s"),
        "gain_optimizer.optimize_s_p50": (float(statistics.median(opt_calls)) if opt_calls else 0.0, "s"),
        "gain_optimizer.optimize_s_max": (max(opt_calls, default=0.0), "s"),
        "gain_optimizer.power_iterate_s": (inclusive["gain_optimizer.power_iterate"] * per, "s"),
        "gain_optimizer.update_y_s": (inclusive["gain_optimizer.update_y"] * per, "s"),
        "gain_optimizer.lambda_max_s": (inclusive["gain_optimizer.lambda_max_estimate"] * per, "s"),
        "gain_optimizer.outer_cycles": (_mean([f[0] for f in opt_facts]), "count"),
        "gain_optimizer.inner_iters": (_mean([f[1] for f in opt_facts]), "count"),
        "gain_optimizer.us_per_inner_iter": (
            own["gain_optimizer.power_iterate"] / inner_total * 1e6 if inner_total else 0.0,
            "us",
        ),
        "gain_optimizer.nonconverged": (sum(1 for f in opt_facts if not f[2]), "count"),
        "consensus.decentralized_mle_s": (inclusive["consensus.decentralized_mle"] * per, "s"),
        "consensus.iterations": (_mean(rec.facts["consensus.decentralized_mle"]), "count"),
        "consensus.us_per_iter": (
            inclusive["consensus.decentralized_mle"] / iters_total * 1e6 if iters_total else 0.0,
            "us",
        ),
        "experiment.write_trace_s": (inclusive["experiment.write_convergence_trace"] * per, "s"),
        "experiment.trace_rows": (_mean(rec.facts["experiment.write_convergence_trace"]), "count"),
        "experiment.bytes_written": (bytes_written * per, "B"),
        "experiment.self_s": (layer_self("experiment") * per, "s"),
        "cli.self_s": (layer_self("cli") * per, "s"),
    }
