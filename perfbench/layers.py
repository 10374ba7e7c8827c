"""Which package functions the tracer wraps, and the per-layer metrics.

The layers are the package modules.  Every metric is a mean per traced
op: a count of work done in the layer, the time spent inside its calls
("busy", children included) or the layer's self time (children in other
wrapped calls excluded).  Names match the per_layer list in
BENCHMARK.json.
"""

from __future__ import annotations

import numpy as np

from tracer import Target, ancestors

def median(values) -> float:
    return float(np.median(values)) if values else 0.0


LAYERS = ("streams", "simulate", "kinetics", "limit_law", "inference",
          "experiments", "cli")


def _size(args, kwargs, result):
    return {"points": int(np.size(result))}


def _ensemble(args, kwargs, result):
    return {"draws": result.count, "n_gen": result.n_gen}


def _kde(args, kwargs, result):
    return {"evals": int(np.size(args[0])) * int(np.size(result))}


def _profile_rows(args, kwargs, result):
    return {"candidates": int(np.shape(result)[0])}


# aggregate=True marks functions called once per draw or per replicate,
# thousands of times an op: they are counted and timed without a span each.
TARGETS = (
    Target("qpcrkin.streams", "stream", "streams"),
    Target("qpcrkin.streams", "ReusableStream.reset", "streams", aggregate=True),
    Target("qpcrkin.simulate", "simulate_reaction", "simulate"),
    Target("qpcrkin.kinetics", "limit_profile", "kinetics", counts=_size),
    Target("qpcrkin.kinetics", "inverse_profile", "kinetics", counts=_size),
    Target("qpcrkin.kinetics", "iterate_mean_map", "kinetics"),
    Target("qpcrkin.limit_law", "sample_limit", "limit_law", counts=_ensemble),
    Target("qpcrkin.limit_law", "limit_mgf", "limit_law", counts=_size),
    Target("qpcrkin.limit_law", "pointwise_density", "limit_law", counts=_kde),
    Target("qpcrkin.inference", "observe", "inference"),
    Target("qpcrkin.inference", "limit_observables_batch", "inference"),
    Target("qpcrkin.inference", "estimate_copies_normal", "inference", aggregate=True),
    Target("qpcrkin.inference", "estimate_efficiency", "inference", aggregate=True),
    Target("qpcrkin.inference", "copy_profile", "inference", counts=_profile_rows),
    Target("qpcrkin.inference", "estimate_from_trajectory", "inference"),
    Target("qpcrkin.inference", "write_report_json", "inference"),
    Target("qpcrkin.experiments", "run_experiment", "experiments"),
    Target("qpcrkin.experiments", "ks_distance", "experiments"),
    Target("qpcrkin.experiments", "write_result_json", "experiments"),
    Target("qpcrkin.cli", "main", "cli"),
)


def layer_metrics(tracer, plain, traced) -> dict:
    """Per-op means of every per-layer metric over the traced ops.

    plain[i] and traced[i] are the untraced and the traced run of one op.
    """
    pairs = [(p, t) for p, t in zip(plain, traced) if p.ok and t.ok]
    traced_ops = [t for _, t in pairs]
    n = max(1, len(traced_ops))
    keep = {r.index for r in traced_ops}
    spans = [s for s in tracer.spans if s.op in keep]
    every = tracer.spans

    def of(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.duration for s in of(name))

    def total(name, key):
        return sum(s.counts[key] for s in of(name))

    def per_op(value):
        return value / n

    reset = tracer.aggregates.get("streams.ReusableStream.reset")
    reset_calls = reset.calls if reset else 0
    reset_s = reset.seconds if reset else 0.0
    self_s = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        self_s[s.layer] += s.self_time
    for agg in tracer.aggregates.values():
        self_s[agg.layer] += agg.seconds

    ensembles = of("limit_law.sample_limit")
    draws = sum(s.counts["draws"] for s in ensembles)
    steps = sum(s.counts["draws"] * s.counts["n_gen"] for s in ensembles)
    estimates = len(of("inference.estimate_from_trajectory"))
    scan_draws = sum(
        s.counts["draws"] for s in ensembles
        if any(a.name == "inference.estimate_from_trajectory"
               for a in ancestors(every, s)))
    inverses = len(of("kinetics.inverse_profile"))
    nested_profiles = sum(
        1 for s in of("kinetics.limit_profile")
        if s.parent is not None and every[s.parent].name == "kinetics.inverse_profile")
    trajectories = len(of("simulate.simulate_reaction"))
    # op time outside every wrapped call: argument parsing, harness glue
    top_level = sum(s.duration for s in spans if s.parent is None)
    unattributed = sum(r.seconds for r in traced_ops) - top_level

    metrics = {
        "limit_law.sample_busy_s": per_op(busy("limit_law.sample_limit")),
        "limit_law.us_per_draw": 1e6 * busy("limit_law.sample_limit") / draws if draws else 0.0,
        "limit_law.draws": per_op(draws),
        "limit_law.ensembles": per_op(len(ensembles)),
        "limit_law.branching_steps": per_op(steps),
        "limit_law.mgf_points": per_op(total("limit_law.limit_mgf", "points")),
        "limit_law.mgf_busy_s": per_op(busy("limit_law.limit_mgf")),
        "limit_law.kde_evals": per_op(total("limit_law.pointwise_density", "evals")),
        "limit_law.kde_busy_s": per_op(busy("limit_law.pointwise_density")),
        "streams.reset_calls": per_op(reset_calls),
        "streams.stream_calls": per_op(len(of("streams.stream"))),
        "streams.busy_s": per_op(busy("streams.stream") + reset_s),
        "simulate.trajectories": per_op(trajectories),
        "simulate.busy_s": per_op(busy("simulate.simulate_reaction")),
        "simulate.us_per_trajectory": (1e6 * busy("simulate.simulate_reaction") / trajectories
                                       if trajectories else 0.0),
        "kinetics.profile_calls": per_op(len(of("kinetics.limit_profile"))),
        "kinetics.profile_points": per_op(total("kinetics.limit_profile", "points")),
        "kinetics.profile_busy_s": per_op(busy("kinetics.limit_profile")),
        "kinetics.inverse_points": per_op(total("kinetics.inverse_profile", "points")),
        "kinetics.inverse_busy_s": per_op(busy("kinetics.inverse_profile")),
        "kinetics.profile_calls_per_inverse": nested_profiles / inverses if inverses else 0.0,
        "inference.estimates": per_op(estimates),
        "inference.scan_candidates": per_op(total("inference.copy_profile", "candidates")),
        "inference.draws_per_estimate": scan_draws / estimates if estimates else 0.0,
        "inference.scan_busy_s": per_op(busy("inference.copy_profile")),
        "inference.observe_busy_s": per_op(busy("inference.observe")),
        "inference.invert_busy_s": per_op(busy("inference.limit_observables_batch")),
        "inference.boundary_warnings": per_op(sum(r.boundary_warnings for r in traced_ops)),
        "experiments.runs": per_op(len(of("experiments.run_experiment"))),
        "cli.bytes_written": per_op(sum(r.bytes_written for r in traced_ops)),
        "trace.op_p50_s": median([t.seconds for _, t in pairs]),
        "trace.untraced_op_p50_s": median([p.seconds for p, _ in pairs]),
        "trace.overhead": median([t.seconds / p.seconds - 1.0 for p, t in pairs]),
        "trace.spans_per_op": per_op(len(spans)),
        "trace.unattributed_s": per_op(unattributed),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_op(self_s[layer])
    return metrics
