"""Command-line interface.

Subcommands write their outputs to files and keep progress chatter on
standard error.  Every value can come from a JSON config object
(--config), with explicit flags taking precedence over the file and the
file over built-in defaults.  Exit status is 0 on success and 1 on any
invariant violation or I/O failure.  The argument parser is built once
per process, on the first call to main, and reused by later calls.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .kinetics import Kinetics
from .simulate import (
    _reading,
    densities,
    read_trajectory_csv,
    simulate_reaction,
    write_trajectory_csv,
)
from .limit_law import sample_limit, write_ensemble_csv
from .inference import estimate_from_trajectory, write_report_json
from .experiments import (
    DEFAULT_CURVE_EFFICIENCIES,
    KINDS,
    ScenarioSpec,
    curve_grid,
    emit_profile_curves,
    run_experiment,
    write_result_json,
)


#: without --cycles, `estimate` simulates m + _HORIZON_STEP cycles, and
#: _HORIZON_STEP more at a time while the run is unobservable, up to
#: m + _HORIZON_CAP
_HORIZON_STEP = 5
_HORIZON_CAP = 20


def _load_config(path):
    if path is None:
        return {}
    with _reading(path) as fh:
        doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
    return doc


def _merged(args, defaults):
    """defaults < config file < explicit flags; rejects unknown config keys."""
    config = _load_config(args.config)
    extra = set(config) - set(defaults)
    if extra:
        raise ValueError(f"{args.config}: unknown config keys: {sorted(extra)}")
    merged = dict(defaults)
    merged.update(config)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _require_out(opts):
    if not opts.get("out"):
        raise ValueError("an output path is required (--out or config 'out')")
    return opts["out"]


def _cmd_simulate(args) -> int:
    opts = _merged(args, {
        "v": 0.5, "m": 30, "z0": 1, "seed": 0, "replicate": 0,
        "cycles": None, "out": None,
    })
    out = _require_out(opts)
    kin = Kinetics.from_exponent(opts["v"], opts["m"])
    n_cycles = opts["cycles"] if opts["cycles"] is not None else opts["m"] + 5
    traj = simulate_reaction(kin, opts["z0"], n_cycles, seed=opts["seed"],
                             replicate_id=opts["replicate"])
    write_trajectory_csv(traj, out)
    print(f"simulate: {n_cycles} cycles, final count {int(traj.counts[-1])} "
          f"-> {out}", file=sys.stderr)
    return 0


def _cmd_h_curves(args) -> int:
    opts = _merged(args, {
        "v_list": list(DEFAULT_CURVE_EFFICIENCIES),
        "x_max": 4.0, "x_step": 0.01, "out": None,
    })
    out = _require_out(opts)
    v_list = opts["v_list"]
    if isinstance(v_list, str):
        v_list = [float(tok) for tok in v_list.split(",") if tok]
    grid = curve_grid(opts["x_max"], opts["x_step"])
    curves = emit_profile_curves(v_list, grid, out=out)
    print(f"h-curves: {len(curves)} efficiencies x {grid.size} grid points "
          f"-> {out}", file=sys.stderr)
    return 0


def _cmd_w_sample(args) -> int:
    opts = _merged(args, {
        "v": 0.5, "z0": 1, "count": 10 ** 4, "seed": 0, "out": None,
    })
    out = _require_out(opts)
    ens = sample_limit(opts["v"], z=opts["z0"], count=opts["count"],
                       seed=opts["seed"])
    write_ensemble_csv(ens, out)
    print(f"w-sample: {ens.count} draws at v={ens.v}, depth {ens.n_gen} "
          f"-> {out}", file=sys.stderr)
    return 0


def _simulate_observable(kin, m, z0, seed, rho, fit_v):
    """One trajectory, simulated m + 5 cycles or longer until it is observable.

    A run is observable when its density reaches rho, with at least two
    densities from that cycle on when the efficiency is fitted.  While it
    is not, the same seed runs _HORIZON_STEP cycles longer, up to
    m + _HORIZON_CAP; a trajectory is prefix-stable, so the longer run
    extends the shorter one.  Past the cap the last run is returned and
    the estimate raises its usual error.
    """
    for n_cycles in range(m + _HORIZON_STEP, m + _HORIZON_CAP + 1, _HORIZON_STEP):
        traj = simulate_reaction(kin, z0, n_cycles, seed=seed)
        # counts never fall, so the densities from the crossing on are
        # exactly those at or above rho
        if (densities(traj) >= rho).sum() >= (2 if fit_v else 1):
            break
    return traj


def _cmd_estimate(args) -> int:
    # m, z0, cycles and seed only shape a simulated trajectory: no default
    # here, so that one given with --traj is caught
    opts = _merged(args, {
        "v": None, "m": None, "z0": None, "rho": 0.05, "seed": None,
        "cycles": None, "traj": None, "fit_v": False, "run_mle": True,
        "mle_count": None, "mle_seed": None, "z_max": None, "out": None,
    })
    out = _require_out(opts)
    if opts["mle_count"] is not None or opts["mle_seed"] is not None:
        print("estimate: mle_count and mle_seed have no effect; the likelihood "
              "scan is exact", file=sys.stderr)
    if opts["traj"] is not None:
        given = [f"--{key}" for key in ("m", "z0", "cycles", "seed") if opts[key] is not None]
        if given:
            raise ValueError(f"--traj reads the trajectory from its file; {', '.join(given)} "
                             "would be ignored (from the command line or --config)")
        traj = read_trajectory_csv(opts["traj"])
        source = opts["traj"]
    else:
        if opts["v"] is None or opts["m"] is None:
            raise ValueError("estimate needs --traj or both --v and --m")
        kin = Kinetics.from_exponent(opts["v"], opts["m"])
        z0 = 1 if opts["z0"] is None else opts["z0"]
        seed = 0 if opts["seed"] is None else opts["seed"]
        if opts["cycles"] is not None:
            traj = simulate_reaction(kin, z0, opts["cycles"], seed=seed)
        else:
            traj = _simulate_observable(kin, opts["m"], z0, seed, opts["rho"], opts["fit_v"])
        source = f"simulated m={opts['m']}, z0={z0}, seed={seed}, {traj.n_cycles} cycles"
    # --fit-v treats the efficiency as unknown; otherwise it is v or the
    # trajectory's own value
    if opts["fit_v"]:
        v_known = None
    else:
        v_known = opts["v"] if opts["v"] is not None else traj.kinetics.v
    report = estimate_from_trajectory(
        traj, rho=opts["rho"], v_known=v_known, run_mle=opts["run_mle"],
        z_max=opts["z_max"],
    )
    write_report_json(report, out)
    print(f"estimate: {source}; tau={report.tau}, "
          f"z_normal={report.z_hat_normal:.4g}, z_mle={report.z_hat_mle} "
          f"-> {out}", file=sys.stderr)
    return 0


def _cmd_experiment(args) -> int:
    # the options are the ScenarioSpec fields, fit_efficiency spelled
    # fit_v, plus kind without a default and the inert ref_count
    defaults = {f.name: f.default for f in dataclasses.fields(ScenarioSpec)}
    defaults.update(kind=None, fit_v=defaults.pop("fit_efficiency"), ref_count=None)
    opts = _merged(args, defaults)
    out = _require_out(opts)
    if opts["kind"] is None:
        raise ValueError("experiment needs --kind (or config 'kind')")
    if opts.pop("ref_count") is not None:
        print("experiment: ref_count has no effect; runs are compared with the "
              "exact law of the growth limit", file=sys.stderr)
    if isinstance(opts["m_values"], str):
        opts["m_values"] = tuple(int(tok) for tok in opts["m_values"].split(",") if tok)
    spec = ScenarioSpec(fit_efficiency=opts.pop("fit_v"), **opts)
    print(f"experiment: kind={spec.kind}, v={spec.v}, m={spec.m}, "
          f"z0={spec.z0}, replicates={spec.replicates}", file=sys.stderr)
    result = run_experiment(spec)
    write_result_json(result, out)
    brief = {k: v for k, v in result.summary.items()
             if not isinstance(v, list)}
    print(f"experiment: done in {result.runtime_seconds:.2f}s; "
          f"summary {brief} -> {out}", file=sys.stderr)
    return 0


def _add_common(sub):
    sub.add_argument("--config", help="JSON file with defaults for this command")
    sub.add_argument("--out", help="output file path")
    sub.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpcrkin",
        description="Branching-process simulation and copy-number inference "
                    "for quantitative PCR",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one amplification trajectory")
    _add_common(p)
    p.add_argument("--v", type=float, help="replication efficiency in (0, 1]")
    p.add_argument("--m", type=int, help="scale exponent, K = (1+v)**m")
    p.add_argument("--z0", type=int, help="initial copy number")
    p.add_argument("--cycles", type=int, help="number of cycles (default m+5)")
    p.add_argument("--replicate", type=int,
                   help="reaction stream block r: row 1000 r of an experiment "
                        "of 1000 r + 1 replicates")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("h-curves", help="tabulate the limit profile on a grid")
    _add_common(p)
    p.add_argument("--v", dest="v_list",
                   help="comma-separated efficiencies (default 0.25,0.5,0.9,1.0)")
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--x-step", dest="x_step", type=float)
    p.set_defaults(handler=_cmd_h_curves)

    p = sub.add_parser("w-sample", help="sample the scaled growth limit")
    _add_common(p)
    p.add_argument("--v", type=float)
    p.add_argument("--z0", type=int, help="number of ancestors")
    p.add_argument("--count", type=int, help="ensemble size")
    p.set_defaults(handler=_cmd_w_sample)

    p = sub.add_parser("estimate",
                       help="estimate copy number from a trajectory")
    _add_common(p)
    p.add_argument("--traj", help="trajectory CSV (default: simulate one); "
                                  "refuses --m, --z0, --cycles and --seed")
    p.add_argument("--v", type=float, help="known efficiency")
    p.add_argument("--m", type=int)
    p.add_argument("--z0", type=int)
    p.add_argument("--cycles", type=int,
                   help="cycles to simulate (default m+5, longer by 5 at a "
                        "time up to m+20 while the run is unobservable)")
    p.add_argument("--rho", type=float, help="detection threshold density")
    p.add_argument("--fit-v", dest="fit_v", action="store_const", const=True,
                   help="treat the efficiency as unknown and fit it")
    p.add_argument("--no-mle", dest="run_mle", action="store_const", const=False,
                   help="skip the likelihood scan")
    p.add_argument("--mle-count", dest="mle_count", type=int,
                   help="no effect: the likelihood scan is exact")
    p.add_argument("--mle-seed", dest="mle_seed", type=int,
                   help="no effect: the likelihood scan is exact")
    p.add_argument("--z-max", dest="z_max", type=int)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a Monte Carlo scenario")
    _add_common(p)
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--v", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--z0", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--replicates", type=int)
    p.add_argument("--ref-count", dest="ref_count", type=int,
                   help="no effect: runs are compared with the exact law")
    p.add_argument("--shift", type=int)
    p.add_argument("--extra-cycles", dest="extra_cycles", type=int)
    p.add_argument("--m-values", dest="m_values",
                   help="comma-separated scale exponents for the coupling sweep")
    p.add_argument("--gamma", type=float)
    p.add_argument("--c-exponent", dest="c_exponent", type=float)
    p.add_argument("--fit-v", dest="fit_v", action="store_const", const=True)
    p.set_defaults(handler=_cmd_experiment)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parse_args leaves it as it
    # was and returns a fresh Namespace each time
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        print(f"error: {exc}", file=sys.stderr)
        return 1
