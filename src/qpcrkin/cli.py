"""Command-line interface.

Subcommands write their outputs to files and keep progress chatter on
standard error.  Every value can come from a JSON config object
(--config), whose keys stand for flags placed ahead of the explicit ones,
so explicit flags take precedence over the file and the file over the
parser's defaults.  Exit status is 0 on success and 1 on any invariant
violation or I/O failure.  The argument parser is built once per process,
on the first call to main, and reused by later calls.
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


# what a config value must be, by its flag's type: JSON types and their name
_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _config_flags(parser, path):
    """The flags the --config file at path stands for, in the file's order.

    Each key is the dest of one of parser's flags, and its value is what
    that flag takes: a JSON integer for an int flag, a number for a float
    flag, true or false for a switch, and a string otherwise, which the
    flag parses as on the command line.  A null value keeps the default.
    """
    with _reading(path) as fh:
        doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
    actions = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    unknown = sorted(set(doc) - set(actions))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {unknown}")
    argv = []
    for key, value in doc.items():
        if value is None:
            continue
        action = actions[key]
        if action.nargs == 0:  # a switch: its const sets it, the other bool is its default
            types, want = (bool,), "true or false"
        else:
            types, want = _CONFIG_TYPES.get(action.type, ((str,), "a string"))
        if type(value) not in types:  # type(True) is bool, not int
            raise ValueError(f"{key} must be {want}, got {json.dumps(value)} (in {path})")
        if action.type is not None and type(value) is str:
            # a list flag's string, parsed here, where the key and the file are known
            try:
                action.type(value)
            except ValueError:
                raise ValueError(f"{key} must be {action.type.__name__} values, "
                                 f"got {json.dumps(value)} (in {path})") from None
        if action.nargs != 0:
            argv.append(f"{action.option_strings[0]}={value}")
        elif value == action.const:
            argv.append(action.option_strings[0])
    return argv


def _comma_list(item):
    """A flag type: the comma-separated items of its value, as a tuple."""
    def parse(text):
        return tuple(item(tok) for tok in text.split(",") if tok)
    parse.__name__ = f"comma-separated {item.__name__}"  # argparse names a refusal by it
    return parse


def _cmd_simulate(args) -> int:
    kin = Kinetics.from_exponent(args.v, args.m)
    n_cycles = args.cycles if args.cycles is not None else args.m + 5
    traj = simulate_reaction(kin, args.z0, n_cycles, seed=args.seed,
                             replicate_id=args.replicate)
    write_trajectory_csv(traj, args.out)
    print(f"simulate: {n_cycles} cycles, final count {int(traj.counts[-1])} "
          f"-> {args.out}", file=sys.stderr)
    return 0


def _cmd_h_curves(args) -> int:
    grid = curve_grid(args.x_max, args.x_step)
    curves = emit_profile_curves(args.v_list, grid, out=args.out)
    print(f"h-curves: {len(curves)} efficiencies x {grid.size} grid points "
          f"-> {args.out}", file=sys.stderr)
    return 0


def _cmd_w_sample(args) -> int:
    ens = sample_limit(args.v, z=args.z0, count=args.count, seed=args.seed)
    write_ensemble_csv(ens, args.out)
    print(f"w-sample: {ens.count} draws at v={ens.v}, depth {ens.n_gen} "
          f"-> {args.out}", file=sys.stderr)
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
    if args.mle_count is not None or args.mle_seed is not None:
        print("estimate: mle_count and mle_seed have no effect; the likelihood "
              "scan is exact", file=sys.stderr)
    if args.traj is not None:
        given = [f"--{key}" for key in ("m", "z0", "cycles", "seed")
                 if getattr(args, key) is not None]
        if given:
            raise ValueError(f"--traj reads the trajectory from its file; {', '.join(given)} "
                             "would be ignored (from the command line or --config)")
        traj = read_trajectory_csv(args.traj)
        source = args.traj
    else:
        if args.v is None or args.m is None:
            raise ValueError("estimate needs --traj or both --v and --m")
        kin = Kinetics.from_exponent(args.v, args.m)
        z0 = 1 if args.z0 is None else args.z0
        seed = 0 if args.seed is None else args.seed
        if args.cycles is not None:
            traj = simulate_reaction(kin, z0, args.cycles, seed=seed)
        else:
            traj = _simulate_observable(kin, args.m, z0, seed, args.rho, args.fit_v)
        source = f"simulated m={args.m}, z0={z0}, seed={seed}, {traj.n_cycles} cycles"
    # --fit-v treats the efficiency as unknown; otherwise it is v or the
    # trajectory's own value
    if args.fit_v:
        v_known = None
    else:
        v_known = args.v if args.v is not None else traj.kinetics.v
    report = estimate_from_trajectory(
        traj, rho=args.rho, v_known=v_known, run_mle=args.run_mle, z_max=args.z_max,
    )
    write_report_json(report, args.out)
    print(f"estimate: {source}; tau={report.tau}, "
          f"z_normal={report.z_hat_normal:.4g}, z_mle={report.z_hat_mle} "
          f"-> {args.out}", file=sys.stderr)
    return 0


def _cmd_experiment(args) -> int:
    if args.kind is None:
        raise ValueError("experiment needs --kind (or config 'kind')")
    if args.ref_count is not None:
        print("experiment: ref_count has no effect; runs are compared with the "
              "exact law of the growth limit", file=sys.stderr)
    # the flags are the ScenarioSpec fields, fit_efficiency spelled fit_v,
    # and the inert ref_count; a field without a value keeps the spec's default
    opts = vars(args) | {"fit_efficiency": args.fit_v}
    spec = ScenarioSpec(**{f.name: opts[f.name] for f in dataclasses.fields(ScenarioSpec)
                           if opts[f.name] is not None})
    print(f"experiment: kind={spec.kind}, v={spec.v}, m={spec.m}, "
          f"z0={spec.z0}, replicates={spec.replicates}", file=sys.stderr)
    result = run_experiment(spec)
    write_result_json(result, args.out)
    brief = {k: v for k, v in result.summary.items()
             if not isinstance(v, list)}
    print(f"experiment: done in {result.runtime_seconds:.2f}s; "
          f"summary {brief} -> {args.out}", file=sys.stderr)
    return 0


def _add_command(sub, name, summary, handler):
    """A subcommand with --config and --out; main runs handler on its namespace."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--config", help="JSON file of flag values, by dest (flags win)")
    p.add_argument("--out", help="output file path")
    p.set_defaults(handler=handler, parser=p)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The one declaration of every subcommand's flags, types and defaults."""
    parser = argparse.ArgumentParser(
        prog="qpcrkin",
        description="Branching-process simulation and copy-number inference "
                    "for quantitative PCR",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "simulate", "simulate one amplification trajectory", _cmd_simulate)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--v", type=float, default=0.5,
                   help="replication efficiency in (0, 1]")
    p.add_argument("--m", type=int, default=30, help="scale exponent, K = (1+v)**m")
    p.add_argument("--z0", type=int, default=1, help="initial copy number")
    p.add_argument("--cycles", type=int, help="number of cycles (default m+5)")
    p.add_argument("--replicate", type=int, default=0,
                   help="reaction stream block r: row 1000 r of an experiment "
                        "of 1000 r + 1 replicates")

    p = _add_command(sub, "h-curves", "tabulate the limit profile on a grid", _cmd_h_curves)
    p.add_argument("--v", dest="v_list", type=_comma_list(float),
                   default=DEFAULT_CURVE_EFFICIENCIES,
                   help="comma-separated efficiencies (default 0.25,0.5,0.9,1.0)")
    p.add_argument("--x-max", dest="x_max", type=float, default=4.0)
    p.add_argument("--x-step", dest="x_step", type=float, default=0.01)

    p = _add_command(sub, "w-sample", "sample the scaled growth limit", _cmd_w_sample)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--v", type=float, default=0.5)
    p.add_argument("--z0", type=int, default=1, help="number of ancestors")
    p.add_argument("--count", type=int, default=10 ** 4, help="ensemble size")

    # m, z0, cycles and seed only shape a simulated trajectory: no default
    # here, so that one given with --traj is caught
    p = _add_command(sub, "estimate", "estimate copy number from a trajectory", _cmd_estimate)
    p.add_argument("--seed", type=int)
    p.add_argument("--traj", help="trajectory CSV (default: simulate one); "
                                  "refuses --m, --z0, --cycles and --seed")
    p.add_argument("--v", type=float, help="known efficiency")
    p.add_argument("--m", type=int)
    p.add_argument("--z0", type=int)
    p.add_argument("--cycles", type=int,
                   help="cycles to simulate (default m+5, longer by 5 at a "
                        "time up to m+20 while the run is unobservable)")
    p.add_argument("--rho", type=float, default=0.05, help="detection threshold density")
    p.add_argument("--fit-v", dest="fit_v", action="store_true",
                   help="treat the efficiency as unknown and fit it")
    p.add_argument("--no-mle", dest="run_mle", action="store_false",
                   help="skip the likelihood scan")
    p.add_argument("--mle-count", dest="mle_count", type=int,
                   help="no effect: the likelihood scan is exact")
    p.add_argument("--mle-seed", dest="mle_seed", type=int,
                   help="no effect: the likelihood scan is exact")
    p.add_argument("--z-max", dest="z_max", type=int)

    # no defaults: ScenarioSpec holds them
    p = _add_command(sub, "experiment", "run a Monte Carlo scenario", _cmd_experiment)
    p.add_argument("--seed", type=int)
    p.add_argument("--kind", help=f"one of {', '.join(KINDS)}")
    p.add_argument("--v", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--z0", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--replicates", type=int)
    p.add_argument("--ref-count", dest="ref_count", type=int,
                   help="no effect: runs are compared with the exact law")
    p.add_argument("--shift", type=int)
    p.add_argument("--extra-cycles", dest="extra_cycles", type=int)
    p.add_argument("--m-values", dest="m_values", type=_comma_list(int),
                   help="comma-separated scale exponents for the coupling sweep")
    p.add_argument("--gamma", type=float)
    p.add_argument("--c-exponent", dest="c_exponent", type=float)
    p.add_argument("--fit-v", dest="fit_v", action="store_const", const=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parse_args leaves it as it
    # was and returns a fresh Namespace each time
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    try:
        if args.config is not None:
            # the file's flags go right after the command, so an explicit
            # flag, parsed later, wins over the file
            at = argv.index(args.command) + 1
            args = _parser().parse_args(
                argv[:at] + _config_flags(args.parser, args.config) + argv[at:])
        if not args.out:
            raise ValueError("an output path is required (--out or config 'out')")
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        print(f"error: {exc}", file=sys.stderr)
        return 1
