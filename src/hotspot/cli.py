"""Command-line front end.

Subcommands: generate, simulate, detect, gamma, bounds, sweep,
threshold-sweep, describe. Every run that draws honors --seed (fallbacks: a
sweep config's seed=, then $HOTSPOT_SEED, then 0) for bitwise reproducibility;
sweep flags override the keys of a --config file. detect exits 0 for a
uniform-reporting verdict, 2 for an epidemic verdict and 1 on any error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import calibration, detector, harness
from .detector import VERDICT_CSV_HEADER, DetectorConfig
from .graph import load_edge_list, save_edge_list
from .scenario import (EPIDEMIC, UNIFORM, ReportSnapshot, ScenarioParams,
                       generate_uniform_null, make_epidemic_snapshot)

EXIT_UNIFORM = 0
EXIT_ERROR = 1
EXIT_EPIDEMIC = 2


class _Parser(argparse.ArgumentParser):
    """Exit 1, not argparse's 2 (an epidemic verdict), on bad flags; no abbreviations."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _seed(args) -> int:
    """--seed, else $HOTSPOT_SEED, else 0; a sweep config's seed= ranks after --seed."""
    if args.seed is not None:
        return args.seed
    seed = os.environ.get("HOTSPOT_SEED", "0")
    return harness.cast_value(f"HOTSPOT_SEED={seed!r}", seed, int)


def _add_flags(p, keys, required=False) -> None:
    """A flag on ``p`` (a parser or group) for each key-table row in ``keys``, in order:
    --graph for path, else --<key>; --topology and --graph come first, exclusive. The one
    row-named flag made by hand is gamma --trials: 200 realizations, not trials_per_point."""
    source = p.add_mutually_exclusive_group() if "topology" in keys else p
    for key in sorted(keys, key=lambda key: key not in ("topology", "path")):
        row = harness.KEYS[key]
        flag = "--graph" if key == "path" else "--" + key.replace("_", "-")
        takes = (dict(action="store_true") if row.cast is bool else
                 dict(type=row.cast if row.cast in (int, float) else None, choices=row.choices))
        (source if key in ("topology", "path") else p).add_argument(
            flag, help=row.help, required=required, **takes)


_TOPOLOGY_KEYS = [key for key, row in harness.KEYS.items() if row.part == "topology"]


def _load_graph(args):
    """The graph of --topology FAMILY, or of --graph FILE (topology 'file')."""
    path = getattr(args, "graph", None)
    if not (path or args.topology):
        raise ValueError("need --graph FILE or --topology FAMILY")
    given = {**vars(args), "topology": "file" if path else args.topology, "path": path}
    return harness.TopologySpec(**harness.part_fields(given, "topology")).build(_seed(args))


def _scenario_rule(args) -> dict:
    """alpha, q and f: an unset --alpha, --q or --f takes a sweep scenario's default."""
    rule = {**vars(harness.ScenarioRule()), **harness.part_fields(vars(args), "scenario")}
    return {key: rule[key] for key in ("alpha", "q", "f")}


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    if args.topology in (None, "file"):
        raise ValueError("generate needs --topology er|grid|tree|powerlaw")
    if args.seed is not None and args.topology in harness.FIXED_KINDS:
        raise ValueError(f"--topology {args.topology} does not use --seed")
    g = _load_graph(args)
    save_edge_list(g, args.out)
    print(f"wrote {g.n} nodes, {g.num_edges} edges to {args.out}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    unused = {"epidemic": "null_p", "null": "seeds"}[args.scenario]  # the other one's flag
    if getattr(args, unused) is not None:
        raise ValueError(f"--scenario {args.scenario} does not use --{unused.replace('_', '-')}")
    for name in ("alpha", "q", "f") if args.null_p is not None else ():
        if getattr(args, name) is not None:  # a given null probability is not matched
            raise ValueError(f"--scenario null with --null-p does not use --{name}")
    g, rule = _load_graph(args), _scenario_rule(args)
    if args.scenario == "epidemic":
        params = ScenarioParams(**rule, num_seeds=1 if args.seeds is None else args.seeds)
        snap, _ = make_epidemic_snapshot(g, params, _seed(args))
    else:
        p = calibration.reporting_probabilities(**rule).p if args.null_p is None else args.null_p
        snap = generate_uniform_null(g, p, _seed(args))
    _write_text(snap.to_text(), args.out)
    return 0


def _auto_detect_config(args, regime, g, reporting) -> DetectorConfig:
    """Pick K and T with the shared prescription, echoing the choice to stderr."""
    gamma = args.gamma  # the gamma sources are mutually exclusive
    if args.gamma_profile:
        gamma = calibration.GammaProfile.from_csv(args.gamma_profile)
    elif args.gamma_fallback:
        if args.alpha is None:
            raise ValueError("--gamma-fallback needs --alpha")
        gamma = calibration.gamma_lower_bound(math.ceil(args.alpha * g.n))
    elif args.family:
        gamma = 1.0 if args.family == "grid" else calibration.gamma_tree_profile()
    cfg = detector.prescribe(
        g.n, len(reporting), regime, q=args.q, alpha=args.alpha, f=args.f or 0.0,
        gamma=gamma, log_base=args.log_base, beta=args.beta, rho=args.rho, mu=args.mu)
    print(cfg.note, file=sys.stderr)
    return cfg


def _cmd_detect(args) -> int:
    prescribed = (args.regime or args.gamma_profile or args.gamma is not None
                  or args.gamma_fallback or args.family)
    kind = args.regime or ("auto" if prescribed else args.mode or "nn")
    # a fixed detector's flags are named first, then a prescription's
    unused = sorted(harness.unread_keys(kind, vars(args), ("detector", "scenario", None)),
                    key=lambda key: not set(harness.KEYS[key].reads) <= {"nn", "ball"})
    if unused:
        raise ValueError(f"{'--regime' if prescribed else '--mode ' + kind} "
                         f"does not use --{unused[0].replace('_', '-')}")
    g = load_edge_list(args.graph, compact=args.compact)
    snap = ReportSnapshot.load(args.snapshot)
    if snap.n != g.n:
        print(f"warning: snapshot n={snap.n} vs graph n={g.n}", file=sys.stderr)
    if snap.reporting.size and snap.reporting[-1] >= g.n:
        raise ValueError(f"reporting node {snap.reporting[-1]} out of range "
                         f"for a graph of {g.n} nodes")
    cfg = (_auto_detect_config(args, kind, g, snap.reporting) if prescribed
           else harness.fixed_detector(kind, args.k, args.l, args.s, args.t))
    verdict = detector.classify(g, snap.reporting, cfg)
    truth = snap.truth if snap.truth in (EPIDEMIC, UNIFORM) else None
    if args.header:
        print(VERDICT_CSV_HEADER)
    print(verdict.csv_row(truth))
    return EXIT_EPIDEMIC if verdict.label == EPIDEMIC else EXIT_UNIFORM


def _cmd_gamma(args) -> int:
    g = _load_graph(args)
    params = ScenarioParams(**_scenario_rule(args), num_seeds=args.seeds)
    if args.k_list:
        k_values = [harness.cast_value(f"--k-list item {item!r}", item, int)
                    for item in args.k_list.split(",")]
    else:
        k_values = list(range(1, calibration.k_cap(g.n) + 1))
    profile = calibration.estimate_gamma(g, params, k_values, args.trials,
                                         _seed(args), topology_tag=args.tag)
    _write_text(profile.to_csv_text(), args.out)
    return 0


def _cmd_bounds(args) -> int:
    bounds = calibration.error_bounds(args.gamma, args.q, args.alpha, args.f or 0.0,
                                      args.k, args.n_reporting)
    print("e1_bound,e2_bound,P,P_in")
    print(f"{bounds.e1_bound:.10g},{bounds.e2_bound:.10g},"
          f"{bounds.p_big:.10g},{bounds.p_in_big:.10g}")
    if bounds.diagnostic:
        print(bounds.diagnostic, file=sys.stderr)
    return 0


def _spec_from_args(args) -> "harness.ExperimentSpec":
    """The --config mapping overlaid by every flag given. A --graph,
    --topology or --detector flag replaces that part of the config: the
    config keys its kind does not read are dropped."""
    raw = harness.read_mapping(args.config) if args.config else {}
    if args.command == "threshold-sweep":
        raw.pop("t", None)  # each row's threshold is a --t-values entry
    for part, kind in (("topology", "file" if args.graph else args.topology),
                       ("detector", args.detector)):
        for key in harness.unread_keys(kind, raw, (part,)) if kind else ():
            raw.pop(key)
    raw.update((key, str(val)) for key, val in vars(args).items()
               if key in harness.KEYS and val is not None and val is not False)
    if args.graph:
        raw.update(topology="file", path=args.graph)
    raw.setdefault("seed", str(_seed(args)))
    spec = harness.spec_from_mapping(raw)
    if args.command == "threshold-sweep" and spec.sweep_name == "t" and "values" in raw:
        raise ValueError("threshold-sweep takes its thresholds from --t-values, not a t sweep")
    return spec


def _cmd_sweep(args) -> int:
    """sweep and threshold-sweep, which take the same experiment keys."""
    spec = _spec_from_args(args)
    if args.command == "sweep":
        result = harness.run_sweep(spec)
    else:
        result = harness.threshold_sweep(spec, [
            harness.cast_value(f"--t-values item {item!r}", item, float)
            for item in args.t_values.split(",")])
    _write_text(result.to_csv_text(), args.out)
    return 0


def _cmd_describe(_args) -> int:
    print(harness.describe_defaults())
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hotspot",
                     description="Contagion-vs-random-reporting snapshot classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a generated graph as an edge list")
    p_gen.set_defaults(run=_cmd_generate)
    _add_flags(p_gen, [key for key in _TOPOLOGY_KEYS if key != "path"])
    p_gen.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="write a labeled reporting snapshot")
    p_sim.set_defaults(run=_cmd_simulate)
    _add_flags(p_sim, _TOPOLOGY_KEYS)
    p_sim.add_argument("--scenario", choices=["epidemic", "null"], default="epidemic")
    _add_flags(p_sim, ["alpha", "q", "f"])
    p_sim.add_argument("--seeds", type=int, default=None, help="contagion seeds (default 1)")
    p_sim.add_argument("--null-p", type=float, default=None,
                       help="override the matched null reporting probability")
    p_sim.add_argument("--out")

    p_det = sub.add_parser("detect", help="classify a snapshot (exit 0 uniform, 2 epidemic)")
    p_det.set_defaults(run=_cmd_detect)
    _add_flags(p_det, ["path"], required=True)
    p_det.add_argument("--snapshot", required=True)
    _add_flags(p_det, ["compact", "mode", "k", "l", "s", "t"])
    p_det.add_argument("--header", action="store_true", help="print the CSV header line")
    _add_flags(p_det, ["regime", "q", "alpha", "f", "beta", "rho", "mu"])
    _add_flags(p_det.add_mutually_exclusive_group(),  # the gamma sources
               ["gamma", "gamma_profile", "gamma_fallback", "family"])
    _add_flags(p_det, ["log_base"])

    p_gam = sub.add_parser("gamma", help="estimate the interior fraction by simulation")
    p_gam.set_defaults(run=_cmd_gamma)
    _add_flags(p_gam, _TOPOLOGY_KEYS)
    _add_flags(p_gam, ["alpha"], required=True)
    _add_flags(p_gam, ["q", "f"])
    p_gam.add_argument("--seeds", type=int, default=1)
    p_gam.add_argument("--k-list", help="comma-separated K values (default 1..ceil(ln n))")
    p_gam.add_argument("--trials", type=int, default=200)
    p_gam.add_argument("--tag", default="")
    p_gam.add_argument("--out")

    p_bnd = sub.add_parser("bounds", help="explicit error bounds for given parameters")
    p_bnd.set_defaults(run=_cmd_bounds)
    _add_flags(p_bnd, ["gamma", "q", "alpha"], required=True)
    _add_flags(p_bnd, ["f"])
    _add_flags(p_bnd, ["k"], required=True)
    p_bnd.add_argument("--n-reporting", type=int, required=True)

    for name, helptext in (("sweep", "run a Monte-Carlo error-rate sweep"),
                           ("threshold-sweep", "error rates across decision thresholds")):
        p_sw = sub.add_parser(name, help=helptext)
        p_sw.set_defaults(run=_cmd_sweep)
        p_sw.add_argument("--config", help="flat key=value experiment file; "
                          "flags given with it override its keys")
        # every experiment key but seed (last, below); threshold-sweep takes
        # its thresholds from --t-values
        _add_flags(p_sw, [key for key, row in harness.KEYS.items() if row.part is not None
                          and key != "seed" and (name == "sweep" or key != "t")])
        p_sw.add_argument("--out")
        if name == "threshold-sweep":
            p_sw.add_argument("--t-values", required=True,
                              help="comma-separated decision thresholds")

    sub.add_parser("describe", help="print every behavioral default").set_defaults(
        run=_cmd_describe)

    for name in ("generate", "simulate", "gamma", "sweep", "threshold-sweep"):  # they draw
        _add_flags(sub.choices[name], ["seed"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return args.run(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
