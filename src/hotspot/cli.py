"""Command-line front end.

Subcommands: generate, simulate, detect, gamma, bounds, sweep,
threshold-sweep, describe. Every run honors --seed (fallbacks: a sweep
config's seed=, then $HOTSPOT_SEED, then 0) for bitwise reproducibility;
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
    """argparse exits 2 on bad flags; keep 2 reserved for epidemic verdicts."""

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


def _add_topology_flags(p: argparse.ArgumentParser, graph: bool = True) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--topology", choices=["er", "grid", "tree", "powerlaw", "file"],
                        help="graph family")
    if graph:
        source.add_argument("--graph", help="edge-list file (instead of --topology)")
    p.add_argument("--n", type=int, help="node count (er, powerlaw)")
    p.add_argument("--p", type=float, help="edge probability (er; default 2/n)")
    p.add_argument("--dim", type=int, help="grid dimension (default 2)")
    p.add_argument("--side", type=int, help="grid side length")
    p.add_argument("--degree", type=int, help="tree branching factor")
    p.add_argument("--depth", type=int, help="tree depth")
    p.add_argument("--exponent", type=float, help="power-law exponent (default 2.5)")
    p.add_argument("--compact", action="store_true",
                   help="remap file node ids to dense indices")
    p.add_argument("--giant", action="store_true",
                   help="restrict to the largest connected component")


def _load_graph(args):
    """The graph of --topology FAMILY, or of --graph FILE (topology 'file')."""
    path = getattr(args, "graph", None)
    if not (path or args.topology):
        raise ValueError("need --graph FILE or --topology FAMILY")
    return harness.TopologySpec(
        kind="file" if path else args.topology, n=args.n, p=args.p, dim=args.dim,
        side=args.side, degree=args.degree, depth=args.depth, exponent=args.exponent,
        path=path, compact=args.compact, giant=args.giant).build(_seed(args))


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    if args.topology in (None, "file"):
        raise ValueError("generate needs --topology er|grid|tree|powerlaw")
    g = _load_graph(args)
    save_edge_list(g, args.out)
    print(f"wrote {g.n} nodes, {g.num_edges} edges to {args.out}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    if args.scenario == "epidemic" and args.null_p is not None:
        raise ValueError("--scenario epidemic does not use --null-p")
    g = _load_graph(args)
    if args.scenario == "epidemic":
        params = ScenarioParams(alpha=args.alpha, q=args.q, f=args.f,
                                num_seeds=args.seeds)
        snap, _ = make_epidemic_snapshot(g, params, _seed(args))
    else:
        p = (args.null_p if args.null_p is not None else
             calibration.reporting_probabilities(args.q, args.alpha, args.f).p)
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
    cfg = detector.prescribe(
        g.n, len(reporting), regime, q=args.q, alpha=args.alpha, f=args.f or 0.0,
        gamma=gamma, topology=args.family or "general", log_base=args.log_base,
        beta=args.beta, rho=args.rho, mu=args.mu)
    print(cfg.note, file=sys.stderr)
    return cfg


def _cmd_detect(args) -> int:
    prescribed = (args.regime or args.gamma_profile or args.gamma is not None
                  or args.gamma_fallback)
    kind = args.regime or ("auto" if prescribed else args.mode or "nn")
    # a prescription also refuses --mode, which picks a fixed detector
    unused = harness.unread_detector_keys(
        kind, vars(args), ("mode",) * bool(prescribed) + harness.DETECT_KEYS)
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
    params = ScenarioParams(alpha=args.alpha, q=args.q, f=args.f, num_seeds=args.seeds)
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
    bounds = calibration.error_bounds(args.gamma, args.q, args.alpha, args.f,
                                      args.k, args.n_reporting)
    print("e1_bound,e2_bound,P,P_in")
    print(f"{bounds.e1_bound:.10g},{bounds.e2_bound:.10g},"
          f"{bounds.p_big:.10g},{bounds.p_in_big:.10g}")
    if bounds.diagnostic:
        print(bounds.diagnostic, file=sys.stderr)
    return 0


_NOT_CONFIG_KEYS = ("command", "config", "graph", "out", "t_values")


def _spec_from_args(args) -> "harness.ExperimentSpec":
    """The --config mapping less the keys a --graph, --topology or --detector
    kind does not read (the flag replaces that part), overlaid by every flag given."""
    raw = harness.read_mapping(args.config) if args.config else {}
    if args.graph or args.topology:
        for f in harness.unread_fields("file" if args.graph else args.topology):
            raw.pop(f.name, None)
    if args.detector:
        for key in harness.unread_detector_keys(args.detector, raw,
                                                harness.SWEEP_DETECTOR_KEYS):
            raw.pop(key)
    raw.update((key, str(val)) for key, val in vars(args).items()
               if key not in _NOT_CONFIG_KEYS and val is not None and val is not False)
    if args.graph:
        raw.update(topology="file", path=args.graph)
    raw.setdefault("seed", str(_seed(args)))
    return harness.spec_from_mapping(raw)


def _cmd_sweep(args) -> int:
    result = harness.run_sweep(_spec_from_args(args))
    _write_text(result.to_csv_text(), args.out)
    return 0


def _cmd_threshold_sweep(args) -> int:
    spec = _spec_from_args(args)
    t_values = [harness.cast_value(f"--t-values item {item!r}", item, float)
                for item in args.t_values.split(",")]
    result = harness.threshold_sweep(spec, t_values)
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
    _add_topology_flags(p_gen, graph=False)
    p_gen.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="write a labeled reporting snapshot")
    _add_topology_flags(p_sim)
    p_sim.add_argument("--scenario", choices=["epidemic", "null"], default="epidemic")
    p_sim.add_argument("--alpha", type=float, default=0.1)
    p_sim.add_argument("--q", type=float, default=1.0)
    p_sim.add_argument("--f", type=float, default=0.0)
    p_sim.add_argument("--seeds", type=int, default=1, help="number of contagion seeds")
    p_sim.add_argument("--null-p", type=float, default=None,
                       help="override the matched null reporting probability")
    p_sim.add_argument("--out")

    p_det = sub.add_parser("detect", help="classify a snapshot (exit 0 uniform, 2 epidemic)")
    p_det.add_argument("--graph", required=True)
    p_det.add_argument("--snapshot", required=True)
    p_det.add_argument("--compact", action="store_true")
    p_det.add_argument("--mode", choices=["nn", "ball"], help="default nn")
    p_det.add_argument("--k", type=int)
    p_det.add_argument("--l", type=int)
    p_det.add_argument("--s", type=int)
    p_det.add_argument("--t", type=float, help="default 0")
    p_det.add_argument("--header", action="store_true", help="print the CSV header line")
    p_det.add_argument("--regime", choices=["dense", "small", "auto"],
                       help="derive K and T from calibration instead of --k/--t")
    p_det.add_argument("--q", type=float)
    p_det.add_argument("--alpha", type=float)
    p_det.add_argument("--f", type=float, help="default 0")
    p_det.add_argument("--beta", type=float,
                       help="small-regime exponent (default: 1 - log max(|R|,2)/log N)")
    p_det.add_argument("--rho", type=float)
    p_det.add_argument("--mu", type=float)
    gamma = p_det.add_mutually_exclusive_group()
    gamma.add_argument("--gamma", type=float, help="explicit interior fraction")
    gamma.add_argument("--gamma-profile", help="gamma profile CSV from the gamma command")
    gamma.add_argument("--gamma-fallback", action="store_true", default=None,
                       help="use the 1/|S| lower bound for gamma")
    p_det.add_argument("--family", choices=["general", "grid", "tree"], help="default general")
    p_det.add_argument("--log-base", type=float, default=None)

    p_gam = sub.add_parser("gamma", help="estimate the interior fraction by simulation")
    _add_topology_flags(p_gam)
    p_gam.add_argument("--alpha", type=float, required=True)
    p_gam.add_argument("--q", type=float, default=1.0)
    p_gam.add_argument("--f", type=float, default=0.0)
    p_gam.add_argument("--seeds", type=int, default=1)
    p_gam.add_argument("--k-list", help="comma-separated K values (default 1..ceil(ln n))")
    p_gam.add_argument("--trials", type=int, default=200)
    p_gam.add_argument("--tag", default="")
    p_gam.add_argument("--out")

    p_bnd = sub.add_parser("bounds", help="explicit error bounds for given parameters")
    p_bnd.add_argument("--gamma", type=float, required=True)
    p_bnd.add_argument("--q", type=float, required=True)
    p_bnd.add_argument("--alpha", type=float, required=True)
    p_bnd.add_argument("--f", type=float, default=0.0)
    p_bnd.add_argument("--k", type=int, required=True)
    p_bnd.add_argument("--n-reporting", type=int, required=True)

    for name, helptext in (("sweep", "run a Monte-Carlo error-rate sweep"),
                           ("threshold-sweep", "error rates across decision thresholds")):
        p_sw = sub.add_parser(name, help=helptext)
        p_sw.add_argument("--config", help="flat key=value experiment file; "
                          "flags given with it override its keys")
        _add_topology_flags(p_sw)
        p_sw.add_argument("--alpha", type=float)
        p_sw.add_argument("--q", type=float)
        p_sw.add_argument("--f", type=float)
        p_sw.add_argument("--num-seeds", type=int)
        p_sw.add_argument("--alpha-exp", type=float)
        p_sw.add_argument("--q-exp", type=float)
        p_sw.add_argument("--f-exp", type=float)
        p_sw.add_argument("--detector", choices=["nn", "ball", "auto"])
        p_sw.add_argument("--k", type=int)
        p_sw.add_argument("--l", type=int)
        p_sw.add_argument("--s", type=int)
        p_sw.add_argument("--t", type=float)
        p_sw.add_argument("--sweep", help="swept variable name")
        p_sw.add_argument("--values", help="comma-separated sweep values")
        p_sw.add_argument("--trials", type=int)
        p_sw.add_argument("--noise-prob", type=float)
        p_sw.add_argument("--noise-d", type=int, help="noise magnitude (default 1)")
        p_sw.add_argument("--out")
        if name == "threshold-sweep":
            p_sw.add_argument("--t-values", required=True,
                              help="comma-separated decision thresholds")

    sub.add_parser("describe", help="print every behavioral default")

    for p_sub in sub.choices.values():
        p_sub.add_argument("--seed", type=int, default=None,
                           help="master RNG seed (default: $HOTSPOT_SEED or 0)")
    return parser


_COMMANDS = {
    "generate": _cmd_generate,
    "simulate": _cmd_simulate,
    "detect": _cmd_detect,
    "gamma": _cmd_gamma,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "threshold-sweep": _cmd_threshold_sweep,
    "describe": _cmd_describe,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
