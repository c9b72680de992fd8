"""Contagion detection from a single noisy reporting snapshot.

Given a contact network and the set of nodes currently reporting an
infection, decide whether a contagion spread over the graph or nodes
reported independently at random, by counting reporting nodes whose local
neighborhood is unusually full of other reporters.
"""

from .calibration import (ErrorBounds, GammaEntry, GammaProfile,
                          ReportingProbabilities, error_bounds, estimate_gamma,
                          gamma_analytic_tree, gamma_for_set, gamma_lower_bound,
                          reporting_probabilities, solve_k)
from .detector import (DetectorConfig, SmallRegimeParams, Verdict, classify,
                       prescribe, select_params_dense, select_params_small)
from .graph import (Graph, gen_erdos_renyi, gen_grid, gen_power_law, gen_tree,
                    load_edge_list, save_edge_list)
from .harness import (DistanceNoise, ExperimentSpec, NoisyView, ScenarioRule,
                      SweepResult, TopologySpec, run_sweep, run_trial,
                      threshold_sweep)
from .scenario import (EPIDEMIC, UNIFORM, EpidemicOutcome, ReportSnapshot,
                       ScenarioParams, apply_reporting, generate_uniform_null,
                       make_epidemic_snapshot, pick_seeds, simulate_si)

__version__ = "0.1.0"
