"""Reputation games with misspecified learners.

Decide whether a subjective framework separates the commitment type from
everything a normal type could generate, bound the patient player's
equilibrium payoffs, and simulate the resulting belief dynamics.
"""

from .beliefs import (AzumaReport, BatchResult, BeliefState, CertificateReport,
                      DecayFit, MonteCarloSummary, SimulationConfig,
                      TrajectoryRecord, azuma_diagnostic, bayes_step,
                      certificate_kl_ceiling, decay_rate_fit,
                      discounted_kl_certificate, monte_carlo, predictive,
                      simulate_batch, simulate_run)
from .divergence import (HullMembership, MinKLResult, SeparationReport, dc_dn,
                         find_alpha_star, hull_membership, kl,
                         min_kl_over_attainable, normal_favoring_check,
                         separation_value, tv)
from .frameworks import Framework
from .game import Distribution, SignalStructure, StageGame, mix_signal_dist
from .scenarios import (SCENARIOS, counter_example, normal_misspec_scenario,
                        perturbation_sequence, product_choice, three_signal)
from .scores import (PayoffSetResult, ScoreResult, best_replies, br2, ci_payoff_set,
                     kappa, kstar, optimality_loss, reputation_lower_bound,
                     stackelberg, verify_certificate)

__version__ = "0.1.0"

__all__ = [
    "AzumaReport", "BatchResult", "BeliefState", "CertificateReport", "DecayFit",
    "Distribution", "Framework", "HullMembership", "MinKLResult",
    "MonteCarloSummary", "PayoffSetResult", "SCENARIOS", "ScoreResult",
    "SeparationReport", "SignalStructure", "SimulationConfig", "StageGame",
    "TrajectoryRecord", "azuma_diagnostic", "bayes_step", "best_replies",
    "br2", "certificate_kl_ceiling", "ci_payoff_set", "counter_example", "dc_dn",
    "decay_rate_fit", "discounted_kl_certificate",
    "find_alpha_star", "hull_membership", "kappa", "kl", "kstar",
    "min_kl_over_attainable", "mix_signal_dist", "monte_carlo",
    "normal_favoring_check", "normal_misspec_scenario", "optimality_loss",
    "perturbation_sequence", "predictive", "product_choice",
    "reputation_lower_bound", "separation_value", "simulate_batch",
    "simulate_run", "stackelberg", "three_signal", "tv",
    "verify_certificate",
]
