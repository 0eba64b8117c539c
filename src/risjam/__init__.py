"""Self-sustainable active-RIS anti-jamming simulator."""

from .channel import (
    ChannelSet,
    Realization,
    RwpParams,
    path_loss_linear,
    rwp_nakagami_pdf,
    sample_static_channels,
    sample_uncertain_realization,
)
from .config import ScenarioConfig, desk_profile, load_scenario, paper_profile
from .harness import SCHEMES, SweepResult, baseline_noris, baseline_passive, run_sweep, run_trial
from .numerics import QcqpProblem, solve_concave_qcqp
from .optimizer import AoReport, SaaStats, ssca_ao, update_saa_stats, update_tau
from .system import (
    FeasibilityReport,
    PowerModel,
    SolverState,
    check_feasibility,
    harvested_energy,
    ris_power,
    sinr,
    sum_rate,
)

__version__ = "0.1.0"
