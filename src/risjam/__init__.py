"""Self-sustainable active-RIS anti-jamming simulator."""

from .config import desk_profile, paper_profile
from .harness import run_sweep, run_trial
from .optimizer import ssca_ao

__version__ = "0.1.0"
