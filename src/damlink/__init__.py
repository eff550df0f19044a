"""Link-level simulator for multi-user delay alignment modulation."""

__version__ = "0.1.0"

from .channel import ChannelSet, SimConfig, generate_channel_set
from .delay_design import DelayPlan, choose_compensation_counts, solve_compensation_delays
from .numerics import null_space_basis, water_fill

__all__ = [
    "__version__",
    "ChannelSet",
    "DelayPlan",
    "SimConfig",
    "choose_compensation_counts",
    "generate_channel_set",
    "null_space_basis",
    "solve_compensation_delays",
    "water_fill",
]
