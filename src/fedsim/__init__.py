"""Deterministic multi-agent simulator of resource brokering on an open federated cloud."""

from .engine import RunResult, run
from .metrics import MetricsReport, compute_metrics, emit_report, parse_report
from .model import (
    AgentId,
    AgentKind,
    ContactEntry,
    Message,
    Performative,
    Request,
    ResourceBundle,
    money,
)
from .pricing import PricingParams
from .scenario import Scenario, load_scenario

__version__ = "0.1.0"

__all__ = [
    "AgentId",
    "AgentKind",
    "ContactEntry",
    "Message",
    "MetricsReport",
    "Performative",
    "PricingParams",
    "Request",
    "ResourceBundle",
    "RunResult",
    "Scenario",
    "compute_metrics",
    "emit_report",
    "load_scenario",
    "money",
    "parse_report",
    "run",
]
