"""Cost arithmetic, demand-driven pricing, consumer utility, and provider grading.

Arguments are not checked again here: the parser checks each scenario fact once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache
from typing import Mapping

from .model import (
    DomainError,
    InvariantError,
    Money,
    Request,
    ResourceBundle,
    ResourceType,
)

PriceTable = Mapping[ResourceType, Money]


@dataclass(frozen=True)
class PricingParams:
    """Scenario-wide knobs for pricing, utility, and grade smoothing."""

    demand_sensitivity: float = 1.0   # >= 0, scales the demand/capacity markup
    grade_smoothing: float = 0.3      # in (0, 1], weight of fresh feedback
    cost_weight: float = 0.5          # in [0, 1]; timeliness weighs 1 - cost_weight

    def __post_init__(self):
        for name in ("demand_sensitivity", "grade_smoothing", "cost_weight"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.demand_sensitivity < 0:
            raise DomainError(f"demand_sensitivity must be >= 0, got {self.demand_sensitivity}")
        if not 0 < self.grade_smoothing <= 1:
            raise DomainError(f"grade_smoothing must be in (0, 1], got {self.grade_smoothing}")
        if not 0 <= self.cost_weight <= 1:
            raise DomainError(f"cost_weight must be in [0, 1], got {self.cost_weight}")


def lease_factor(req: Request) -> int:
    """The factor multiplying every unit price when costing this request: its window length."""
    return req.deadline - req.earliest_start


def total_cost(bundle: ResourceBundle, prices: PriceTable, factor: int) -> Money:
    """Sum of quantity x unit cost over the bundle, times the factor: exact, in cents."""
    acc = 0
    for rtype, qty in bundle.items:
        acc += qty * prices[rtype]
    return acc * factor


@cache
def _exact(markup: float) -> tuple[int, int]:
    """The float's shortest decimal text as a fraction in lowest terms: (numerator, denominator)."""
    exact = Fraction(str(markup))
    return exact.numerator, exact.denominator


def expected_unit_price(base: Money, demand: float, capacity: float, sensitivity: float) -> Money:
    """Demand-adjusted unit price: base x (1 + sensitivity x demand/capacity).

    The markup is taken exactly as its float's decimal text, and the price
    rounded half-even to the cent: the one rounding in a run.
    """
    num, den = _exact(1.0 + sensitivity * (demand / capacity))
    price, rest = divmod(base * num, den)
    if 2 * rest > den or (2 * rest == den and price % 2):
        price += 1
    return price


def compute_utility(budget: Money, paid: Money, on_time: bool, params: PricingParams) -> float:
    """Consumer satisfaction in [0, 1]: weighted savings share plus timeliness."""
    saved = max(0, budget - paid)
    weight = params.cost_weight
    value = weight * float(Decimal(saved) / budget) + (1.0 - weight) * (1.0 if on_time else 0.0)
    return min(1.0, max(0.0, value))


def update_grade(old: float, feedback: float, smoothing: float) -> float:
    """Blend fresh feedback into a provider grade: (1-s) x old + s x feedback."""
    new = (1.0 - smoothing) * old + smoothing * feedback
    if not 0.0 <= new <= 1.0:  # a convex combination: clamping is never needed
        raise InvariantError(f"grade update left [0, 1]: {new}")
    return new
