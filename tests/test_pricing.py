"""Pricing arithmetic against its oracles, and the argument domains it relies on.

The pricing functions do not check their arguments: the parser checks each
scenario fact once, and the agents keep to the rest. `PricingPremises`
wraps every pricing call of `agents` in the session's fuzz batch and
asserts the domains there.
"""

import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import fedsim.agents as agents
from fedsim.agents import BrokerState, _apply_price_update
from fedsim.model import DomainError, ResourceBundle, broker, format_money, money, provider
from fedsim.pricing import (
    PricingParams,
    compute_utility,
    expected_unit_price,
    lease_factor,
    total_cost,
    update_grade,
)

from helpers import bundle, entry, request, settings, straight_loop_cost, TYPE_POOL

HALF = PricingParams()  # defaults: 0.5 / 0.5 weights, smoothing 0.3


def test_empty_bundle_costs_nothing():
    assert total_cost(bundle(), {"cpu": money("2.00")}, 1) == money(0)


def test_two_item_bundle_direct_arithmetic():
    prices = {"cpu": money("2.00"), "storage": money("1.50")}
    assert total_cost(bundle(cpu=3, storage=2), prices, 1) == money("9.00")


def test_random_bundles_match_straight_loop_oracle():
    rng = random.Random(1387)
    for _ in range(200):
        types = rng.sample(TYPE_POOL, rng.randint(1, 4))
        b = ResourceBundle.of({r: rng.randint(1, 9) for r in types})
        prices = {r: money(f"{rng.randint(1, 900) / 100:.2f}") for r in TYPE_POOL}
        factor = rng.choice([1, 2, 5, 10, rng.randint(1, 40)])
        assert total_cost(b, prices, factor) == straight_loop_cost(b, prices, factor)


def test_cost_is_additive_over_disjoint_bundles():
    rng = random.Random(907)
    for _ in range(100):
        split = rng.randint(1, 3)
        left = ResourceBundle.of({r: rng.randint(1, 5) for r in TYPE_POOL[:split]})
        right = ResourceBundle.of({r: rng.randint(1, 5) for r in TYPE_POOL[split:]})
        both = ResourceBundle.of({**dict(left.items), **dict(right.items)})
        prices = {r: money(f"{rng.randint(1, 500) / 100:.2f}") for r in TYPE_POOL}
        factor = rng.randint(1, 20)
        merged = total_cost(both, prices, factor)
        parts = total_cost(left, prices, factor) + total_cost(right, prices, factor)
        assert merged == parts


def test_cost_scales_linearly_in_factor():
    rng = random.Random(5211)
    for _ in range(100):
        b = ResourceBundle.of({r: rng.randint(1, 5) for r in rng.sample(TYPE_POOL, 2)})
        prices = {r: money(f"{rng.randint(1, 500) / 100:.2f}") for r in TYPE_POOL}
        factor = rng.randint(1, 30)
        assert total_cost(b, prices, 2 * factor) == 2 * total_cost(b, prices, factor)


def test_lease_factor_is_the_window_length():
    assert lease_factor(request(start=3, end=15)) == 12


def test_expected_price_zero_demand_is_identity():
    assert expected_unit_price(money("2.00"), 0.0, 4.0, 1.0) == money("2.00")


def test_expected_price_at_full_demand_doubles():
    assert expected_unit_price(money("2.00"), 4.0, 4.0, 1.0) == money("4.00")


def test_expected_price_sweep_matches_formula_oracle():
    for demand10 in range(0, 30, 3):
        for sensitivity10 in range(0, 25, 4):
            demand = demand10 / 10
            sensitivity = sensitivity10 / 10
            got = expected_unit_price(money("3.10"), demand, 5.0, sensitivity)
            want = money(Decimal("3.10") * Decimal(str(1.0 + sensitivity * demand / 5.0)))
            assert got == want


def fraction_price(base, demand, capacity, sensitivity):
    """The price as the markup's exact decimal Fraction, rounded half-even by `round`."""
    return round(base * Fraction(str(1.0 + sensitivity * (demand / capacity))))


@given(
    base=st.integers(-(10**15), 10**15),
    demand=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    capacity=st.floats(1e-3, 1e6),
    sensitivity=st.floats(0.0, 10.0),
)
@example(base=3, demand=1.0, capacity=2.0, sensitivity=1.0)  # 4.5 cents: rounds down to even
@example(base=5, demand=1.0, capacity=2.0, sensitivity=1.0)  # 7.5 cents: rounds up to even
@example(base=-3, demand=1.0, capacity=2.0, sensitivity=1.0)
@example(base=7, demand=0.0, capacity=4.0, sensitivity=1.0)
def test_expected_price_equals_the_fraction_formula(base, demand, capacity, sensitivity):
    got = expected_unit_price(base, demand, capacity, sensitivity)
    assert got == fraction_price(base, demand, capacity, sensitivity)


def test_expected_price_rounds_exact_half_cents_to_even():
    for base in range(-41, 42):
        for demand in (1.0, 3.0):  # markups 1.5 and 2.5 over capacity 2: a half cent at every odd base
            got = expected_unit_price(base, demand, 2.0, 1.0)
            assert got == fraction_price(base, demand, 2.0, 1.0)
            if base % 2:  # a half cent: the even neighbour wins
                assert got % 2 == 0
    assert [expected_unit_price(b, 1.0, 2.0, 1.0) for b in (1, 3, 5, 7)] == [2, 4, 8, 10]


def test_expected_price_monotone_in_demand():
    demands = [i / 7 for i in range(100)]
    prices = [expected_unit_price(money("1.70"), d, 3.0, 1.3) for d in demands]
    assert all(a <= b for a, b in zip(prices, prices[1:]))


def test_utility_at_budget_on_time_is_half():
    assert compute_utility(money("10.00"), money("10.00"), True, HALF) == pytest.approx(0.5)


def test_utility_free_and_on_time_is_one():
    assert compute_utility(money("10.00"), money("0.00"), True, HALF) == pytest.approx(1.0)


def test_utility_at_budget_and_late_is_zero():
    assert compute_utility(money("10.00"), money("10.00"), False, HALF) == pytest.approx(0.0)


@pytest.mark.parametrize("cost_weight", [0.0, 0.25, 1.0])
def test_timeliness_weighs_one_minus_the_cost_weight(cost_weight):
    params = PricingParams(cost_weight=cost_weight)
    # a free task is all savings; one at budget is all timeliness
    assert compute_utility(money("10.00"), money("0.00"), False, params) == cost_weight
    assert compute_utility(money("10.00"), money("10.00"), True, params) == 1.0 - cost_weight


def test_a_cost_past_28_digits_is_exact():
    # unit prices of 10**25 dollars: the cost needs more digits than a 28-digit Decimal holds
    prices = {"cpu": money("1" + "0" * 25), "storage": money("3" + "0" * 25 + ".07")}
    cost = total_cost(bundle(cpu=2, storage=5), prices, 30)
    assert cost == (2 * 10**27 + 5 * (3 * 10**27 + 7)) * 30
    assert format_money(cost) == "51" + "0" * 24 + "10.50"


def test_grade_update_direct_arithmetic():
    assert update_grade(0.5, 1.0, 0.3) == pytest.approx(0.65)


def test_grade_fixed_point():
    assert update_grade(0.4, 0.4, 0.3) == pytest.approx(0.4)


def test_grade_converges_geometrically():
    # iterate the recurrence; the distance to the target must shrink by at
    # least (1 - smoothing) each step
    for smoothing in (0.1, 0.3, 0.9):
        for target in (0.0, 0.25, 1.0):
            grade = 0.5
            initial_gap = abs(grade - target)
            for k in range(1, 21):
                grade = update_grade(grade, target, smoothing)
                assert abs(grade - target) <= (1 - smoothing) ** k * initial_gap + 1e-9


@given(
    old=st.floats(min_value=0, max_value=1),
    feedback=st.floats(min_value=0, max_value=1),
    smoothing=st.floats(min_value=0.01, max_value=1),
)
def test_grade_stays_in_unit_interval(old, feedback, smoothing):
    assert 0.0 <= update_grade(old, feedback, smoothing) <= 1.0


def test_params_validation():
    with pytest.raises(DomainError):
        PricingParams(demand_sensitivity=-0.1)
    with pytest.raises(DomainError):
        PricingParams(grade_smoothing=0.0)
    for weight in (-0.1, 1.5):
        with pytest.raises(DomainError, match=r"cost_weight must be in \[0, 1\]"):
            PricingParams(cost_weight=weight)


@pytest.mark.parametrize("field", ["demand_sensitivity", "grade_smoothing", "cost_weight"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_params_reject_non_finite(field, value):
    with pytest.raises(DomainError, match=field):
        PricingParams(**{field: value})


class PricingPremises:
    """Wrappers for the pricing calls of `agents` that assert each call's domain and count it."""

    def __init__(self):
        self.seen = Counter()

    def total_cost(self, bundle, prices, factor):
        assert factor > 0 and bundle.types <= prices.keys(), (bundle, prices, factor)
        self.seen["total_cost"] += 1
        return total_cost(bundle, prices, factor)

    def expected_unit_price(self, base, demand, capacity, sensitivity):
        assert capacity > 0 and demand >= 0 and sensitivity >= 0, (demand, capacity, sensitivity)
        self.seen["expected_unit_price"] += 1
        return expected_unit_price(base, demand, capacity, sensitivity)

    def compute_utility(self, budget, paid, on_time, params):
        assert budget > 0 and paid >= 0, (budget, paid)
        self.seen["compute_utility"] += 1
        return compute_utility(budget, paid, on_time, params)

    def update_grade(self, old, feedback, smoothing):
        assert 0 <= old <= 1 and 0 <= feedback <= 1 and 0 < smoothing <= 1, (old, feedback, smoothing)
        self.seen["update_grade"] += 1
        return update_grade(old, feedback, smoothing)

    def apply_price_update(self, state, pid, ratios):
        # a provider's refusal lists its bundle's types in order, and the
        # broker's entry, when a refresh has not dropped it, prices each
        assert list(ratios) == sorted(ratios), ratios
        entry = state.contact_list.get(pid)
        if entry is not None:
            assert {rtype for rtype, _ in ratios} <= entry.prices.keys(), (ratios, entry)
            self.seen["ratio_types"] += len(ratios)
        return _apply_price_update(state, pid, ratios)

    def attach(self, patch):
        for name in ("total_cost", "expected_unit_price", "compute_utility", "update_grade"):
            patch.setattr(agents, name, getattr(self, name))
        patch.setattr(agents, "_apply_price_update", self.apply_price_update)


def test_pricing_arguments_stay_in_domain_over_the_fuzz_batch(fuzz_batch):
    seen = fuzz_batch.pricing.seen
    assert seen["total_cost"] > 14_000 and seen["expected_unit_price"] > 8_000
    assert seen["compute_utility"] > 1_000 and seen["update_grade"] > 2_000
    assert seen["ratio_types"] > 3_000


def _priced_broker():
    contacts = {e.provider: e for e in [entry(0, cpu="2.00", storage="1.00")]}
    return BrokerState(id=broker(0), contact_list=contacts, neighbors=(), scenario=settings())


# the domains the pricing functions no longer check, one case each; the
# premises must catch every one of them before the call
OUT_OF_DOMAIN = {
    "factor": lambda p: p.total_cost(bundle(cpu=1), {"cpu": money("2.00")}, 0),
    "unpriced bundle type": lambda p: p.total_cost(bundle(gpu=1), {"cpu": money("2.00")}, 1),
    "capacity": lambda p: p.expected_unit_price(money("2.00"), 1.0, 0.0, 1.0),
    "demand": lambda p: p.expected_unit_price(money("2.00"), -1.0, 4.0, 1.0),
    "sensitivity": lambda p: p.expected_unit_price(money("2.00"), 1.0, 4.0, -0.1),
    "budget": lambda p: p.compute_utility(money("0.00"), money("0.00"), True, HALF),
    "paid": lambda p: p.compute_utility(money("1.00"), money("-0.01"), True, HALF),
    "grade": lambda p: p.update_grade(1.2, 0.5, 0.3),
    "feedback": lambda p: p.update_grade(0.5, -0.1, 0.3),
    "smoothing": lambda p: p.update_grade(0.5, 0.5, 0.0),
    "unsorted ratios": lambda p: p.apply_price_update(
        _priced_broker(), provider(0), (("storage", 0.5), ("cpu", 0.5))
    ),
    "unpriced ratio type": lambda p: p.apply_price_update(_priced_broker(), provider(0), (("gpu", 0.5),)),
}


@pytest.mark.parametrize("call", OUT_OF_DOMAIN.values(), ids=OUT_OF_DOMAIN.keys())
def test_pricing_premises_catch_an_out_of_domain_call(call):
    premises = PricingPremises()
    with pytest.raises(AssertionError):
        call(premises)
    assert not premises.seen


def test_pricing_premises_pass_a_refusal_for_a_dropped_provider():
    # `_apply_price_update` returns early when a refresh dropped the provider
    premises = PricingPremises()
    state = _priced_broker()
    premises.apply_price_update(state, provider(1), (("gpu", 0.5),))
    assert list(state.contact_list) == [provider(0)] and not premises.seen
