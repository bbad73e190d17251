import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from fedsim.migration import (
    DEFAULT_CRITERIA,
    NeighborInfo,
    criteria_vector,
    select_direction,
    self_organize,
    verify_constraints,
)
from fedsim.model import (
    Performative,
    broker,
    consumer,
)

from helpers import (
    neighbor,
    oracle_dominates,
    oracle_nondominated,
    oracle_select,
    request,
)


def test_default_criteria_project_workload_then_delay():
    assert criteria_vector(neighbor(1, workload=3, delay=7), DEFAULT_CRITERIA) == (3.0, 7.0)
    assert criteria_vector(neighbor(1, workload=0, delay=0), DEFAULT_CRITERIA) == (0.0, 0.0)


def test_third_criterion_shrinks_with_provider_count():
    info = neighbor(1, workload=2, delay=3, count=4)
    got = criteria_vector(info, ("workload", "delay", "provider_scarcity"))
    assert got == (2.0, 3.0, pytest.approx(0.2))


def test_dominates_basics():
    assert oracle_dominates((1, 1), (2, 2))
    assert not oracle_dominates((1, 2), (2, 1))
    assert not oracle_dominates((2, 1), (1, 2))
    assert not oracle_dominates((1, 1), (1, 1))


finite = st.floats(min_value=-50, max_value=50)
vectors = st.tuples(finite, finite, finite)


@given(a=vectors)
def test_dominance_is_irreflexive(a):
    assert not oracle_dominates(a, a)


@given(a=vectors, b=vectors)
def test_dominance_is_asymmetric(a, b):
    if oracle_dominates(a, b):
        assert not oracle_dominates(b, a)


@given(a=vectors, b=vectors, c=vectors)
def test_dominance_is_transitive(a, b, c):
    if oracle_dominates(a, b) and oracle_dominates(b, c):
        assert oracle_dominates(a, c)


@given(a=vectors, b=vectors)
def test_dominance_implies_a_smaller_tuple(a, b):
    # why the (values, id) minimum of a set is never dominated within it
    if oracle_dominates(a, b):
        assert a < b


def test_constraints_reject_empty_provider_list():
    req = request(cpu=1)
    assert not verify_constraints(req, neighbor(1, count=0, types=()))


def test_constraints_reject_partial_coverage():
    req = request(cpu=1, gpu=1)
    assert not verify_constraints(req, neighbor(1, types=("cpu",), count=2))


def test_constraints_reject_visited_broker():
    req = request(cpu=1, visited=(broker(1),))
    assert not verify_constraints(req, neighbor(1, types=("cpu",)))


def test_constraints_accept_live_superset_coverage():
    req = request(cpu=1)
    assert verify_constraints(req, neighbor(1, types=("cpu", "gpu"), count=3))


def test_singleton_neighbor_selected():
    req = request(cpu=1)
    assert select_direction(req, [neighbor(1, types=("cpu",))], DEFAULT_CRITERIA) == broker(1)


def test_lexicographic_tiebreak_between_incomparable_vectors():
    req = request(cpu=1)
    a = neighbor(1, workload=1, delay=5, types=("cpu",))
    b = neighbor(2, workload=2, delay=1, types=("cpu",))
    assert select_direction(req, [b, a], DEFAULT_CRITERIA) == broker(1)


def test_exhaustion_means_stay_and_fail():
    req = request(cpu=1, gpu=1)
    neighbors = [neighbor(1, types=("cpu",)), neighbor(2, count=0, types=())]
    assert select_direction(req, neighbors, DEFAULT_CRITERIA) is None


def _random_instance(rng: random.Random):
    n_criteria = rng.randint(2, 4)
    infos = []
    for bid in range(rng.randint(1, 8)):
        infos.append(
            NeighborInfo(
                broker=broker(bid),
                workload=rng.randint(0, 9),
                delay=rng.randint(0, 9),
                provider_types=frozenset(
                    rng.sample(("cpu", "storage", "gpu"), rng.randint(0, 3))
                ),
                provider_count=rng.choice([0, 1, 2, 5]),
            )
        )
    criteria = ("workload", "delay", "provider_scarcity", "workload")[:n_criteria]
    visited = {broker(bid) for bid in range(8) if rng.random() < 0.2}
    req = request(cpu=1, visited=visited)
    return req, infos, criteria


def _oracle_pick(req, infos, criteria):
    vectors = {info.broker: criteria_vector(info, criteria) for info in infos}
    admissible = {info.broker: verify_constraints(req, info) for info in infos}
    return oracle_select(vectors, admissible)


def test_thousand_random_instances_match_bruteforce_oracle():
    rng = random.Random(20413)
    for _ in range(1000):
        req, infos, criteria = _random_instance(rng)
        target = select_direction(req, infos, criteria)

        vectors = {info.broker: criteria_vector(info, criteria) for info in infos}
        admissible = {info.broker: verify_constraints(req, info) for info in infos}
        expected, rounds = oracle_select(vectors, admissible)

        assert target == expected
        if target is not None:
            # the pick must sit in the brute-force non-dominated front of the
            # exact suffix it was drawn from
            final_pick, front = rounds[-1]
            assert target == final_pick
            assert target in front
            suffix = {k: v for k, v in vectors.items() if k not in {p for p, _ in rounds[:-1]}}
            assert target in oracle_nondominated(suffix)


small = st.integers(min_value=0, max_value=2)
tied_neighbors = st.lists(
    st.tuples(small, small, small, st.booleans(), st.booleans()),
    max_size=6,
)


@given(
    shapes=tied_neighbors,
    copies=st.lists(st.integers(min_value=0, max_value=5), max_size=6),
    criteria=st.lists(
        st.sampled_from(("workload", "delay", "provider_scarcity")), min_size=1, max_size=4
    ),
)
def test_ties_and_duplicated_vectors_match_the_oracle(shapes, copies, criteria):
    # every value is 0-2, and a neighbor may repeat an earlier one's vector
    # under a new broker id, so ties and exact duplicates are common
    shapes = shapes + [shapes[i] for i in copies if i < len(shapes)]
    infos = [
        NeighborInfo(
            broker=broker(bid),
            workload=workload,
            delay=delay,
            provider_types=frozenset(("cpu",) if covers else ()),
            provider_count=count,
        )
        for bid, (workload, delay, count, covers, _) in enumerate(shapes)
    ]
    visited = {broker(bid) for bid, shape in enumerate(shapes) if shape[4]}
    req = request(cpu=1, visited=visited)
    expected, _ = _oracle_pick(req, infos, tuple(criteria))
    assert select_direction(req, infos, tuple(criteria)) == expected
    assert select_direction(req, infos[::-1], tuple(criteria)) == expected


class DirectionOracle:
    """Stands in for `migration.select_direction`, checking each call against the oracle."""

    def __init__(self, original):
        self.original = original
        self.seen = Counter()

    def __call__(self, req, neighbors, criteria):
        infos = list(neighbors)
        target = self.original(req, infos, criteria)
        expected, rounds = _oracle_pick(req, infos, criteria)
        assert target == expected
        self.seen["calls"] += 1
        self.seen["failed"] += target is None
        self.seen["rounds_after_a_removal"] += len(rounds) > 1
        return target


def test_every_selection_of_the_fuzz_batch_matches_the_oracle(fuzz_batch):
    assert all(result.quiescent for result, _, _ in fuzz_batch.runs)
    seen = fuzz_batch.directions.seen
    assert seen["calls"] > 3_000 and seen["failed"] > 500
    assert seen["rounds_after_a_removal"] > 1_000  # inadmissible picks were skipped


def test_select_direction_is_deterministic():
    rng = random.Random(77)
    req, infos, criteria = _random_instance(rng)
    first = select_direction(req, infos, criteria)
    for _ in range(5):
        assert select_direction(req, infos, criteria) == first


def test_hop_limit_forces_failure_message():
    req = request(cid=3, cpu=1, visited=(broker(2), broker(4)))  # two hops: the limit
    neighbors = [neighbor(1, types=("cpu",))]
    result = self_organize(req, broker(0), neighbors, 2, "consumer:3#0", DEFAULT_CRITERIA)
    assert result.target is None
    (msg,) = result.messages
    assert msg.performative is Performative.FAILURE
    assert msg.payload.reason == "migration-limit"
    assert msg.receiver == consumer(3)


def test_migration_carries_hop_and_visited():
    for visited in [(), (broker(2),)]:  # a first hop, and a second
        req = request(cid=3, cpu=1, visited=visited)
        migrations = len(visited)
        assert req.digest.endswith(f",migrations={migrations}")  # made before the hop
        neighbors = [neighbor(1, types=("cpu",))]
        result = self_organize(req, broker(0), neighbors, 3, "consumer:3#0", DEFAULT_CRITERIA)
        (msg,) = result.messages
        assert msg.performative is Performative.CFP
        assert msg.receiver == result.target == broker(1)
        hopped = msg.payload.request
        # the hop builds its copy field by field; `dataclasses.replace` is the reference
        assert hopped == replace(req, visited=req.visited | {broker(0)})
        assert hopped.digest == req.digest.replace(f",migrations={migrations}", f",migrations={migrations + 1}")


def test_no_admissible_neighbor_fails_without_cfp():
    req = request(cid=3, cpu=1, gpu=2)
    neighbors = [neighbor(1, types=("cpu",))]
    result = self_organize(req, broker(0), neighbors, 3, "consumer:3#0", DEFAULT_CRITERIA)
    (msg,) = result.messages
    assert msg.performative is Performative.FAILURE
    assert msg.payload.reason == "no-admissible-broker"
    assert result.target is None

