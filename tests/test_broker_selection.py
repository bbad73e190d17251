"""Broker provider selection against a from-scratch ranking, over the shared fuzz batch.

At every `_advance` the broker's choice and quoted cost must equal the
minimum of (cost, -grade, id) over the conversation's candidates, its
universe less the ids it removed, each priced by the straight-loop oracle
from its current entry. A conversation's universe is the broker's registry
view at open, with the contact list's ids; every conversation a broker
opens between two joins or leaves of a provider it sees, counted from the
specs, shares that one view. A provider that
a refresh dropped from the contact list keeps the last entry the broker
held for it until it is purged as departed. Every selection snapshot must
read back the contact list as it stood at that selection, whatever the
broker learned afterwards. After every broker step, no open conversation has
read past the broker's version, the version stamps run strictly upward in
the order the broker keeps them, and every stamped id is a provider the
broker has held an entry for. No step leaves a provider both on the contact
list and among the dropped: visibility only grows and a departed provider
never rejoins, so a kernel run never reinstalls a dropped provider. The
CFP refresh rests on that: it stamps none of the ids it adds.

When a broker runs out of candidates for a request, whether it then
migrates or fails, the ids the conversation removed are providers the broker
quoted it, which a failure grades down: only a quoted provider is removed.
A quoted provider may stay a candidate after an expected-cost refusal and
then be purged as departed by another conversation; it has no entry left to
grade. Every INFORM a broker receives is a task's completion report and
carries the consumer's feedback.
"""

from fedsim.model import Performative, RefuseReason
from fedsim.pricing import lease_factor

from helpers import oracle_visible, straight_loop_cost


class SelectionOracle:
    def __init__(self):
        self.last_seen = {}  # broker -> provider -> last entry in its contact list
        self.purged = {}     # broker -> providers it learned had departed
        self.universes = {}  # (broker, conversation) -> contact list ids at open
        self.seen = {}  # broker -> every provider it ever sees, from the specs
        self.views = {}  # (broker, churn events so far that touched it) -> the universe its openings share
        self.shared_opens = 0  # openings that found their universe already held by another
        self.snapshots = []  # (snapshot, contact list entries of its universe at selection)
        self.selections = self.failures = self.stale = 0
        self.unread = 0  # broker steps that left stamps some open conversation has not read
        self.steps = self.with_dropped = 0  # broker steps, and those with dropped providers
        self.quoted = {}  # (broker, conversation) -> providers quoted since the CFP that opened it
        self.informs = 0  # INFORMs delivered to a broker, each with its feedback
        self.purged_quoted = 0  # quoted providers still candidates when candidates ran out

    def check_log(self, state):
        reads = [conv.read for conv in state.conversations.values()]
        assert all(read <= state.version for read in reads)
        stamps = list(state.changed.values())
        assert all(a < b for a, b in zip(stamps, stamps[1:]))
        assert not stamps or stamps[-1] == state.version  # the last change is stamped last
        assert state.changed.keys() <= self.last_seen[state.id].keys()
        self.unread += any(read < state.version for read in reads)

    def check_dropped(self, state):
        assert state.contact_list.keys().isdisjoint(state.dropped)
        self.steps += 1
        self.with_dropped += bool(state.dropped)

    def touched(self, world, bid):
        """The churn events applied so far that joined or removed a provider `bid` sees."""
        seen = self.seen.get(bid)
        if seen is None:
            seen = self.seen[bid] = oracle_visible(world.scenario, bid)
        return sum(change.provider in seen for change in world.scenario.churn[: world.churns])

    def remember(self, state):
        self.last_seen.setdefault(state.id, {}).update(state.contact_list)

    def broker_step(self, original):
        def step(state, msg, *args, **kwargs):
            self.remember(state)
            reason = getattr(msg.payload, "reason", None)
            if msg.performative is Performative.REFUSE and reason is RefuseReason.DEPARTED:
                self.purged.setdefault(state.id, set()).add(msg.sender)
            elif msg.performative is Performative.CFP:
                self.quoted[(state.id, msg.conversation)] = set()
            elif msg.performative is Performative.INFORM:
                assert msg.payload.feedback is not None, msg
                self.informs += 1
            out = original(state, msg, *args, **kwargs)
            self.remember(state)
            self.check_log(state)
            self.check_dropped(state)
            return out

        return step

    def advance(self, original):
        def advance(state, conversation, conv, world):
            self.remember(state)
            key = (state.id, conversation)
            if key not in self.universes:  # the first _advance of a conversation runs right after it opens
                assert conv.universe.keys() == state.contact_list.keys()
                self.universes[key] = frozenset(state.contact_list)
                epoch = (state.id, self.touched(world, state.id))
                if epoch in self.views:
                    assert conv.universe is self.views[epoch]
                    self.shared_opens += 1
                else:
                    self.views[epoch] = conv.universe
            universe = self.universes[key]
            seen = self.last_seen[state.id]
            purged = self.purged.get(state.id, set())
            bundle = conv.request.bundle
            factor = lease_factor(conv.request)
            ranked = []
            for pid in conv.universe:
                if pid in conv.removed or pid in purged:
                    continue
                entry = seen[pid]
                self.stale += pid not in state.contact_list
                if entry.covers(bundle):
                    cost = straight_loop_cost(bundle, entry.prices, factor)
                    ranked.append((cost, -entry.grade, pid))
            expected = min(ranked, default=None)

            out = original(state, conversation, conv, world)

            quoted = self.quoted[(state.id, conversation)]
            if expected is None:
                assert conversation not in state.conversations  # self-organized
                left = conv.removed.keys()
                assert left <= quoted
                for pid in quoted - left:
                    assert pid in purged and pid not in state.contact_list and pid not in state.dropped
                    self.purged_quoted += 1
                self.failures += 1
            else:
                assert (conv.best, conv.snapshot.cost) == (expected[2], expected[0])
                quoted.add(conv.best)
                at_selection = tuple(e for pid, e in state.contact_list.items() if pid in universe)
                self.snapshots.append((conv.snapshot, at_selection))
                self.selections += 1
            return out

        return advance


def test_selection_matches_a_from_scratch_ranking(fuzz_batch):
    totals = SelectionOracle()
    final_snapshots = 0
    for result, _, oracle in fuzz_batch.runs:
        assert result.quiescent
        for snapshot, at_selection in oracle.snapshots:
            got = snapshot.entries
            assert got == at_selection
            assert all(a is b for a, b in zip(got, at_selection))
        taken = {id(snapshot) for snapshot, _ in oracle.snapshots}
        for meta in result.conversations.values():
            if meta.snapshot is not None:
                assert id(meta.snapshot) in taken
                final_snapshots += 1
        totals.selections += oracle.selections
        totals.failures += oracle.failures
        totals.stale += oracle.stale
        totals.unread += oracle.unread
    assert totals.selections > 10_000 and totals.failures > 2_000 and final_snapshots > 1_000
    assert totals.stale > 100  # dropped providers were still priced from their last entry
    assert totals.unread > 1_000  # the stamp checks saw changes waiting to be read


def test_a_failure_grades_the_quoted_providers_and_every_inform_carries_feedback(fuzz_batch):
    failures = sum(oracle.failures for _, _, oracle in fuzz_batch.runs)
    informs = sum(oracle.informs for _, _, oracle in fuzz_batch.runs)
    purged_quoted = sum(oracle.purged_quoted for _, _, oracle in fuzz_batch.runs)
    assert failures > 2_000  # each removed only providers it was quoted
    assert purged_quoted > 0  # each had no entry left to grade
    assert informs > 1_900  # each carried its feedback


def test_the_conversations_a_broker_opens_between_churn_events_share_one_universe(fuzz_batch):
    shared = sum(oracle.shared_opens for _, _, oracle in fuzz_batch.runs)
    epochs = sum(len(oracle.views) for _, _, oracle in fuzz_batch.runs)
    assert shared > 5_000 and epochs > 700  # each opening checked against the first of its epoch


def test_kernel_runs_never_reinstall_a_dropped_provider(fuzz_batch):
    steps = sum(oracle.steps for _, _, oracle in fuzz_batch.runs)
    with_dropped = sum(oracle.with_dropped for _, _, oracle in fuzz_batch.runs)
    assert steps > 10_000 and with_dropped > 1_000  # every one of them checked
