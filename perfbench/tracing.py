"""Per-layer tracing from outside the simulator.

`Tracer` replaces each traced public function of fedsim's layers with a
wrapper that records a span: name, start, end, parent span and the
conversation it serves. Spans stay in memory until `dump` writes them.
Each wrapper also keeps a call count and self seconds, its duration minus
the time its traced children took.

A module that imported a function by name holds its own reference, so the
wrapper is bound under every name in every fedsim module that refers to
the original (for example `total_cost` in `agents`, `metrics` and
`pricing`). Leaving the `with` block puts every original back.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

import fedsim.agents
import fedsim.engine
import fedsim.metrics
import fedsim.migration
import fedsim.pricing
import fedsim.scenario
from fedsim.model import Performative, ProposeStage


def _msg_conv(args, kwargs):
    return args[1].conversation


def _record_conv(args, kwargs):
    event = args[1]
    return event.conversation or (event.message.conversation if event.message else None)


def _conversation_arg(args, kwargs):  # fifth parameter of allocate and self_organize
    return args[4] if len(args) > 4 else kwargs.get("conversation")


def _count_cfp(counters, args, kwargs, result):
    if args[1].performative is Performative.CFP:
        counters["cfp_to_broker"] += 1


def _count_hold(counters, args, kwargs, result):
    if result is not None:
        counters["holds"] += 1


def _count_hops(counters, args, kwargs, result):
    counters["hops"] += sum(m.performative is Performative.CFP for m in result.messages)


def _count_quote_reply(counters, args, kwargs, result):
    msg = args[1]
    if msg.performative is Performative.PROPOSE and msg.payload.stage is ProposeStage.QUOTE:
        counters["quote_replies"] += 1
        replies = result[1]
        if replies and replies[0].performative is Performative.ACCEPT_PROPOSAL:
            counters["quotes_accepted"] += 1


def _count_events(counters, args, kwargs, result):
    counters["events"] += result.events_processed


# (span name, owner, attribute, conversation of the call, observer of its result)
TARGETS = (
    ("scenario.load_scenario", fedsim.scenario, "load_scenario", None, None),
    ("engine.run", fedsim.engine, "run", None, _count_events),
    ("engine.registry_view", fedsim.engine._World, "registry_view", None, None),
    ("engine.neighbor_snapshot", fedsim.engine._World, "neighbor_snapshot", None, None),
    ("engine.sample_workloads", fedsim.engine._World, "sample_workloads", None, None),
    ("engine.record", fedsim.engine._World, "record", _record_conv, None),
    ("engine.write_trace", fedsim.engine, "write_trace", None, None),
    ("agents.broker_step", fedsim.agents, "broker_step", _msg_conv, _count_cfp),
    ("agents.provider_step", fedsim.agents, "provider_step", _msg_conv, None),
    ("agents.consumer_step", fedsim.agents, "consumer_step", _msg_conv, _count_quote_reply),
    ("agents.update_contact_list", fedsim.agents, "update_contact_list", None, None),
    ("agents.select_best_provider", fedsim.agents, "select_best_provider", None, None),
    ("agents.allocate", fedsim.agents, "allocate", _conversation_arg, _count_hold),
    ("pricing.total_cost", fedsim.pricing, "total_cost", None, None),
    ("migration.self_organize", fedsim.migration, "self_organize", _conversation_arg, _count_hops),
    ("migration.select_direction", fedsim.migration, "select_direction", None, None),
    ("metrics.compute_metrics", fedsim.metrics, "compute_metrics", None, None),
    ("metrics.emit_report", fedsim.metrics, "emit_report", None, None),
)

ONCE_PER_REPEAT = ("engine.run", "engine.write_trace", "metrics.compute_metrics", "metrics.emit_report")
IN_THE_LOOP = tuple(
    name for name, *_ in TARGETS
    if name not in ONCE_PER_REPEAT + ("scenario.load_scenario", "migration.select_direction")
)


class Tracer:
    """Wraps the traced functions while active; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, conversation)
        self.calls = {name: 0 for name, *_ in TARGETS}
        self.total_s = {name: 0.0 for name, *_ in TARGETS}
        self.self_s = {name: 0.0 for name, *_ in TARGETS}
        self.counters = {
            key: 0
            for key in ("events", "cfp_to_broker", "holds", "hops", "quote_replies", "quotes_accepted")
        }
        self._stack: list[list] = []  # [span id, conversation, child seconds]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, conv_of, observe):
        stack, spans, counters = self._stack, self.spans, self.counters
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            conv = conv_of(args, kwargs) if conv_of else None
            if conv is None and parent is not None:
                conv = parent[1]
            frame = [self._next_id, conv, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                calls[name] += 1
                total_s[name] += took
                self_s[name] += took - frame[2]
                if parent is not None:
                    parent[2] += took
                spans.append((frame[0], name, start, end, parent[0] if parent else None, conv))
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key == "fedsim" or key.startswith("fedsim.")]
        for name, owner, attr, conv_of, observe in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, conv_of, observe)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced repeat, by metric name.

        Functions called once per repeat report their seconds, set-up its
        seconds per load, and the rest their calls and self seconds.
        `select_direction` reports calls only: on long-leases it never runs,
        and its time is `migration.self_organize.s` minus the self time.
        """
        calls, total_s, self_s, c = self.calls, self.total_s, self.self_s, self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        out = {"scenario.load_scenario.s": ratio(total_s["scenario.load_scenario"], calls["scenario.load_scenario"])}
        for name in ONCE_PER_REPEAT:
            out[f"{name}.s"] = total_s[name]
        out["engine.run.self_s"] = self_s["engine.run"]
        out["engine.events"] = c["events"]
        for name in IN_THE_LOOP:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["migration.self_organize.s"] = total_s["migration.self_organize"]
        out["migration.select_direction.calls"] = calls["migration.select_direction"]
        out["engine.registry_view.use_ratio"] = ratio(c["cfp_to_broker"], calls["engine.registry_view"])
        out["engine.neighbor_snapshot.use_ratio"] = ratio(
            calls["migration.self_organize"], calls["agents.broker_step"]
        )
        out["agents.allocate.hit_ratio"] = ratio(c["holds"], calls["agents.allocate"])
        out["migration.hop_ratio"] = ratio(c["hops"], calls["migration.self_organize"])
        out["agents.quote_accept_ratio"] = ratio(c["quotes_accepted"], c["quote_replies"])
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line, ordered by span id."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for sid, name, start, end, parent, conv in sorted(self.spans):
                out.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "conv": conv},
                    separators=(",", ":"),
                ))
                out.write("\n")
