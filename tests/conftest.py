"""The fuzz batch, run once per session with every oracle attached.

Acceptance criteria 2, 4, 6 and 7 and the oracle modules read its results
and tallies.
"""

import time
from types import SimpleNamespace

import pytest

import fedsim.agents as agents
import fedsim.engine as engine
import fedsim.migration as migration
from fedsim.scenario import parse_scenario

from helpers import fuzz_batch_scenarios
from test_broker_selection import SelectionOracle
from test_commitment_index import IndexChecks
from test_kernel_caches import checked_run
from test_migration import DirectionOracle


@pytest.fixture(scope="session")
def fuzz_batch():
    """`runs` holds (result, CheckedWorld, SelectionOracle) per scenario; `elapsed` is in seconds."""
    directions = DirectionOracle(migration.select_direction)
    batch = SimpleNamespace(runs=[], index=IndexChecks(), directions=directions)
    started = time.monotonic()
    for i, data in enumerate(fuzz_batch_scenarios()):
        selection = SelectionOracle()  # one per run: broker ids repeat across scenarios
        with pytest.MonkeyPatch.context() as patch:
            batch.index.attach(patch)
            patch.setattr(migration, "select_direction", batch.directions)
            patch.setattr(agents, "_advance", selection.advance(agents._advance))
            patch.setattr(engine, "broker_step", selection.broker_step(agents.broker_step))
            result, world = checked_run(patch, parse_scenario(data))
        batch.runs.append((result, world, selection))
    batch.elapsed = time.monotonic() - started
    return batch
