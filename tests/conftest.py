"""The fuzz batch, run once per session with every oracle attached.

Acceptance criteria 2, 4, 6 and 7 and the oracle modules read its results
and tallies.
"""

import gc
import time
from types import SimpleNamespace

import pytest

import fedsim.agents as agents
import fedsim.engine as engine
import fedsim.migration as migration
from fedsim.scenario import parse_scenario

from helpers import cycles_collected, fuzz_batch_scenarios
from test_broker_selection import SelectionOracle
from test_commitment_index import IndexChecks
from test_kernel_caches import checked_run
from test_migration import DirectionOracle
from test_pricing import PricingPremises


@pytest.fixture(scope="session")
def fuzz_batch():
    """`runs` holds (result, CheckedWorld, SelectionOracle) per scenario; `elapsed` is in seconds.

    `garbage` holds, per run, what a full collection just after the run freed
    and what every collection from just before the run to then freed.
    """
    directions = DirectionOracle(migration.select_direction)
    batch = SimpleNamespace(
        runs=[], index=IndexChecks(), pricing=PricingPremises(), directions=directions, garbage=[]
    )
    started = time.monotonic()
    try:
        for i, data in enumerate(fuzz_batch_scenarios()):
            scenario = parse_scenario(data)
            selection = SelectionOracle()  # one per run: broker ids repeat across scenarios
            gc.collect()
            gc.freeze()  # what the batch keeps of earlier runs is not scanned again
            collected = cycles_collected()
            with pytest.MonkeyPatch.context() as patch:
                batch.index.attach(patch)
                batch.pricing.attach(patch)
                patch.setattr(migration, "select_direction", batch.directions)
                patch.setattr(agents, "_advance", selection.advance(agents._advance))
                patch.setattr(engine, "broker_step", selection.broker_step(agents.broker_step))
                result, world = checked_run(patch, scenario)
                after = gc.collect()
            batch.garbage.append((after, cycles_collected() - collected))
            batch.runs.append((result, world, selection))
    finally:
        gc.unfreeze()
    batch.elapsed = time.monotonic() - started
    return batch
