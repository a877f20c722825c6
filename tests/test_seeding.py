import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import rng_for, rngs_for, variation_draw
from spinsc import fusion, sbg
from spinsc.fusion import FusionPipeline, make_problem
from spinsc.sbg import SbgDevice, SbgMode, make_units
from spinsc.seeding import DOMAIN_DEVICE, DOMAIN_PROCESS_VARIATION, generators, stream_words

EDGE_IDS = [0, 2**32 - 1]

id_lists = st.lists(st.one_of(st.sampled_from(EDGE_IDS), st.integers(0, 2**32 - 1)), max_size=8)


@given(seed=st.integers(0, 2**256 - 1), domain=st.integers(0, 2**40 - 1), ids=id_lists)
@example(seed=0, domain=0, ids=[])
@example(seed=2**256 - 1, domain=2**40 - 1, ids=EDGE_IDS)
@example(seed=20260801, domain=DOMAIN_DEVICE, ids=[1, 0, 1, 2**32 - 1])
def test_rngs_for_equals_rng_for_stream_for_stream(seed, domain, ids):
    # The batched path re-implements numpy's SeedSequence hash: a numpy
    # release that changes SeedSequence fails here.
    rngs = rngs_for(seed, domain, ids)
    assert len(rngs) == len(ids)
    for rng, index in zip(rngs, ids):
        assert rng.bit_generator.state == rng_for(seed, domain, index).bit_generator.state


@pytest.mark.parametrize("index", [2**32, 2**40 + 7, -1], ids=["2^32", "2^40+7", "-1"])
def test_rngs_for_refuses_ids_past_one_word(index):
    # SeedSequence would spread such an id over several words; none may
    # wrap onto another id's stream.
    with pytest.raises(ValueError, match=f"stream index {index} lies outside"):
        stream_words(1, DOMAIN_DEVICE, [0, index])


def test_rngs_for_streams_are_independent_objects():
    a, b = rngs_for(3, DOMAIN_DEVICE, [5, 5])
    assert a is not b
    a.standard_normal(10)
    assert b.bit_generator.state == rng_for(3, DOMAIN_DEVICE, 5).bit_generator.state


def test_make_units_streams_and_variation_equal_the_single_stream_forms():
    targets = [0.3, 0.7, 0.3, 1e-6]
    array = make_units(SbgDevice(), SbgMode.SELF_CONTROL, targets, 4, pv_sigmas=(0.05, 0.02))
    params = array.device.params
    for row in range(len(targets)):
        _, _, scale = variation_draw(rng_for(4, DOMAIN_PROCESS_VARIATION, row), params, 0.05, 0.02)
        single = rng_for(4, DOMAIN_DEVICE, row)
        assert array.scale[row] == scale
        rng, = generators(array.seeds[row:row + 1])
        assert rng.bit_generator.state == single.bit_generator.state


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random costs a few MB of resident memory, and statistics loads
    # fractions and decimal; commands that make no stream, or calibrate no
    # voltage, should not pay for them.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, spinsc.cli; "
            "print([name in sys.modules for name in ('numpy.random', 'statistics')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[False, False]"


def test_pipeline_runs_calibrate_once(monkeypatch):
    pipeline = FusionPipeline(make_problem(grid_w=8, grid_h=8, target_xy=(40.0, 22.0)))
    rows = []
    real_generate = fusion.generate_array

    def recording_generate(units, n):
        result = real_generate(units, n)
        rows.append(result[0])
        return result

    calls = []
    real_calibrate = sbg.calibrate_voltage

    def counting_calibrate(*args):
        calls.append(args)
        return real_calibrate(*args)

    monkeypatch.setattr(fusion, "generate_array", recording_generate)
    monkeypatch.setattr(sbg, "calibrate_voltage", counting_calibrate)
    first_grid, first_stats = pipeline.run(64, 11)
    first_calls = len(calls)
    second_grid, second_stats = pipeline.run(64, 11)
    assert first_calls > 0
    assert len(calls) == first_calls
    np.testing.assert_array_equal(rows[0], rows[1])
    np.testing.assert_array_equal(first_grid.weights, second_grid.weights)
    assert first_stats == second_stats
