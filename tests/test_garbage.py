"""The searches leave no cyclic garbage.

Each workload runs with the cyclic collector off, after one collection has
emptied it; a second collection must then find nothing.  A search that keeps
its state in a closure referring to itself fails this: the closure and all
it holds stay alive until a full collection.  Only library calls run here,
since argparse leaves cyclic garbage of its own on every ``cli.main`` call.
"""

import gc

import pytest

from blockdec.blocks import load_block_data
from blockdec.catalog import load_catalog, verify_entry
from blockdec.diagram import canonical_form
from blockdec.oracle import build_index, sweep_nonunique


def cyclic_garbage(work) -> int:
    """Objects in reference cycles that ``work()`` leaves unreachable."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        work()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(scope="module")
def data():
    return load_block_data()


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def test_canonical_form_leaves_no_cycles(catalog):
    assert cyclic_garbage(lambda: [canonical_form(e.diagram) for e in catalog]) == 0


def test_sweep_leaves_no_cycles(data):
    assert cyclic_garbage(lambda: sweep_nonunique(5, "quiver", data)) == 0


def test_build_index_leaves_no_cycles(data):
    assert cyclic_garbage(lambda: build_index(3, "s", data, max_nodes=6)) == 0


def test_verify_entry_leaves_no_cycles(data, catalog):
    assert cyclic_garbage(lambda: [verify_entry(e, data) for e in catalog]) == 0
