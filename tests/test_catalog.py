"""Catalog loading, verification, and reversal-class matching."""

import json
from dataclasses import replace

import pytest

from blockdec.blocks import load_block_data
from blockdec.catalog import (
    CatalogError,
    catalog_classes,
    catalog_entry,
    load_catalog,
    parse_catalog,
    verify_entry,
)
from blockdec.diagram import (
    QUIVER,
    S_DIAGRAM,
    make_diagram,
    reversal_class_key,
    reverse_diagram,
)

DATA = load_block_data()
ENTRIES = load_catalog()
CLASSES = catalog_classes(ENTRIES)
REPORTS = {entry.entry_id: verify_entry(entry, DATA) for entry in ENTRIES}


def match(diagram):
    """The catalog entry of ``diagram`` up to isomorphism and arrow reversal."""
    return CLASSES.get(reversal_class_key(diagram))


PINNED_COUNTS = {
    "1": 2, "2": 2, "4": 3, "5": 2, "6": 3, "7": 3, "7p": 3,
    "8": 3, "9": 3, "10": 3, "16": 2, "17": 2,
}
PROVISIONAL = {"3", "11", "12", "13", "14", "15"}


def test_load_catalog():
    ids = [e.entry_id for e in ENTRIES]
    assert ids == ["1", "2", "3", "4", "5", "6", "7", "7p", "8", "9",
                   "10", "11", "12", "13", "14", "15", "16", "17"]
    for e in ENTRIES:
        assert e.mode == (S_DIAGRAM if e.entry_id in ("16", "17") else QUIVER)
        assert e.diagram.is_connected()
        assert e.expect_count >= 2  # every row is a non-uniqueness example


def test_flags():
    assert {e.entry_id for e in ENTRIES if e.count_provisional} == PROVISIONAL
    assert {e.entry_id for e in ENTRIES if e.reconstructed} == {
        "5", "11", "12", "13", "14", "15"
    }
    assert {e.entry_id for e in ENTRIES if not e.surface_unique} == {"5"}


@pytest.mark.parametrize("entry_id,count", sorted(PINNED_COUNTS.items()))
def test_pinned_counts(entry_id, count):
    report = REPORTS[entry_id]
    assert not report.entry.count_provisional
    assert report.count == report.entry.expect_count == count
    assert not report.truncated


def test_provisional_counts_reported_not_asserted():
    g3 = REPORTS["3"]
    assert g3.count == 3  # engine truth
    assert g3.entry.expect_count == 2  # source claim
    assert not g3.count_matches
    assert g3.ok  # provisional: mismatch is reported, not fatal
    for entry_id in ("11", "12", "13", "14", "15"):
        report = REPORTS[entry_id]
        assert report.count_matches  # frozen from the engine itself


def test_surface_behaviour():
    for entry_id, report in REPORTS.items():
        classes = set(report.surface_classes)
        if entry_id == "5":
            assert classes == {(0, 1), (0, 2)}
        else:
            assert len(classes) == 1, entry_id
        assert report.surface_ok, entry_id


def test_glue_back_and_matrices():
    for entry_id, report in REPORTS.items():
        assert report.glue_ok, entry_id
        assert report.matrix_ok is (None if report.entry.mode == S_DIAGRAM else True)


def test_each_plan_is_glued_once(monkeypatch):
    """``verify_entry`` reads each plan's diagram from its surface, which
    ``assemble`` glued; it does not glue the plan again."""
    import blockdec.catalog
    import blockdec.gluing
    import blockdec.surface

    calls = []
    real_glue = blockdec.gluing.glue

    def counting_glue(data, plan):
        calls.append(plan)
        return real_glue(data, plan)

    monkeypatch.setattr(blockdec.gluing, "glue", counting_glue)
    monkeypatch.setattr(blockdec.surface, "glue", counting_glue)
    monkeypatch.setattr(blockdec.catalog, "glue", counting_glue, raising=False)
    report = verify_entry(catalog_entry("7", ENTRIES), DATA)
    assert report.glue_ok and len(calls) == report.count == 3


def test_glue_back_failure_is_reported(monkeypatch):
    import blockdec.catalog
    from blockdec.surface import assemble

    other = make_diagram(3, [(0, 1, 1), (1, 2, 1)])
    monkeypatch.setattr(
        blockdec.catalog, "assemble", lambda data, plan: replace(assemble(data, plan), diagram=other)
    )
    report = verify_entry(catalog_entry("7", ENTRIES), DATA)
    assert not report.glue_ok and not report.ok


def test_whole_catalog_ok():
    assert all(report.ok for report in REPORTS.values())


def test_report_dict_is_json_ready():
    payload = json.dumps([r.as_dict() for r in REPORTS.values()], sort_keys=True)
    assert '"entry": "7p"' in payload


def test_truncation_fails_entry():
    report = verify_entry(catalog_entry("4", ENTRIES), DATA, limit=1)
    assert report.truncated
    assert not report.ok


def test_match_catalog_reversal_classes():
    # out-fork is the in-fork (entry 2) reversed
    outfork = make_diagram(3, [(0, 1, 1), (0, 2, 1)])
    assert match(outfork).entry_id == "2"
    # every entry matches itself and its reversal
    for e in ENTRIES:
        assert match(e.diagram) is e
        assert match(reverse_diagram(e.diagram)).entry_id == e.entry_id
    # the path row
    path = make_diagram(3, [(0, 1, 1), (1, 2, 1)])
    assert match(path).entry_id == "11"
    # mode must match: the s-mode view of entry 1's shape is no hit
    s_cycle = make_diagram(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], S_DIAGRAM)
    assert match(s_cycle) is None


def test_match_catalog_excludes_theorem_exception_classes():
    # These sweep finds have decompositions with different surfaces, so they
    # were ruled out as stand-ins for the lost rows 11-15.
    alt_cycle = make_diagram(4, [(1, 0, 1), (2, 1, 1), (2, 3, 1), (3, 0, 1)])
    five_edge = make_diagram(4, [(0, 2, 1), (1, 3, 1), (2, 1, 1), (3, 0, 1), (3, 2, 1)])
    assert match(alt_cycle) is None
    assert match(five_edge) is None


def test_catalog_entry_lookup():
    assert catalog_entry("16", ENTRIES).mode == S_DIAGRAM
    with pytest.raises(CatalogError, match="no catalog entry"):
        catalog_entry("99", ENTRIES)


@pytest.mark.parametrize(
    "text,message",
    [
        ("mode quiver", "before any graph"),
        ("graph 1\nmode quiver\nnodes 2\nedge 0 1 1\nexpect_count 2", "missing surface_unique"),
        ("graph 1\nnodes 2\nedge 0 1 1\nexpect_count 2\nsurface_unique true", "missing mode"),
        (
            "graph 1\nmode quiver\nnodes 2\nedge 0 1 1\nexpect_count 1\n"
            "surface_unique true\n\ngraph 1\nmode quiver\nnodes 2\nedge 0 1 1\n"
            "expect_count 1\nsurface_unique true",
            "duplicate graph id",
        ),
        ("graph 1\nwibble 3", "unknown directive"),
        ("graph 1\nnodes two", "bad integer"),
        ("", "no entries"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(CatalogError, match=message):
        parse_catalog(text)


def test_data_override(tmp_path, monkeypatch):
    import shutil
    from importlib import resources

    blocks_src = resources.files("blockdec.data").joinpath("blocks.txt")
    (tmp_path / "blocks.txt").write_text(blocks_src.read_text(encoding="utf-8"))
    (tmp_path / "catalog.txt").write_text(
        "graph only\nmode quiver\nnodes 3\nedge 0 1 1\nedge 1 2 1\nedge 2 0 1\n"
        "expect_count 2\nsurface_unique true\n"
    )
    monkeypatch.setenv("BLOCKDEC_DATA", str(tmp_path))
    entries = load_catalog()
    assert [e.entry_id for e in entries] == ["only"]
    report = verify_entry(entries[0], load_block_data())
    assert report.ok and report.count == 2
