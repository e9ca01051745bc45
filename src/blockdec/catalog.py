"""Reference catalog: known diagrams, their decomposition counts, and the
surface behaviour of each decomposition.

``verify_entry`` re-derives everything for one entry with the engine:

* the decomposition count (asserted unless the entry is ``count_provisional``,
  in which case the mismatch is only reported);
* that every plan glues back to the entry's diagram;
* that the multiset of surface classes is or is not a singleton, matching the
  entry's ``surface_unique`` flag;
* in quiver mode, that every decomposition's triangulation returns the
  diagram's exchange matrix.

Catalog matching works up to isomorphism *and* global arrow reversal: the
catalog draws one representative per reversal class, and ``catalog_classes``
maps each class's :func:`~blockdec.diagram.reversal_class_key` to its entry.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .blocks import BlockData, _data_text
from .decompose import enumerate_decompositions
from .diagram import (
    MODES,
    QUIVER,
    Diagram,
    make_diagram,
    reversal_class_key,
    to_matrix,
)
from .gluing import plan_key
from .surface import SurfaceInvariants, assemble, signed_adjacency_matrix


class CatalogError(ValueError):
    """The catalog file is malformed."""


@dataclass(frozen=True)
class CatalogEntry:
    entry_id: str
    diagram: Diagram
    expect_count: int
    surface_unique: bool
    count_provisional: bool = False
    reconstructed: bool = False

    @property
    def mode(self) -> str:
        return self.diagram.mode


@dataclass(frozen=True)
class EntryReport:
    entry: CatalogEntry
    count: int
    truncated: bool
    plan_keys: tuple[str, ...]
    invariants: tuple[SurfaceInvariants, ...]
    glue_ok: bool
    matrix_ok: bool | None  # None when undefined (s mode)

    @property
    def count_matches(self) -> bool:
        return self.count == self.entry.expect_count

    @property
    def count_ok(self) -> bool:
        """Counts of provisional entries are reported, never asserted."""
        return self.count_matches or self.entry.count_provisional

    @property
    def surface_classes(self) -> tuple[tuple[int, int], ...]:
        return tuple(inv.surface_class for inv in self.invariants)

    @property
    def surface_unique_observed(self) -> bool:
        return len(set(self.surface_classes)) <= 1

    @property
    def surface_ok(self) -> bool:
        return self.surface_unique_observed == self.entry.surface_unique

    @property
    def ok(self) -> bool:
        return (
            not self.truncated
            and self.count_ok
            and self.surface_ok
            and self.glue_ok
            and self.matrix_ok is not False
        )

    def as_dict(self) -> dict:
        return {
            "entry": self.entry.entry_id,
            "mode": self.entry.mode,
            "expect_count": self.entry.expect_count,
            "count": self.count,
            "count_matches": self.count_matches,
            "count_provisional": self.entry.count_provisional,
            "reconstructed": self.entry.reconstructed,
            "truncated": self.truncated,
            "plans": list(self.plan_keys),
            "surfaces": [inv.as_dict() for inv in self.invariants],
            "surface_unique_expected": self.entry.surface_unique,
            "surface_unique_observed": self.surface_unique_observed,
            "glue_ok": self.glue_ok,
            "matrix_ok": self.matrix_ok,
            "ok": self.ok,
        }


def parse_catalog(text: str) -> tuple[CatalogEntry, ...]:
    entries: list[CatalogEntry] = []
    current: dict | None = None

    def finish() -> None:
        nonlocal current
        if current is None:
            return
        for field in ("mode", "nodes", "expect_count", "surface_unique"):
            if current.get(field) is None:
                raise CatalogError(f"graph {current['id']}: missing {field} line")
        diagram = make_diagram(current["nodes"], current["edges"], current["mode"])
        entries.append(
            CatalogEntry(
                entry_id=current["id"],
                diagram=diagram,
                expect_count=current["expect_count"],
                surface_unique=current["surface_unique"],
                count_provisional=current["count_provisional"],
                reconstructed=current["reconstructed"],
            )
        )
        current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "graph":
            if len(tokens) != 2:
                raise CatalogError(f"line {lineno}: expected 'graph <id>'")
            finish()
            current = {
                "id": tokens[1],
                "mode": None,
                "nodes": None,
                "edges": [],
                "expect_count": None,
                "surface_unique": None,
                "count_provisional": False,
                "reconstructed": False,
            }
            continue
        if current is None:
            raise CatalogError(f"line {lineno}: directive before any graph stanza")
        try:
            if tokens[0] == "mode" and len(tokens) == 2 and tokens[1] in MODES:
                current["mode"] = tokens[1]
            elif tokens[0] == "nodes" and len(tokens) == 2:
                current["nodes"] = int(tokens[1])
            elif tokens[0] == "edge" and len(tokens) == 4:
                current["edges"].append(tuple(int(t) for t in tokens[1:]))
            elif tokens[0] == "expect_count" and len(tokens) == 2:
                current["expect_count"] = int(tokens[1])
            elif tokens[0] == "surface_unique" and len(tokens) == 2:
                if tokens[1] not in ("true", "false"):
                    raise CatalogError(
                        f"line {lineno}: surface_unique must be true/false"
                    )
                current["surface_unique"] = tokens[1] == "true"
            elif tokens[0] == "count_provisional" and len(tokens) == 1:
                current["count_provisional"] = True
            elif tokens[0] == "reconstructed" and len(tokens) == 1:
                current["reconstructed"] = True
            else:
                raise CatalogError(f"line {lineno}: unknown directive {line!r}")
        except CatalogError:
            raise
        except ValueError as exc:
            raise CatalogError(f"line {lineno}: bad integer in {line!r}") from exc
    finish()

    seen = set()
    for entry in entries:
        if entry.entry_id in seen:
            raise CatalogError(f"duplicate graph id {entry.entry_id!r}")
        seen.add(entry.entry_id)
    if not entries:
        raise CatalogError("catalog holds no entries")
    return tuple(entries)


_CACHE: dict[str, tuple[CatalogEntry, ...]] = {}


def load_catalog() -> tuple[CatalogEntry, ...]:
    """Load the catalog from ``$BLOCKDEC_DATA/catalog.txt`` or the packaged
    defaults (cached per source)."""
    key = os.environ.get("BLOCKDEC_DATA", "")
    if key not in _CACHE:
        _CACHE[key] = parse_catalog(_data_text("catalog.txt"))
    return _CACHE[key]


def catalog_entry(entry_id: str, entries: tuple[CatalogEntry, ...]) -> CatalogEntry:
    for entry in entries:
        if entry.entry_id == entry_id:
            return entry
    known = ", ".join(e.entry_id for e in entries)
    raise CatalogError(f"no catalog entry {entry_id!r} (known: {known})")


def verify_entry(
    entry: CatalogEntry,
    data: BlockData,
    *,
    limit: int = 10000,
) -> EntryReport:
    result = enumerate_decompositions(entry.diagram, data, limit=limit)

    keys = []
    invariants = []
    glue_ok = True
    matrix_ok: bool | None = True if entry.mode == QUIVER else None
    expected_matrix = to_matrix(entry.diagram) if entry.mode == QUIVER else None
    for plan in result.plans:
        keys.append(plan_key(data, plan))
        tri = assemble(data, plan)
        if tri.diagram != entry.diagram:  # the diagram the plan glued to
            glue_ok = False
        invariants.append(tri.invariants())
        if entry.mode == QUIVER:
            if signed_adjacency_matrix(tri, entry.diagram.node_count) != expected_matrix:
                matrix_ok = False

    return EntryReport(
        entry=entry,
        count=len(result.plans),
        truncated=result.truncated,
        plan_keys=tuple(keys),
        invariants=tuple(invariants),
        glue_ok=glue_ok,
        matrix_ok=matrix_ok,
    )


def catalog_classes(entries: tuple[CatalogEntry, ...]) -> dict[str, CatalogEntry]:
    """Reversal-class key -> the first catalog entry of that class.  A key
    starts with its mode, so one lookup matches both."""
    classes: dict[str, CatalogEntry] = {}
    for entry in entries:
        classes.setdefault(reversal_class_key(entry.diagram), entry)
    return classes

