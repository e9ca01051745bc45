"""Command-line interface.

Commands
--------
decompose       enumerate the block decompositions of a diagram
surface         assemble the surface of each decomposition
glue            glue a plan file back into a diagram
verify-catalog  re-derive the reference catalog with the engine
sweep           list diagrams with several decompositions, up to a node bound

Exit codes: 0 success; 1 negative result (no decomposition, invalid plan,
failing catalog entry); 2 input error; 3 data or internal error (including
hitting the enumeration limit or the recursion limit, or running out of memory).

All randomness-free: output bytes depend only on inputs, never on --threads
(the search is serial).
Timing is written to stderr so stdout stays byte-stable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .blocks import BlockDataError, _data_text, load_block_data
from .catalog import CatalogError, catalog_classes, catalog_entry, load_catalog, verify_entry
from .decompose import enumerate_decompositions
from .diagram import (
    MODES,
    QUIVER,
    Diagram,
    DiagramError,
    canonical_key,
    from_canonical_key,
    parse_diagram,
    reverse_diagram,
    serialize_diagram,
)
from .gluing import BadInstance, GluingError, glue, parse_plan, plan_key
from .oracle import sweep_nonunique
from .surface import DisconnectedComplex, assemble

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from exc


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(human_lines) + "\n")


def _load_data():
    try:
        return load_block_data()
    except (OSError, BlockDataError) as exc:
        raise _CliError(EXIT_INTERNAL, f"block data: {exc}") from exc


def _load_catalog_entries():
    try:
        return load_catalog()
    except (OSError, CatalogError, DiagramError) as exc:
        raise _CliError(EXIT_INTERNAL, f"catalog data: {exc}") from exc


def _catalog_entry(entry_id: str, entries):
    try:
        return catalog_entry(entry_id, entries)
    except CatalogError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from exc


def _parse_diagram_arg(text: str, mode: str | None) -> Diagram:
    try:
        return parse_diagram(text, mode)
    except DiagramError as exc:
        raise _CliError(EXIT_INPUT, f"bad diagram: {exc}") from exc


def _diagram_payload(diagram: Diagram) -> dict:
    return {
        "mode": diagram.mode,
        "nodes": diagram.node_count,
        "edges": [[e.src, e.dst, e.weight] for e in diagram.edges],
        "canonical_key": canonical_key(diagram),
    }


def _enumerate(args, diagram: Diagram, data):
    result = enumerate_decompositions(diagram, data, limit=args.limit)
    if result.truncated:
        raise _CliError(
            EXIT_INTERNAL,
            f"enumeration exceeded --limit={args.limit}; raise the limit",
        )
    return result


def _cmd_decompose(args) -> int:
    data = _load_data()
    text = _read_input(args.input)
    diagram = _parse_diagram_arg(text, args.mode)
    result = _enumerate(args, diagram, data)
    keys = [plan_key(data, p) for p in result.plans]

    payload = {
        "command": "decompose",
        "input_sha256": _sha256(text),
        "diagram": _diagram_payload(diagram),
        "count": len(keys),
        "plans": keys,
    }
    lines = [
        f"mode {diagram.mode}",
        f"diagram {canonical_key(diagram)}",
        f"count {len(keys)}",
        *(f"plan {k}" for k in keys),
    ]
    _emit(args, payload, lines)
    return EXIT_OK if keys else EXIT_NEGATIVE


def _surface_input(args) -> tuple[str, Diagram]:
    if (args.entry is None) == (args.input is None):
        raise _CliError(EXIT_INPUT, "give an input file or --entry, not both")
    if args.entry is not None:
        entry = _catalog_entry(args.entry, _load_catalog_entries())
        if args.mode and args.mode != entry.mode:
            raise _CliError(
                EXIT_INPUT,
                f"entry {args.entry} is {entry.mode}-mode; drop --mode",
            )
        return serialize_diagram(entry.diagram), entry.diagram
    text = _read_input(args.input)
    return text, _parse_diagram_arg(text, args.mode)


def _cmd_surface(args) -> int:
    data = _load_data()
    text, diagram = _surface_input(args)
    result = _enumerate(args, diagram, data)

    picked = list(enumerate(result.plans))
    if args.decomposition is not None:
        if not 0 <= args.decomposition < len(result.plans):
            raise _CliError(
                EXIT_INPUT,
                f"--decomposition={args.decomposition} out of range "
                f"(found {len(result.plans)} decompositions)",
            )
        picked = [(args.decomposition, result.plans[args.decomposition])]

    surfaces = []
    lines = [
        f"mode {diagram.mode}",
        f"diagram {canonical_key(diagram)}",
        f"count {len(result.plans)}",
    ]
    for index, plan in picked:
        try:
            inv = assemble(data, plan).invariants()
        except DisconnectedComplex as exc:
            raise _CliError(EXIT_INPUT, f"decomposition {index}: {exc}") from exc
        key = plan_key(data, plan)
        surfaces.append({"decomposition": index, "plan": key, "surface": inv.as_dict()})
        lines.append(f"decomposition {index} {key}")
        for field, value in sorted(inv.as_dict().items()):
            if field == "boundary_marked":
                value = ",".join(map(str, value)) or "-"
            lines.append(f"  {field} {value}")

    payload = {
        "command": "surface",
        "input_sha256": _sha256(text),
        "diagram": _diagram_payload(diagram),
        "count": len(result.plans),
        "surfaces": surfaces,
    }
    _emit(args, payload, lines)
    return EXIT_OK if result.plans else EXIT_NEGATIVE


def _cmd_glue(args) -> int:
    data = _load_data()
    text = _read_input(args.input)
    try:
        plan = parse_plan(text)
        result = glue(data, plan)
    except BadInstance as exc:
        raise _CliError(EXIT_INPUT, f"bad plan: {exc}") from exc
    except GluingError as exc:
        raise _CliError(EXIT_NEGATIVE, f"plan violates rule {exc.rule}: {exc}") from exc
    except (ValueError, KeyError) as exc:
        raise _CliError(EXIT_INPUT, f"bad plan: {exc}") from exc

    diagram = result.diagram
    payload = {
        "command": "glue",
        "input_sha256": _sha256(text),
        "plan": plan_key(data, plan),
        "diagram": _diagram_payload(diagram),
        "colors": list(result.colors),
    }
    lines = [
        f"mode {diagram.mode}",
        f"plan {plan_key(data, plan)}",
        serialize_diagram(diagram).rstrip("\n"),
        f"colors {','.join(result.colors)}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_verify_catalog(args) -> int:
    data = _load_data()
    entries = _load_catalog_entries()
    if args.entry is not None:
        entries = (_catalog_entry(args.entry, entries),)

    reports = [verify_entry(entry, data, limit=args.limit) for entry in entries]
    ok = all(r.ok for r in reports)

    payload = {
        "command": "verify-catalog",
        "input_sha256": _sha256(_data_text("catalog.txt")),
        "entries": [r.as_dict() for r in reports],
        "ok": ok,
    }
    lines = []
    for r in reports:
        flags = "".join(
            [
                " provisional" if r.entry.count_provisional else "",
                " reconstructed" if r.entry.reconstructed else "",
            ]
        )
        classes = ",".join(
            f"{g}:{b}" for g, b in sorted(set(r.surface_classes))
        ) or "-"
        lines.append(
            f"{'ok  ' if r.ok else 'FAIL'} graph {r.entry.entry_id} "
            f"mode {r.entry.mode} expect {r.entry.expect_count} got {r.count} "
            f"surfaces {classes}{flags}"
        )
    lines.append(f"{'ok' if ok else 'FAIL'} {sum(r.ok for r in reports)}/{len(reports)}")
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_sweep(args) -> int:
    data = _load_data()
    catalog = catalog_classes(_load_catalog_entries())
    mode = args.mode or QUIVER
    hits = sweep_nonunique(args.max_nodes, mode, data)

    classes: dict[str, dict[str, int]] = {}
    for key, count in hits.items():
        # ``key`` is canonical already: only the reversed diagram needs labelling.
        rk = min(key, canonical_key(reverse_diagram(from_canonical_key(key))))
        classes.setdefault(rk, {})[key] = count

    rows = []
    for rk in sorted(classes):
        diagram = from_canonical_key(rk)
        match = catalog.get(rk)
        rows.append(
            {
                "key": rk,
                "count": min(classes[rk].values()),
                "diagrams": classes[rk],
                "nodes": diagram.node_count,
                "edges": len(diagram.edges),
                "catalog": match.entry_id if match else None,
            }
        )
    rows.sort(key=lambda r: (r["nodes"], r["edges"], r["key"]))

    payload = {
        "command": "sweep",
        "input_sha256": None,
        "mode": mode,
        "max_nodes": args.max_nodes,
        "classes": rows,
    }
    lines = [f"mode {mode}", f"max_nodes {args.max_nodes}", f"classes {len(rows)}"]
    for row in rows:
        lines.append(
            f"class {row['key']} count {row['count']} "
            f"catalog {row['catalog'] or '-'}"
        )
    _emit(args, payload, lines)
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockdec",
        description="Block decompositions of quivers and s-diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, search=True):
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        if search:
            p.add_argument(
                "--limit", type=_positive_int, default=10000,
                help="abort if more decompositions than this exist (default 10000)",
            )
            p.add_argument(
                "--threads", type=_positive_int, default=1,
                help="accepted for compatibility: the search is serial, and the "
                "value changes neither the output nor the work",
            )

    p = sub.add_parser("decompose", help="enumerate block decompositions")
    p.add_argument("input", help="diagram file (edge list or matrix), '-' for stdin")
    p.add_argument("--mode", choices=sorted(MODES), help="override the diagram mode")
    add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("surface", help="surface invariants per decomposition")
    p.add_argument("input", nargs="?", help="diagram file, '-' for stdin")
    p.add_argument("--entry", help="use a catalog entry as the diagram")
    p.add_argument("--mode", choices=sorted(MODES), help="override the diagram mode")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--all", action="store_true",
        help="report every decomposition (the default)",
    )
    group.add_argument(
        "--decomposition", type=int, metavar="K",
        help="report only the K-th decomposition (0-based)",
    )
    add_common(p)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("glue", help="glue a plan file into a diagram")
    p.add_argument("input", help="plan file, '-' for stdin")
    add_common(p, search=False)
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("verify-catalog", help="re-derive the reference catalog")
    p.add_argument("--entry", help="verify a single entry")
    add_common(p)
    p.set_defaults(func=_cmd_verify_catalog)

    p = sub.add_parser("sweep", help="diagrams with several decompositions")
    p.add_argument("--max-nodes", type=_positive_int, required=True, help="node bound")
    p.add_argument("--mode", choices=sorted(MODES), help="mode (default quiver)")
    add_common(p, search=False)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = exc.code
    except BrokenPipeError:
        code = EXIT_INTERNAL
    except RecursionError:
        print("error: the search is too deep for this diagram (recursion limit)", file=sys.stderr)
        code = EXIT_INTERNAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        code = EXIT_INTERNAL
    finally:
        elapsed = time.perf_counter() - start
        print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
