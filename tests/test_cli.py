"""CLI behaviour: outputs, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import blockdec
from blockdec.cli import main

TRIANGLE = "nodes 3\nedge 0 1 1\nedge 1 2 1\nedge 2 0 1\n"
W2_EDGE = "nodes 2\nedge 0 1 2\n"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE)
    return str(path)


# Child interpreters import the package from where this one did.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(blockdec.__file__).parents[1])}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_human(capsys, triangle_file):
    code, out, err = run(capsys, "decompose", triangle_file)
    assert code == 0
    assert "count 2" in out
    assert "plan quiver|Triangle:0,1,2" in out
    assert "plan quiver|Spike:0,2;Spike:1,0;Spike:2,1" in out
    assert "elapsed" in err and "elapsed" not in out


def test_decompose_json(capsys, triangle_file):
    code, out, _ = run(capsys, "decompose", triangle_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "decompose"
    assert payload["count"] == 2
    assert payload["diagram"]["canonical_key"] == "quiver|3|0>1*1;1>2*1;2>0*1"
    assert len(payload["input_sha256"]) == 64
    assert payload["plans"] == [
        "quiver|Spike:0,2;Spike:1,0;Spike:2,1",
        "quiver|Triangle:0,1,2",
    ]


def test_decompose_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(TRIANGLE))
    code, out, _ = run(capsys, "decompose", "-")
    assert code == 0 and "count 2" in out


def test_decompose_disjoint_three_cycles(capsys, tmp_path):
    """Six disjoint oriented 3-cycles, labelled in order and at random: each
    has 2**6 plans and prints the same diagram key, which the canonical
    labelling finds without walking every equal component's labellings."""
    perm = list(range(18))
    random.Random(6).shuffle(perm)
    keys = []
    for label in (list(range(18)), perm):
        path = tmp_path / f"cycles{len(keys)}.txt"
        path.write_text("nodes 18\n" + "".join(
            f"edge {label[3 * c + i]} {label[3 * c + (i + 1) % 3]} 1\n"
            for c in range(6)
            for i in range(3)
        ))
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        lines = out.splitlines()
        assert "count 64" in lines
        keys.append(next(line for line in lines if line.startswith("diagram ")))
    assert keys[0] == keys[1]


def test_decompose_negative_result(capsys, tmp_path):
    path = tmp_path / "lonely.txt"
    path.write_text("nodes 1\n")
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 1
    assert "count 0" in out


def test_decompose_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "decompose", str(tmp_path / "missing.txt"))
    assert code == 2 and "cannot read" in err

    bad = tmp_path / "bad.txt"
    bad.write_text("nodes 2\nedge 0 0 1\n")
    code, _, err = run(capsys, "decompose", str(bad))
    assert code == 2 and "bad diagram" in err

    # Antiparallel edges do not cancel in a diagram file: they are refused.
    bad.write_text("nodes 2\nedge 0 1 1\nedge 1 0 1\n")
    code, _, err = run(capsys, "decompose", str(bad))
    assert code == 2 and "bad diagram: opposite edges between 0 and 1" in err


def test_decompose_limit_truncation_is_internal_error(capsys, tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("nodes 4\nedge 1 0 1\nedge 0 2 1\nedge 0 3 1\n")
    code, _, err = run(capsys, "decompose", str(path), "--limit", "1")
    assert code == 3
    assert "--limit" in err


def test_out_of_memory_is_internal_error(capsys, monkeypatch, triangle_file):
    """Running out of memory exits 3 with one line, not 1 with a traceback."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(blockdec.cli, "enumerate_decompositions", exhausted)
    code, out, err = run(capsys, "decompose", triangle_file)
    assert code == 3 and out == ""
    assert err.splitlines()[0] == "error: out of memory"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value",
    [("--threads", "0"), ("--threads", "-3"), ("--limit", "0"), ("--limit", "-1"),
     ("--max-nodes", "0"), ("--max-nodes", "-1")],
)
def test_non_positive_counts_are_input_errors(capsys, triangle_file, flag, value):
    command = ["sweep"] if flag == "--max-nodes" else ["decompose", triangle_file]
    with pytest.raises(SystemExit) as exc:
        main([*command, flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least 1, got {value}" in err


def test_decompose_mode_override(capsys, tmp_path):
    path = tmp_path / "edge.txt"
    path.write_text("nodes 2\nedge 1 0 1\n")
    code, out, _ = run(capsys, "decompose", str(path), "--mode", "s")
    assert code == 0
    assert "mode s" in out


def test_threads_do_not_change_bytes(capsys, triangle_file):
    outputs = set()
    for threads in ("1", "3", "7"):
        for flag in ([], ["--json"]):
            code, out, _ = run(
                capsys, "decompose", triangle_file, "--threads", threads, *flag
            )
            assert code == 0
            outputs.add((tuple(flag), out))
    assert len(outputs) == 2  # one human, one JSON — regardless of threads


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------


def test_surface_all(capsys, triangle_file):
    code, out, _ = run(capsys, "surface", triangle_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    classes = {
        (s["surface"]["genus"], s["surface"]["boundary"])
        for s in payload["surfaces"]
    }
    assert classes == {(0, 1)}
    keys = set(payload["surfaces"][0]["surface"])
    assert keys == {
        "genus", "boundary", "punctures", "boundary_marked", "chi",
        "triangles", "arcs",
    }


def test_surface_single_decomposition(capsys, triangle_file):
    code, out, _ = run(
        capsys, "surface", triangle_file, "--decomposition", "1", "--json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 2
    assert len(payload["surfaces"]) == 1
    assert payload["surfaces"][0]["decomposition"] == 1
    assert payload["surfaces"][0]["plan"] == "quiver|Triangle:0,1,2"

    code, _, err = run(capsys, "surface", triangle_file, "--decomposition", "5")
    assert code == 2 and "out of range" in err


def test_surface_entry_5_disk_vs_annulus(capsys):
    code, out, _ = run(capsys, "surface", "--entry", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    classes = sorted(
        (s["surface"]["genus"], s["surface"]["boundary"])
        for s in payload["surfaces"]
    )
    assert classes == [(0, 1), (0, 2)]


def test_surface_of_disconnected_decomposition_is_input_error(capsys, tmp_path):
    path = tmp_path / "two_edges.txt"
    path.write_text("nodes 4\nedge 0 1 1\nedge 2 3 1\n")
    code, out, err = run(capsys, "surface", str(path))
    assert code == 2
    assert out == ""
    assert "error: decomposition 0: the blocks form 2 connected components" in err
    assert "Traceback" not in err

    # Two isolated nodes glue from two cancelling spikes into one surface.
    path.write_text("nodes 2\n")
    code, out, _ = run(capsys, "surface", str(path))
    assert code == 0
    assert "count 1" in out


def test_surface_input_choice_errors(capsys, triangle_file):
    code, _, err = run(capsys, "surface")
    assert code == 2 and "input file or --entry" in err
    code, _, err = run(capsys, "surface", triangle_file, "--entry", "1")
    assert code == 2 and "input file or --entry" in err
    code, _, err = run(capsys, "surface", "--entry", "99")
    assert code == 2 and "no catalog entry" in err
    code, _, err = run(capsys, "surface", "--entry", "16", "--mode", "quiver")
    assert code == 2 and "drop --mode" in err


# ---------------------------------------------------------------------------
# glue
# ---------------------------------------------------------------------------


def test_glue_round_trip(capsys, tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text("mode quiver\nblock Spike 1 0\nblock Spike 2 1\n")
    code, out, _ = run(capsys, "glue", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["diagram"]["edges"] == [[0, 1, 1], [1, 2, 1]]
    assert payload["colors"] == ["white", "black", "white"]
    assert payload["plan"] == "quiver|Spike:1,0;Spike:2,1"


def test_glue_rule_violation_is_negative(capsys, tmp_path):
    path = tmp_path / "plan.txt"
    # three blocks on one node: occupancy violation (rule 1)
    path.write_text(
        "mode quiver\nblock Spike 0 1\nblock Spike 0 2\nblock Spike 0 3\n"
    )
    code, _, err = run(capsys, "glue", str(path))
    assert code == 1
    assert "rule 1" in err


def test_glue_of_huge_node_id_is_negative_in_a_short_message(capsys, tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text("mode quiver\nblock Spike 0 1000000\n")  # 2 slots, ids 0..10**6
    code, _, err = run(capsys, "glue", str(path))
    assert code == 1
    assert "plan violates rule 1" in err
    assert len(err) < 200


def test_glue_bad_plan_is_input_error(capsys, tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text("mode quiver\nblock Wedge 0 1\n")
    code, _, err = run(capsys, "glue", str(path))
    assert code == 2 and "bad plan" in err

    path.write_text("block Spike 0 1\n")  # missing mode line
    code, _, err = run(capsys, "glue", str(path))
    assert code == 2


# ---------------------------------------------------------------------------
# verify-catalog
# ---------------------------------------------------------------------------


def test_verify_catalog_all(capsys):
    code, out, _ = run(capsys, "verify-catalog", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["entries"]) == 18
    by_id = {e["entry"]: e for e in payload["entries"]}
    assert by_id["1"]["count"] == 2
    assert by_id["3"]["count"] == 3 and by_id["3"]["count_matches"] is False
    assert by_id["5"]["surface_unique_observed"] is False


def test_verify_catalog_single_entry(capsys):
    code, out, _ = run(capsys, "verify-catalog", "--entry", "17")
    assert code == 0
    assert "graph 17" in out and "2" in out
    code, _, err = run(capsys, "verify-catalog", "--entry", "nope")
    assert code == 2


def test_unknown_entry_message_lists_known_ids(capsys):
    code, _, verify_err = run(capsys, "verify-catalog", "--entry", "nope")
    assert code == 2
    code, _, surface_err = run(capsys, "surface", "--entry", "nope")
    assert code == 2
    message = verify_err.splitlines()[0]
    assert message.startswith("error: no catalog entry 'nope' (known: 1, 2, 3,")
    assert message == surface_err.splitlines()[0]


def test_verify_catalog_failure_exit(capsys, tmp_path, monkeypatch):
    from importlib import resources

    blocks_src = resources.files("blockdec.data").joinpath("blocks.txt")
    (tmp_path / "blocks.txt").write_text(blocks_src.read_text(encoding="utf-8"))
    (tmp_path / "catalog.txt").write_text(
        "graph wrong\nmode quiver\nnodes 3\nedge 0 1 1\nedge 1 2 1\nedge 2 0 1\n"
        "expect_count 7\nsurface_unique true\n"
    )
    monkeypatch.setenv("BLOCKDEC_DATA", str(tmp_path))
    code, out, _ = run(capsys, "verify-catalog")
    assert code == 1
    assert "FAIL" in out


def test_malformed_data_is_internal_error(capsys, tmp_path, monkeypatch):
    from importlib import resources

    blocks_src = resources.files("blockdec.data").joinpath("blocks.txt")
    (tmp_path / "blocks.txt").write_text(blocks_src.read_text(encoding="utf-8"))
    (tmp_path / "catalog.txt").write_text("graph broken\nmode quiver\n")
    monkeypatch.setenv("BLOCKDEC_DATA", str(tmp_path))
    code, _, err = run(capsys, "verify-catalog")
    assert code == 3
    assert "catalog data" in err


def test_data_that_breaks_the_part_lemma_is_internal_error(
    capsys, tmp_path, monkeypatch, triangle_file
):
    from importlib import resources

    blocks_src = resources.files("blockdec.data").joinpath("blocks.txt")
    (tmp_path / "blocks.txt").write_text(
        blocks_src.read_text(encoding="utf-8")
        + "block Path\nnode 1 white\nnode 2 white\nnode 3 white\n"
        "edge 1 2 1\nedge 2 3 1\npiece triangle\n"
    )
    monkeypatch.setenv("BLOCKDEC_DATA", str(tmp_path))
    code, _, err = run(capsys, "decompose", triangle_file)
    assert code == 3
    assert "block data:" in err and "Path" in err


def test_block_edge_to_undeclared_node_is_internal_error(
    capsys, tmp_path, monkeypatch, triangle_file
):
    """A block edge to an undeclared node is reported as bad block data
    before anything is built from the stanza."""
    (tmp_path / "blocks.txt").write_text(
        "block Solo\nnode 1 white\nnode 2 white\nedge 1 3 1\npiece p\n"
        "piecedef p\nvertex A B C\nside a1 arc A B label 1\nside a2 arc B C label 2\n"
        "side s3 bseg C A\noutlet 1 a1\noutlet 2 a2\nface a1+ a2+ s3+\n"
    )
    monkeypatch.setenv("BLOCKDEC_DATA", str(tmp_path))
    code, out, err = run(capsys, "decompose", triangle_file)
    assert code == 3 and out == ""
    assert err.splitlines()[0] == "error: block data: block Solo: edge 1->3 uses undeclared node"
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_quiver_3(capsys):
    code, out, _ = run(capsys, "sweep", "--max-nodes", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "quiver"
    matches = {row["catalog"] for row in payload["classes"]}
    assert matches == {"1", "2", "11"}


def test_sweep_s_2(capsys):
    code, out, _ = run(capsys, "sweep", "--max-nodes", "2", "--mode", "s", "--json")
    payload = json.loads(out)
    assert code == 0
    assert [row["key"] for row in payload["classes"]] == ["s|2|1>0*2"]
    assert payload["classes"][0]["catalog"] is None


def test_sweep_quiver_2_empty(capsys):
    code, out, _ = run(capsys, "sweep", "--max-nodes", "2", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["classes"] == []


@pytest.mark.parametrize(
    "argv, classes, digest, stable_from",
    [
        (
            ["--max-nodes", "5"],
            18,
            "857bc9942eef726ed05d51f1e8dcb84fdc75b700e53c4cef4532e376e2d95552",
            None,
        ),
        (
            ["--mode", "s", "--max-nodes", "4"],
            14,
            "a48731bdd363cb720ec733b74ffa8bd1127e8e976463726969dbb553c3dbe82a",
            None,
        ),
        (
            ["--max-nodes", "7"],
            22,
            "1287e94fe2923ac3b23f1fcce457e9e101b11c732fe717660fe08fd592632fe9",
            ["--max-nodes", "6"],
        ),
        (
            ["--mode", "s", "--max-nodes", "6"],
            26,
            "3801fe305b4e8d6cd87da9f8a1e1a66252ffee65c91a51ec63a3373e0d515aa9",
            None,
        ),
        (
            ["--mode", "s", "--max-nodes", "7"],
            26,
            "d58c54d2c6df7b57206a43332cce3f5c3865b531afb2444c06d394ee8c443466",
            ["--mode", "s", "--max-nodes", "6"],
        ),
    ],
    ids=["quiver-5", "s-4", "quiver-7", "s-6", "s-7"],
)
def test_sweep_stdout_is_pinned(capsys, argv, classes, digest, stable_from):
    """The sweep's stdout bytes are fixed: any change to the oracle must file
    the same diagrams under the same keys with the same counts.  Where
    ``stable_from`` is given, the list of classes has stopped growing: the
    sweep at that smaller bound prints the same class lines."""
    code, out, _ = run(capsys, "sweep", *argv)
    assert code == 0
    assert f"classes {classes}" in out.splitlines()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    if stable_from is not None:
        _, smaller, _ = run(capsys, "sweep", *stable_from)
        class_lines = lambda text: [l for l in text.splitlines() if l.startswith("class ")]  # noqa: E731
        assert class_lines(out) == class_lines(smaller)


# Taken at the tuple-keyed surface assembly, before it moved to integer ids.
CATALOG_PINS = [
    (["verify-catalog"], "ed64c17e5e1fcfc6a09bf6b2fb4320591934bd0a10fdf2c8309077d3fa0d4edb"),
    (["verify-catalog", "--json"], "28c8809e636cb88ee5a8adf0676f30a75a04d16cff7df0b0f2d94f88f819e0fb"),
    (["surface", "--entry", "1", "--all"], "a32aa0e1a2947f60c30bcc9d9b731e3c4596851e3727473e3412922616928656"),
    (["surface", "--entry", "2", "--all"], "c0981859aec1255d521387ed0de925ba2eb6a68b5532db1bcdf42f0b44c81b18"),
    (["surface", "--entry", "3", "--all"], "9adf5d39a1b722aa676438be2b555e9eb65304c5c87cf9273bef65193c6daf1c"),
    (["surface", "--entry", "4", "--all"], "097bf911f94fdb45f15789d581fc13ae586c47a9d6d8e3cdb3c985c5d72fce8f"),
    (["surface", "--entry", "5", "--all"], "4f959a889f910c673d4e94c659270f81e01b592124eea086c1827043b3c5406a"),
    (["surface", "--entry", "6", "--all"], "393002d4f932f7bc85e592a411854ef6292f37189cf3e0308ed9b324bea05419"),
    (["surface", "--entry", "7", "--all"], "eb55e6a620a9a7ff917ffd4c494ecafa75a4c86b98e09184dbc0021116db1e97"),
    (["surface", "--entry", "7p", "--all"], "5bba1ce0af4e3c49739977b80037d2bac9ed3ea130832e20032926cce46a344c"),
    (["surface", "--entry", "8", "--all"], "eca832d971e15ea7d427cf334767772e646e71ca384329637fdb6ac4191877db"),
    (["surface", "--entry", "9", "--all"], "480479a03666c59ae5a7841ca52135972613115de16b73812b3e3ac379decccd"),
    (["surface", "--entry", "10", "--all"], "b743d43935cd283908484178735ad67a12115f9e233196ebb070475126ea61f4"),
    (["surface", "--entry", "11", "--all"], "dcd1b58c85744db5ad39a2b7cb5e3492e6fe97b2200eb06662b5c2cde060b0fc"),
    (["surface", "--entry", "12", "--all"], "d7aafab504d8500be3592e92f7287bfe9698040de18dc06ef6104be214793882"),
    (["surface", "--entry", "13", "--all"], "8811907f3a6f6f6f915591022f34e479e514614fc5d6bf2550d03cea06a04ea4"),
    (["surface", "--entry", "14", "--all"], "135b48b6b27854bec107751327f95bcee357a7e47165973c2f5ff1983d10fe3b"),
    (["surface", "--entry", "15", "--all"], "17cd244f766e371f1487f0cd40814ecfe460938531d4aab4b912afd0c3d2adea"),
    (["surface", "--entry", "16", "--all"], "6ef3c689268b61e7c2c720e2ca5f98352f18c662f680aa3f9dfb346eb6672dbd"),
    (["surface", "--entry", "17", "--all"], "cd18ff295c92019140ffdb2e51dea797373d59faf3d94aee8ab9fc0ecec3d20b"),
]


@pytest.mark.parametrize(
    "argv, digest", CATALOG_PINS, ids=[" ".join(argv) for argv, _ in CATALOG_PINS]
)
def test_catalog_stdout_is_pinned(capsys, argv, digest):
    """The stdout bytes of ``verify-catalog`` and of ``surface`` on every
    catalog entry are fixed: a change to assembly or invariants must print
    the same plans and surfaces."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_search_deeper_than_recursion_limit_decomposes(tmp_path):
    """A 120-node path under a recursion limit of 100: the search keeps its
    own stack, so the one plan is found."""
    path = tmp_path / "path.txt"
    path.write_text("nodes 120\n" + "".join(f"edge {i} {i + 1} 1\n" for i in range(119)))
    script = (
        "import sys\n"
        "from blockdec.cli import main\n"
        "sys.setrecursionlimit(100)\n"
        f"sys.exit(main(['decompose', {str(path)!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert "count 1" in proc.stdout.splitlines()
    assert sum(line.startswith("plan ") for line in proc.stdout.splitlines()) == 1
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# packaging
# ---------------------------------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "blockdec", "sweep", "--max-nodes", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "classes 0" in proc.stdout
    assert "elapsed" in proc.stderr
