"""Tests for plan gluing: rules 1-4, the gluing state, plan keys, and the
text format."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from random import Random

import pytest

import blockdec
from blockdec.blocks import load_block_data
from blockdec.diagram import ALLOWED_WEIGHTS, QUIVER, S_DIAGRAM, canonical_key, make_diagram
from blockdec.gluing import (
    BLACK,
    WHITE,
    BadInstance,
    BlockInstance,
    CoverageViolation,
    GlueState,
    GluingError,
    MixedWeightClash,
    OverlapViolation,
    Plan,
    WeightClash,
    _resolve_pair,
    canonical_instance,
    glue,
    parse_plan,
    plan_key,
    serialize_plan,
    target_nets,
)
from blockdec.oracle import random_plan


@pytest.fixture(scope="module")
def data():
    return load_block_data()


def qplan(*instances):
    return Plan(QUIVER, tuple(BlockInstance(t, tuple(n)) for t, n in instances))


def splan(*instances):
    return Plan(S_DIAGRAM, tuple(BlockInstance(t, tuple(n)) for t, n in instances))


class TestBasicGlue:
    def test_single_spike(self, data):
        result = glue(data, qplan(("Spike", (0, 1))))
        assert result.diagram == make_diagram(2, [(1, 0, 1)])
        assert result.colors == (WHITE, WHITE)

    def test_single_triangle(self, data):
        result = glue(data, qplan(("Triangle", (0, 1, 2))))
        assert result.diagram == make_diagram(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        assert result.colors == (WHITE, WHITE, WHITE)

    def test_three_spikes_make_a_cycle(self, data):
        plan = qplan(("Spike", (1, 0)), ("Spike", (2, 1)), ("Spike", (0, 2)))
        result = glue(data, plan)
        assert result.diagram == make_diagram(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        assert result.colors == (BLACK, BLACK, BLACK)

    def test_infork_colors(self, data):
        result = glue(data, qplan(("Infork", (0, 1, 2))))
        assert result.diagram == make_diagram(3, [(1, 0, 1), (2, 0, 1)])
        assert result.colors == (WHITE, BLACK, BLACK)


class TestRuleFour:
    def test_parallel_spikes_merge_to_weight_four(self, data):
        """Two aligned unit arrows between the same nodes fuse to weight 4."""
        plan = qplan(("Spike", (0, 1)), ("Spike", (0, 1)))
        result = glue(data, plan)
        assert result.diagram == make_diagram(2, [(1, 0, 4)])
        assert result.colors == (BLACK, BLACK)

    def test_antiparallel_spikes_cancel_to_empty_diagram(self, data):
        """Opposite unit arrows cancel, leaving the empty two-node diagram."""
        plan = qplan(("Spike", (0, 1)), ("Spike", (1, 0)))
        result = glue(data, plan)
        assert result.diagram == make_diagram(2, [])
        assert result.colors == (BLACK, BLACK)

    def test_two_ii_blocks_make_weight2_cycle(self, data):
        # Two II blocks chained into a 4-cycle of weight-2 edges; their unit
        # arrows run opposite ways across the (0, 2) diagonal and cancel.
        plan = splan(("II", (0, 1, 2)), ("II", (2, 3, 0)))
        result = glue(data, plan)
        assert result.diagram == make_diagram(
            4, [(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 0, 2)], mode=S_DIAGRAM
        )
        assert result.colors == (BLACK,) * 4

    def test_unit_plus_ii_makes_weight4(self, data):
        plan = splan(("II", (0, 1, 2)), ("Spike", (0, 2)))
        # II: 0->1 w2, 1->2 w2, 2->0 w1; Spike(0,2): 2->0 w1; net pair (0,2)=w4.
        result = glue(data, plan)
        assert result.diagram == make_diagram(
            3, [(0, 1, 2), (1, 2, 2), (2, 0, 4)], mode=S_DIAGRAM
        )
        assert result.colors == (BLACK, BLACK, BLACK)

    def test_weight2_cancellation_against_ii(self, data):
        # II(0,1,2): 0->1 w2, 1->2 w2, 2->0 w1; Spike(2,0): 0->2 w1 cancels 2->0.
        plan = splan(("II", (0, 1, 2)), ("Spike", (2, 0)))
        result = glue(data, plan)
        assert result.diagram == make_diagram(3, [(0, 1, 2), (1, 2, 2)], mode=S_DIAGRAM)
        assert result.colors == (BLACK, BLACK, BLACK)


class TestUnfoldingGlues:
    def test_g16_by_ia_ib(self, data):
        # a=0, o=1, b=2: 0->1 w2, 1->2 w2.
        plan = splan(("Ia", (1, 0)), ("Ib", (1, 2)))
        result = glue(data, plan)
        assert result.diagram == make_diagram(3, [(0, 1, 2), (1, 2, 2)], mode=S_DIAGRAM)
        assert result.colors == (BLACK, BLACK, BLACK)

    def test_g17_by_single_iv(self, data):
        # a=0, o=1, b=2: 0->1 w2, 1->2 w2, 2->0 w4 via IV(u=1, w=2, p=0).
        result = glue(data, splan(("IV", (1, 2, 0))))
        assert result.diagram == make_diagram(
            3, [(0, 1, 2), (1, 2, 2), (2, 0, 4)], mode=S_DIAGRAM
        )
        assert result.colors == (BLACK, WHITE, BLACK)

    def test_v_block_standalone(self, data):
        result = glue(data, splan(("V", (0, 1, 2, 3, 4))))
        assert result.colors == (BLACK,) * 5
        assert canonical_key(result.diagram) == canonical_key(
            data.template("V").diagram()
        )


class TestRuleViolations:
    def test_three_blocks_on_one_node(self, data):
        plan = qplan(("Spike", (0, 1)), ("Spike", (0, 2)), ("Spike", (0, 3)))
        with pytest.raises(OverlapViolation):
            glue(data, plan)

    def test_black_slot_not_shareable(self, data):
        plan = qplan(("Infork", (0, 1, 2)), ("Spike", (1, 3)))
        with pytest.raises(OverlapViolation):
            glue(data, plan)

    def test_gap_in_coverage(self, data):
        with pytest.raises(CoverageViolation):
            glue(data, qplan(("Spike", (0, 2))))

    def test_huge_node_id_is_reported_in_plan_sized_space(self, data):
        """Two slots cannot cover ids 0..10**6: one short coverage violation,
        found before any per-node state is allocated."""
        plan = qplan(("Spike", (0, 1_000_000)))
        tracemalloc.start()
        try:
            with pytest.raises(CoverageViolation) as info:
                glue(data, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(str(info.value)) < 100
        assert peak < 1_000_000

    def test_empty_plan(self, data):
        with pytest.raises(CoverageViolation):
            glue(data, Plan(QUIVER, ()))

    def test_unfolding_block_rejected_in_quiver_mode(self, data):
        with pytest.raises(BadInstance):
            glue(data, qplan(("Ia", (0, 1))))

    def test_wrong_arity(self, data):
        with pytest.raises(BadInstance):
            glue(data, qplan(("Triangle", (0, 1))))

    def test_repeated_node_within_instance(self, data):
        with pytest.raises(BadInstance):
            glue(data, qplan(("Spike", (0, 0))))

    def test_unknown_tag(self, data):
        with pytest.raises(BadInstance):
            glue(data, qplan(("Pentagon", (0, 1))))

    @pytest.mark.parametrize(
        "instances, error, message",
        [
            (
                [("Infork", (0, 1, 2)), ("Spike", (1, 4))],
                OverlapViolation,
                "node 1 is shared through a black slot",
            ),
            (
                [("Pentagon", (0, 1)), ("Triangle", (0, 1))],
                BadInstance,
                "unknown block tag 'Pentagon'",
            ),
            (
                [("Ia", (0, 1, 2, 3, 4, 5))],
                BadInstance,
                "block Ia is not usable in quiver mode",
            ),
            (
                [("Spike", (0, 1)), ("Spike", (0, 2)), ("Spike", (0, 3)), ("Spike", (5, 6))],
                OverlapViolation,
                "node 0 is covered by 3 blocks",
            ),
            (
                [("Spike", (0, 2)), ("Spike", (1, 1))],
                BadInstance,
                "block Spike placed on repeated node (1, 1)",
            ),
        ],
    )
    def test_first_fault_is_raised(self, data, instances, error, message):
        """A plan with several faults raises the first one checked: instance
        by instance, then overlaps in node order, then uncovered nodes."""
        with pytest.raises(GluingError) as info:
            glue(data, qplan(*instances))
        assert type(info.value) is error
        assert str(info.value) == message


def random_plans(data, mode, count=200):
    rng = Random(f"glue-state:{mode}")
    return [random_plan(data, mode, rng) for _ in range(count)]


def snapshot(state):
    return state.covers, state.blacks, state.nets


@pytest.mark.parametrize("mode", [QUIVER, S_DIAGRAM])
class TestGlueState:
    def test_pop_undoes_push(self, data, mode):
        for plan in random_plans(data, mode):
            state = GlueState.of(data, plan)
            fresh = GlueState(data, len(state.covers))
            assert sum(state.covers) == sum(len(i.nodes) for i in plan.instances)
            popped = [state.pop() for _ in plan.instances]
            assert popped == list(reversed(plan.instances))
            assert snapshot(state) == snapshot(fresh)
            assert state.stack == []

    def test_push_order_does_not_matter(self, data, mode):
        for plan in random_plans(data, mode):
            forward = GlueState.of(data, plan)
            backward = GlueState.of(
                data, Plan(plan.mode, tuple(reversed(plan.instances)))
            )
            assert snapshot(forward) == snapshot(backward)


class TestResidualResolution:
    def test_legal_nets(self):
        assert _resolve_pair(0, 0) == (0, 0)
        assert _resolve_pair(1, 0) == (1, 1)
        assert _resolve_pair(-1, 0) == (-1, 1)
        assert _resolve_pair(2, 0) == (1, 4)
        assert _resolve_pair(0, -2) == (-1, 2)
        assert _resolve_pair(0, 4) == (1, 4)

    def test_mixed_net_rejected(self):
        with pytest.raises(MixedWeightClash):
            _resolve_pair(1, 2)

    def test_overweight_net_rejected(self):
        with pytest.raises(WeightClash):
            _resolve_pair(0, 6)

    @staticmethod
    def preimage(edge: tuple[int, int]) -> set[tuple[int, int]]:
        """The nets within six arrows either way that rule 4 maps to ``edge``."""
        nets = set()
        for unit in range(-6, 7):
            for heavy in range(-6, 7):
                try:
                    if _resolve_pair(unit, heavy) == edge:
                        nets.add((unit, heavy))
                except GluingError:
                    pass
        return nets

    @pytest.mark.parametrize("weight", sorted(ALLOWED_WEIGHTS[S_DIAGRAM]))
    @pytest.mark.parametrize("src, dst, direction", [(0, 1, 1), (1, 0, -1)])
    def test_target_nets_are_the_preimage_of_rule_4(self, weight, src, dst, direction):
        diagram = make_diagram(2, [(src, dst, weight)], S_DIAGRAM)
        nets = target_nets(diagram)
        assert set(nets) == {(0, 1)}
        assert set(nets[(0, 1)]) == self.preimage((direction, weight))

    def test_no_edge_means_only_the_empty_net(self):
        assert target_nets(make_diagram(2, [], S_DIAGRAM)) == {}
        assert self.preimage((0, 0)) == {(0, 0)}


class TestPlanKeys:
    def test_triangle_rotation_same_key(self, data):
        k1 = plan_key(data, qplan(("Triangle", (0, 1, 2))))
        k2 = plan_key(data, qplan(("Triangle", (1, 2, 0))))
        assert k1 == k2

    def test_triangle_reflection_different_key(self, data):
        k1 = plan_key(data, qplan(("Triangle", (0, 1, 2))))
        k2 = plan_key(data, qplan(("Triangle", (0, 2, 1))))
        assert k1 != k2

    def test_infork_tail_swap_same_key(self, data):
        k1 = plan_key(data, qplan(("Infork", (0, 1, 2))))
        k2 = plan_key(data, qplan(("Infork", (0, 2, 1))))
        assert k1 == k2

    def test_spike_direction_matters(self, data):
        assert plan_key(data, qplan(("Spike", (0, 1)))) != plan_key(
            data, qplan(("Spike", (1, 0)))
        )

    def test_instance_order_ignored(self, data):
        k1 = plan_key(data, qplan(("Spike", (0, 1)), ("Spike", (2, 1))))
        k2 = plan_key(data, qplan(("Spike", (2, 1)), ("Spike", (0, 1))))
        assert k1 == k2

    def test_key_format(self, data):
        key = plan_key(data, qplan(("Spike", (0, 1))))
        assert key == "quiver|Spike:0,1"

    def test_canonical_instance(self, data):
        inst = canonical_instance(data, BlockInstance("Infork", (5, 9, 2)))
        assert inst == BlockInstance("Infork", (5, 2, 9))


class TestPlanText:
    def test_round_trip(self, data):
        plan = splan(("II", (0, 1, 2)), ("Spike", (2, 0)))
        parsed = parse_plan(serialize_plan(plan))
        assert parsed == plan

    def test_parse_rejects_missing_mode(self):
        with pytest.raises(BadInstance, match="mode"):
            parse_plan("block Spike 0 1\n")

    def test_parse_rejects_bad_node_id(self):
        with pytest.raises(BadInstance, match="integers"):
            parse_plan("mode quiver\nblock Spike a b\n")

    def test_parse_ignores_comments(self):
        plan = parse_plan("# a plan\nmode quiver\nblock Spike 0 1  # spike\n")
        assert plan == qplan(("Spike", (0, 1)))


# The package's module order, as in the ``blocks`` docstring: a module
# imports only modules of layers before its own.
MODULE_LAYERS = [
    ("diagram",), ("gluing",), ("blocks",), ("decompose", "oracle", "surface"), ("catalog",), ("cli",)
]


@pytest.mark.parametrize("module", [module for layer in MODULE_LAYERS for module in layer])
def test_import_loads_no_later_module(module):
    """The modules import one way: a fresh interpreter that imports one of
    them has loaded no module of a later layer."""
    rank = next(i for i, layer in enumerate(MODULE_LAYERS) if module in layer)
    later = [m for layer in MODULE_LAYERS[rank + 1:] for m in layer]
    code = (
        f"import sys, blockdec.{module}; "
        f"print(*[m for m in {later!r} if 'blockdec.' + m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(blockdec.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"blockdec.{module} loads {proc.stdout.strip()}"
