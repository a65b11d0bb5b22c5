"""Unit tests for the eligible-pair graph and maximum weight matching."""

from __future__ import annotations

import pytest

from repro.core.eligibility import EligiblePair, generate_eligible_pairs
from repro.core.graph import (
    build_pair_graph,
    choose_weight_offset,
    matching_is_valid,
    maximum_weight_matching,
    pairs_by_token,
)
from repro.core.tokens import TokenPair
from repro.exceptions import MatchingError

SECRET = 424242
Z = 131


def _pair(first: str, second: str, modulus: int, remainder: int, difference: int) -> EligiblePair:
    return EligiblePair(
        pair=TokenPair(first, second),
        modulus=modulus,
        remainder=remainder,
        frequency_difference=difference,
    )


class TestGraphConstruction:
    def test_weight_offset_exceeds_costs(self):
        pairs = [_pair("a", "b", 100, 40, 140), _pair("c", "d", 50, 10, 60)]
        offset = choose_weight_offset(pairs)
        assert all(offset > item.cost for item in pairs)

    def test_empty_offset(self):
        assert choose_weight_offset([]) == 1

    def test_edges_carry_cost_and_eligible(self):
        pairs = [_pair("a", "b", 100, 40, 140)]
        graph = build_pair_graph(pairs)
        data = graph.edges[("a", "b")]
        assert data.cost == 40
        assert data.eligible is pairs[0]
        assert data.weight > 0
        assert graph.adjacency == {"a": {"b": data.weight}, "b": {"a": data.weight}}

    def test_invalid_offset_rejected(self):
        pairs = [_pair("a", "b", 100, 40, 140)]
        with pytest.raises(MatchingError):
            build_pair_graph(pairs, weight_offset=10)


class TestMaximumWeightMatching:
    def test_matching_is_vertex_disjoint(self, skewed_histogram):
        eligible = generate_eligible_pairs(skewed_histogram, SECRET, Z)
        graph = build_pair_graph(eligible)
        matched = maximum_weight_matching(graph)
        assert matching_is_valid(matched)
        assert matched  # a skewed histogram yields at least one matched pair

    def test_prefers_cheap_edges_on_conflict(self):
        # Triangle a-b-c: only one edge can be chosen; the cheapest must win.
        pairs = [
            _pair("a", "b", 100, 10, 110),
            _pair("b", "c", 100, 40, 140),
            _pair("a", "c", 100, 30, 130),
        ]
        matched = maximum_weight_matching(build_pair_graph(pairs))
        assert len(matched) == 1
        assert matched[0].pair == TokenPair("a", "b")

    def test_max_cardinality_beats_single_heavy_edge(self):
        # Path a-b-c-d: picking the middle edge alone is lighter-cost but
        # max-cardinality matching must take the two outer edges.
        pairs = [
            _pair("a", "b", 100, 30, 130),
            _pair("b", "c", 100, 1, 101),
            _pair("c", "d", 100, 30, 130),
        ]
        matched = maximum_weight_matching(build_pair_graph(pairs))
        assert len(matched) == 2
        assert {item.pair for item in matched} == {TokenPair("a", "b"), TokenPair("c", "d")}

    def test_empty_graph(self):
        assert maximum_weight_matching(build_pair_graph([])) == []


class TestHelpers:
    def test_matching_is_valid_detects_overlap(self):
        overlapping = [_pair("a", "b", 10, 1, 11), _pair("b", "c", 10, 1, 11)]
        assert not matching_is_valid(overlapping)

    def test_pairs_by_token(self):
        pairs = [_pair("a", "b", 10, 1, 11), _pair("c", "d", 10, 1, 11)]
        index = pairs_by_token(pairs)
        assert index["a"] == TokenPair("a", "b")
        assert index["d"] == TokenPair("c", "d")
