"""Differential tests of the in-tree blossom kernel against NetworkX.

:func:`repro.core.blossom.max_weight_matching` is a port of
``networkx.max_weight_matching(G, maxcardinality=True)`` that must break
ties the same way, so on every graph both return the same edge set — not
merely matchings of equal weight. Two sweeps check that: Hypothesis over
small graphs with weights in 1..4 (many ties), str/int labels and
shuffled edge insertion orders, and paper-scale eligible-pair graphs
(1M and 100k samples, several secrets). NetworkX is only the oracle here;
the package itself does not import it.

``FREQYWM_HYPOTHESIS_EXAMPLES`` raises the example count (CI's
backend-parity job runs it at 1000).
"""

from __future__ import annotations

import os
import random
from dataclasses import replace
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import blossom
from repro.core.blossom import max_weight_matching
from repro.core.eligibility import EligiblePair, generate_eligible_pairs
from repro.core.graph import build_pair_graph, choose_weight_offset, maximum_weight_matching
from repro.core.histogram import TokenHistogram
from repro.core.tokens import TokenPair
from repro.datasets.synthetic import PowerLawSpec, sampled_counts
from repro.exceptions import MatchingError

nx = pytest.importorskip("networkx")

_settings = settings(
    max_examples=int(os.environ.get("FREQYWM_HYPOTHESIS_EXAMPLES", "200")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

Edge = Tuple[object, object, object]


def build_adjacency(edges: Sequence[Edge]) -> Dict[object, Dict[object, object]]:
    """The adjacency ``nx.Graph.add_edge`` builds from ``edges``, in order.

    Nodes by first appearance (``u`` before ``v``), neighbours by edge
    order; a repeated edge keeps its position and takes the later weight.
    """
    adjacency: Dict[object, Dict[object, object]] = {}
    for u, v, weight in edges:
        adjacency.setdefault(u, {})[v] = weight
        adjacency.setdefault(v, {})[u] = weight
    return adjacency


def adjacency_edges(adjacency) -> List[Edge]:
    """Each undirected edge of ``adjacency`` once, as ``(u, v, weight)``."""
    seen = set()
    edges = []
    for u, neighbours in adjacency.items():
        edges.extend((u, v, weight) for v, weight in neighbours.items() if v not in seen)
        seen.add(u)
    return edges


def _oracle(edges: Sequence[Edge]) -> Set[FrozenSet]:
    graph = nx.Graph()
    for u, v, weight in edges:
        graph.add_edge(u, v, weight=weight)
    return {frozenset(edge) for edge in nx.max_weight_matching(graph, maxcardinality=True)}


def _kernel(edges: Sequence[Edge]) -> Set[FrozenSet]:
    adjacency = build_adjacency(edges)
    mate = max_weight_matching(adjacency, adjacency_edges(adjacency))
    assert all(mate[partner] == node for node, partner in mate.items())
    return {frozenset(pair) for pair in mate.items()}


@st.composite
def tie_heavy_graphs(draw) -> List[Edge]:
    """Small graphs, weights 1..4, in a shuffled insertion order."""
    size = draw(st.integers(min_value=1, max_value=20))
    kind = draw(st.sampled_from(["str", "int", "mixed"]))
    labels = [
        str(index) if kind == "str" or (kind == "mixed" and index % 2) else index
        for index in range(size)
    ]
    edges = draw(
        st.lists(
            st.tuples(
                st.sampled_from(labels),
                st.sampled_from(labels),
                st.integers(min_value=1, max_value=4),
            ),
            max_size=4 * size,
        )
    )
    return draw(st.permutations(edges))


class TestSmallGraphs:
    @_settings
    @given(edges=tie_heavy_graphs())
    def test_same_edge_set_as_networkx(self, edges):
        assert _kernel(edges) == _oracle(edges)

    def test_seeded_sweep_matches_networkx(self):
        # Ties that decide between S-blossoms need a few dozen vertices;
        # a seeded sweep reaches them more often than shrinking-friendly
        # Hypothesis draws do.
        rng = random.Random(20240513)
        for _ in range(2000):
            size = rng.randint(4, 24)
            edges = [
                (rng.randrange(size), rng.randrange(size), rng.randint(1, 4))
                for _ in range(rng.randint(size, 4 * size))
            ]
            assert _kernel(edges) == _oracle(edges), edges

    @pytest.mark.parametrize(
        "edges",
        [
            # Half-integer weights: NetworkX divides delta3 in floating
            # point and skips its optimality check; so must the port.
            [(1, 2, 1.5), (2, 3, 2.5), (3, 1, 2.0), (3, 4, 0.5)],
            [("a", "b", 2.0), ("b", "c", 2.0), ("c", "d", 2.0), ("d", "a", 2.0)],
        ],
    )
    def test_float_weights_match_networkx(self, edges):
        assert _kernel(edges) == _oracle(edges)

    def test_empty_adjacency(self):
        assert max_weight_matching({}, []) == {}

    def test_self_loops_are_never_matched(self):
        edges = [("a", "a", 9), ("a", "b", 1)]
        assert _kernel(edges) == {frozenset(("a", "b"))}


def _paper_scale_eligible(size: int, index: int) -> List[EligiblePair]:
    spec = PowerLawSpec(alpha=1.0, n_tokens=1000, sample_size=size)
    histogram = TokenHistogram(sampled_counts(spec, rng=9000 + index))
    return generate_eligible_pairs(histogram, 0x5EED0000 + 7919 * index + size, 131)


class TestPaperScale:
    @pytest.mark.parametrize(
        "size, index", [(1_000_000, 0), (1_000_000, 1), (100_000, 0), (100_000, 1), (100_000, 2)]
    )
    def test_selection_matches_networkx(self, size, index):
        eligible = _paper_scale_eligible(size, index)
        assert len(eligible) > 100
        offset = choose_weight_offset(eligible)
        expected = _oracle(
            [(item.pair.first, item.pair.second, offset - item.cost) for item in eligible]
        )
        matched = maximum_weight_matching(build_pair_graph(eligible))
        assert {frozenset((item.pair.first, item.pair.second)) for item in matched} == expected

    def test_pair_graph_follows_add_edge_order(self):
        # Ties resolve by vertex and neighbour order, so the pair graph
        # must list both exactly as nx.Graph.add_edge would.
        eligible = _paper_scale_eligible(100_000, 0)
        reversed_pair = TokenPair(eligible[5].pair.second, eligible[5].pair.first)
        flipped = replace(eligible[5], pair=reversed_pair)
        eligible += [eligible[3], flipped]
        pairs = build_pair_graph(eligible)
        offset = choose_weight_offset(eligible)
        graph = nx.Graph()
        for item in eligible:
            graph.add_edge(item.pair.first, item.pair.second, weight=offset - item.cost)
        assert list(pairs.adjacency) == list(graph)
        for node in graph:
            assert list(pairs.adjacency[node].items()) == [
                (neighbour, data["weight"]) for neighbour, data in graph[node].items()
            ]
        assert len(pairs.edges) == graph.number_of_edges()


class TestOptimalityCheck:
    def _run_with_corrupted_duals(self, monkeypatch, corrupt):
        check = blossom.verify_optimum

        def corrupted(nodes, edges, mate, dualvar, blossomparent, blossomdual):
            dualvar = dict(dualvar)
            corrupt(dualvar, mate)
            check(nodes, edges, mate, dualvar, blossomparent, blossomdual)

        monkeypatch.setattr(blossom, "verify_optimum", corrupted)
        edges = [("a", "b", 3), ("b", "c", 2), ("c", "d", 3), ("d", "a", 1)]
        adjacency = build_adjacency(edges)
        return max_weight_matching(adjacency, adjacency_edges(adjacency))

    def test_untouched_duals_pass(self, monkeypatch):
        mate = self._run_with_corrupted_duals(monkeypatch, lambda dualvar, mate: None)
        assert mate == {"a": "b", "b": "a", "c": "d", "d": "c"}

    def test_lowered_dual_gives_negative_slack(self, monkeypatch):
        def lower(dualvar, mate):
            dualvar["a"] -= 2

        with pytest.raises(MatchingError, match="slack"):
            self._run_with_corrupted_duals(monkeypatch, lower)

    def test_raised_dual_leaves_slack_on_a_matched_edge(self, monkeypatch):
        def raise_matched(dualvar, mate):
            for node in mate:
                dualvar[node] += 2

        with pytest.raises(MatchingError, match="matched edge"):
            self._run_with_corrupted_duals(monkeypatch, raise_matched)

    def test_check_needs_no_asserts(self):
        # The check raises MatchingError, so it still runs under -O.
        with pytest.raises(MatchingError):
            blossom.verify_optimum(
                ["a", "b"],
                [("a", "b", 3)],
                {"a": "b", "b": "a"},
                {"a": 1, "b": 1},
                {"a": None, "b": None},
                {},
            )
