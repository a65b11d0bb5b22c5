"""Graph representation of the eligible-pair set.

Section III-B2 reduces optimal pair selection to Maximum Weight Matching
on an undirected graph ``G = (V, E)`` where vertices are tokens, edges are
eligible pairs, and the weight of edge ``(v_i, v_j)`` is::

    w(e) = T - ((f_i - f_j) mod s_ij)

with ``T`` a constant larger than any remainder (the paper suggests any
value above the largest frequency difference among eligible pairs). Under
this weighting a *maximum*-weight matching simultaneously favours many
edges and small remainders, i.e. many watermarked pairs that are cheap to
embed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.blossom import max_weight_matching
from repro.core.eligibility import EligiblePair
from repro.core.tokens import TokenPair
from repro.exceptions import MatchingError


class PairEdge(NamedTuple):
    """Data of one eligible-pair edge.

    ``weight`` is ``T - cost`` (what MWM maximises), ``cost`` the number
    of appearance changes needed to watermark the pair and ``eligible``
    the originating :class:`EligiblePair`, so downstream stages recover
    the modulus without recomputing hashes.
    """

    weight: int
    cost: int
    eligible: EligiblePair


class PairGraph(NamedTuple):
    """The weighted eligible-pair graph.

    ``adjacency`` maps each token to ``{neighbour: weight}``; tokens are
    in order of first appearance and neighbours in edge order, the order
    :func:`repro.core.blossom.max_weight_matching` breaks ties by.
    ``edges`` maps ``(first, second)`` of each eligible pair, in edge
    order, to its :class:`PairEdge`.
    """

    adjacency: Dict[str, Dict[str, int]]
    edges: Dict[Tuple[str, str], PairEdge]


def choose_weight_offset(pairs: Sequence[EligiblePair]) -> int:
    """Pick the constant ``T`` used to convert remainders into weights.

    Any value strictly larger than every remainder (equivalently, every
    frequency difference) works; we use ``max difference + max modulus + 1``
    so weights stay positive even for degenerate inputs.
    """
    if not pairs:
        return 1
    max_difference = max(item.frequency_difference for item in pairs)
    max_modulus = max(item.modulus for item in pairs)
    return max_difference + max_modulus + 1


def build_pair_graph(
    pairs: Sequence[EligiblePair],
    *,
    weight_offset: Optional[int] = None,
) -> PairGraph:
    """Build the weighted eligible-pair graph.

    Edges are added in ``pairs`` order, each pair's first token before its
    second; a pair repeated in either orientation keeps its first position
    and takes the later data.
    """
    offset = choose_weight_offset(pairs) if weight_offset is None else weight_offset
    adjacency: Dict[str, Dict[str, int]] = {}
    edges: Dict[Tuple[str, str], PairEdge] = {}
    for item in pairs:
        cost = item.cost
        if cost >= offset:
            raise MatchingError(
                "weight offset T must exceed every pair cost; "
                f"got T={offset} <= cost={cost}"
            )
        u, v = item.pair.first, item.pair.second
        weight = offset - cost
        adjacency.setdefault(u, {})[v] = weight
        adjacency.setdefault(v, {})[u] = weight
        key = (v, u) if (v, u) in edges else (u, v)
        edges[key] = PairEdge(weight, cost, item)
    return PairGraph(adjacency, edges)


def maximum_weight_matching(graph: PairGraph) -> List[EligiblePair]:
    """Run Maximum Weight Matching and return the matched eligible pairs.

    Maximum cardinality mirrors the paper's objective of selecting as
    many pairs as possible: among maximum-cardinality matchings, the one
    with the largest total weight (smallest total cost) is returned.
    """
    if not graph.edges:
        return []
    mate = max_weight_matching(
        graph.adjacency,
        [(u, v, data.weight) for (u, v), data in graph.edges.items()],
    )
    matched = [
        data.eligible for (u, v), data in graph.edges.items() if mate.get(u) == v
    ]
    matched.sort(key=lambda item: (item.cost, item.pair))
    return matched


def matching_is_valid(pairs: Sequence[EligiblePair]) -> bool:
    """Check that no token appears in more than one selected pair."""
    seen: set = set()
    for item in pairs:
        if item.pair.first in seen or item.pair.second in seen:
            return False
        seen.add(item.pair.first)
        seen.add(item.pair.second)
    return True


def pairs_by_token(pairs: Sequence[EligiblePair]) -> Dict[str, TokenPair]:
    """Map each token participating in a matching to its pair."""
    index: Dict[str, TokenPair] = {}
    for item in pairs:
        index[item.pair.first] = item.pair
        index[item.pair.second] = item.pair
    return index


__all__ = [
    "PairEdge",
    "PairGraph",
    "choose_weight_offset",
    "build_pair_graph",
    "maximum_weight_matching",
    "matching_is_valid",
    "pairs_by_token",
]
