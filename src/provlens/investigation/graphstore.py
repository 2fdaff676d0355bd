"""Read-only access to the investigated provenance graph plus its node
embeddings for the agents. An investigation covers exactly one graph."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..encoder import EncoderParams, forward
from ..features import SemanticVocab, feature_matrix
from ..ingest import Entity, ProvenanceGraph


@dataclass
class GraphStore:
    """``graph`` and ``embeddings``, its (nodes × d) ``forward`` matrix whose
    row i embeds node row i."""
    graph: ProvenanceGraph
    embeddings: np.ndarray

    @classmethod
    def build(cls, graphs, params: EncoderParams, vocab: SemanticVocab,
              op_vocab) -> "GraphStore":
        """The store of the one graph in ``graphs``, embedded by ``params``;
        another count raises ValueError."""
        if len(graphs) != 1:
            raise ValueError(f"an investigation covers one graph, "
                             f"got {len(graphs)}")
        graph = graphs[0]
        return cls(graph, forward(graph, feature_matrix(graph, vocab,
                                                        op_vocab)[1], params))

    def target(self, lead: dict) -> Entity | None:
        """The node ``lead`` names, or None when it names another graph or a
        uuid this graph does not hold."""
        if lead["graph_name"] != self.graph.name:
            return None
        return self.graph.nodes.get(lead["node_uuid"])

    def neighborhood(self, uuid: str, cap: int) -> list[dict]:
        """The node's 1-hop neighborhood: the ``cap`` incident edges ranked by
        weight, recency, then (src, dst, operation), listed in row order."""
        graph, incidence = self.graph, self.graph.incidence
        row, edges = incidence.row_of[uuid], incidence.of(uuid).tolist()
        # Positions follow rows, and rows and indices follow sorted names.
        ranked = sorted(range(len(edges)), key=lambda i: (
            -edges[i][5], -edges[i][4], edges[i][0], edges[i][1], edges[i][2]))
        entries = []
        for i in sorted(ranked[:cap]):
            src, dst, op, first, last, weight = edges[i]
            other, direction = (dst, "out") if src == row else (src, "in")
            other_node = incidence.nodes[other]
            entries.append({
                "node_uuid": other_node.uuid,
                "identity": other_node.identity,
                "kind": other_node.kind,
                "operation": graph.operations[op],
                "direction": direction,
                "weight": weight,
                "first_ts": first,
                "last_ts": last,
            })
        return entries
