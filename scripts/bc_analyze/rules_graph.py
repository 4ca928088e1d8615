"""Graph-core encapsulation rule G1.

G1 dense-index-leak: the graph module interns PeerIds to dense NodeIndex
   slots for vector-addressed adjacency. Slot numbers are not peer
   identifiers — each graph hands them out in its own first-touch order, so
   the same slot names a *different* peer in another peer's graph — and
   any NodeIndex that escapes src/graph/ (into gossip, reputation
   bookkeeping, serialized state, ...) is a correctness bug waiting for
   the first cross-graph use. Consumers must stay on the PeerId API of
   FlowGraph.
"""

from __future__ import annotations

import re

from bc_analyze.model import Finding
from bc_analyze.source import SourceFile

DENSE_INDEX_RE = re.compile(
    r"\b(?:bc::)?(?:graph::)?(PeerIndex|NodeIndex|kNoNode)\b"
)
# Scanned against raw lines: include paths are string literals, which the
# code scrubber blanks.
PEER_INDEX_INCLUDE_RE = re.compile(
    r'#\s*include\s*["<]graph/peer_index\.hpp[">]'
)


def check_g1(sf: SourceFile) -> list[Finding]:
    out: list[Finding] = []
    for lineno, raw in enumerate(sf.raw_lines, start=1):
        if PEER_INDEX_INCLUDE_RE.search(raw):
            out.append(Finding(
                rule="G1", slug="dense-index-leak", path=sf.rel, line=lineno,
                message=("include of graph/peer_index.hpp outside"
                         " src/graph/: dense slot numbers are a private"
                         " detail of the graph core; consume the PeerId API"
                         " of FlowGraph instead"),
            ))
    for lineno, code in enumerate(sf.code_lines, start=1):
        for m in DENSE_INDEX_RE.finditer(code):
            out.append(Finding(
                rule="G1", slug="dense-index-leak", path=sf.rel, line=lineno,
                message=(f"dense graph internal `{m.group(1)}` outside"
                         " src/graph/: NodeIndex slots are per graph"
                         " (first-touch order) and are not peer"
                         " identifiers; use the PeerId API of FlowGraph"),
            ))
    return out
