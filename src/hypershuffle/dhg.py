"""Line-oriented ``.dhg`` text format.

Grammar (UTF-8, one statement per line, ``#`` starts a comment):

    vertices <name> <name> ...
    arc <tok> <tok> ... -> <tok> ...

``vertices`` lines declare labels in order; several lines accumulate.  Each
``arc`` line declares one hyperarc, with multiplicity encoded by repeating a
token.  Serialization is canonical (sorted tokens, sorted arc lines), so
serialize∘parse is a fixed point on canonical forms.
"""

from __future__ import annotations

import re

from .hypergraph import DirectedHypergraph, canonicalize, hypergraph


_TOKEN = re.compile(r"\S+")


class DhgParseError(ValueError):
    def __init__(self, message: str, line: int, column: int | None = None):
        at = f"line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message} ({at})")
        self.line = line
        self.column = column


def parse_dhg(text: str) -> DirectedHypergraph:
    labels: list[str] = []
    index: dict[str, int] = {}
    arcs: list[tuple[list[int], list[int]]] = []
    saw_arc = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        # Tokens with their 1-based columns in the raw line.
        code = raw.split("#", 1)[0]
        spans = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(code)]
        if not spans:
            continue
        tokens = [tok for tok, _ in spans]
        keyword = tokens[0]
        if keyword == "vertices":
            if saw_arc:
                raise DhgParseError("vertices line after arc lines", lineno)
            for name in tokens[1:]:
                if name in index:
                    raise DhgParseError(f"duplicate vertex name {name!r}", lineno)
                index[name] = len(labels)
                labels.append(name)
        elif keyword == "arc":
            saw_arc = True
            if "->" not in tokens[1:]:
                raise DhgParseError("arc line is missing '->'", lineno)
            arrow = tokens.index("->")
            tail_toks, head_toks = tokens[1:arrow], tokens[arrow + 1 :]
            if not tail_toks or not head_toks:
                raise DhgParseError("arc must have a nonempty tail and head", lineno)
            for tok, col in spans[1:arrow] + spans[arrow + 1 :]:
                if tok == "->":
                    raise DhgParseError("arc line has more than one '->'", lineno)
                if tok not in index:
                    raise DhgParseError(f"unknown vertex {tok!r}", lineno, col)
            arcs.append(
                ([index[t] for t in tail_toks], [index[t] for t in head_toks])
            )
        else:
            raise DhgParseError(f"unknown statement {keyword!r}", lineno)

    return hypergraph(len(labels), arcs, labels or None)


def serialize_dhg(H: DirectedHypergraph) -> str:
    """Canonical text: one vertices line, then arc lines in sorted order."""
    H = canonicalize(H)
    names = [H.vertex_name(v) for v in range(H.n_vertices)]
    lines = ["vertices " + " ".join(names)]
    for tail, head in H.arcs:
        lines.append(
            "arc "
            + " ".join(names[v] for v in tail)
            + " -> "
            + " ".join(names[v] for v in head)
        )
    return "\n".join(lines) + "\n"


def split_dhg_stream(text: str) -> list[str]:
    """Split a concatenation of documents at each fresh ``vertices`` block.

    A new document starts at a ``vertices`` line that follows at least one
    ``arc`` line.  Used for multi-sample output files.
    """
    docs: list[list[str]] = [[]]
    saw_arc = False
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped.startswith("vertices") and saw_arc:
            docs.append([])
            saw_arc = False
        if stripped.startswith("arc"):
            saw_arc = True
        docs[-1].append(raw)
    return ["\n".join(doc) + "\n" for doc in docs if any(s.strip() for s in doc)]
