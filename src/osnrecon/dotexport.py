"""DOT rendering of a reconstructed friendship graph.

Node fill colors encode roles; node and edge order is sorted so output
is stable and diffable.
"""

from __future__ import annotations

from bisect import bisect_right

from .twohop import FriendshipGraph, Role

ROLE_COLORS = {
    Role.VICTIM: "green",
    Role.ONE_HOP: "mediumpurple",
    Role.TWO_HOP_RELEVANT: "orange",
    Role.TWO_HOP_SINGLE_EDGE: "grey",
}


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(graph: FriendshipGraph) -> str:
    lines = [
        "graph friendship {",
        "  node [style=filled];",
    ]
    nodes = sorted(graph.roles)
    quoted = {node: _quote(node) for node in nodes}
    for node in nodes:
        lines.append(f"  {quoted[node]} [fillcolor={ROLE_COLORS[graph.roles[node]]}];")
    # Each edge once, as a < b, in sorted (a, b) order.
    for a in nodes:
        near = sorted(graph.adj[a])
        if later := near[bisect_right(near, a):]:
            head = f"  {quoted[a]} -- "
            lines.append(head + (";\n" + head).join(map(quoted.__getitem__, later)) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"
