"""Digraphs, simplicial complexes and the path complexes they generate.

An elementary path is a plain tuple of interned vertex ids.  Allowed
n-paths of a digraph are the directed walks on n+1 vertices (consecutive
vertices differ because self-loops are banned; revisiting an earlier
vertex is fine, so a double edge yields walks like (i, j, i)).  Allowed
paths of a simplicial complex are its simplices read in ascending vertex
order.  Dimensions are enumerated lazily and cached, always in
lexicographic order of interned ids.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

Path = tuple[int, ...]


class ComplexError(ValueError):
    pass


class MalformedLine(ComplexError):
    def __init__(self, lineno: int, text: str):
        super().__init__(f"line {lineno}: malformed input: {text!r}")
        self.lineno = lineno


class SelfLoop(ComplexError):
    def __init__(self, lineno: int, label: str):
        super().__init__(f"line {lineno}: self-loop at vertex {label!r}")
        self.lineno = lineno


class DuplicateEdge(ComplexError):
    def __init__(self, lineno: int, u: str, v: str):
        super().__init__(f"line {lineno}: duplicate edge {u!r} -> {v!r}")
        self.lineno = lineno


class EmptySimplex(ComplexError):
    pass


@dataclass(frozen=True)
class Digraph:
    """Simple directed graph: interned vertices, no loops, no multi-edges."""

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise SelfLoop(0, self.labels[u])
        if len(set(self.edges)) != len(self.edges):
            raise ComplexError("duplicate edges")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def successors(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {i: [] for i in range(self.n)}
        for u, v in self.edges:
            out[u].append(v)
        return {u: tuple(sorted(vs)) for u, vs in out.items()}

    def relabel(self, perm: dict[str, str]) -> "Digraph":
        """New digraph whose vertex labels are mapped through perm."""
        new_labels = tuple(perm[l] for l in self.labels)
        return Digraph(new_labels, self.edges)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.labels),
            "edges": [[self.labels[u], self.labels[v]] for u, v in self.edges],
        }


def _tokenized_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line.split()


def parse_digraph(text: str) -> Digraph:
    """Parse whitespace-separated "u v" edge lines; '#' starts a comment."""
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    def intern(label: str) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for lineno, tokens in _tokenized_lines(text):
        if len(tokens) != 2:
            raise MalformedLine(lineno, " ".join(tokens))
        if tokens[0] == tokens[1]:
            raise SelfLoop(lineno, tokens[0])
        u, v = intern(tokens[0]), intern(tokens[1])
        if (u, v) in seen:
            raise DuplicateEdge(lineno, tokens[0], tokens[1])
        seen.add((u, v))
        edges.append((u, v))
    return Digraph(tuple(labels), tuple(edges))


def digraph_from_json(data: dict) -> Digraph:
    """Digraph from ``{"vertices": [...], "edges": [[u, v], ...]}``."""
    vertices, edge_list = data.get("vertices", []), data["edges"]
    if not isinstance(vertices, list) or not isinstance(edge_list, list):
        raise ComplexError("'vertices' and 'edges' must be JSON lists")
    labels: list[str] = []
    index: dict[str, int] = {}

    def intern(label) -> int:
        key = str(label)
        if key not in index:
            index[key] = len(labels)
            labels.append(key)
        return index[key]

    for v in vertices:
        intern(v)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for i, pair in enumerate(edge_list, start=1):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ComplexError(f"edge {i}: expected a [source, target] pair, got {pair!r}")
        u, v = pair
        if str(u) == str(v):
            raise SelfLoop(i, str(u))
        e = (intern(u), intern(v))
        if e in seen:
            raise DuplicateEdge(i, str(u), str(v))
        seen.add(e)
        edges.append(e)
    return Digraph(tuple(labels), tuple(edges))


def _label_sort_key(label: str):
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)


def parse_simplices(text: str) -> list[tuple[str, ...]]:
    """Each non-comment line is one maximal simplex of vertex labels."""
    simplices = []
    for lineno, tokens in _tokenized_lines(text):
        if not tokens:
            raise EmptySimplex(f"line {lineno}: empty simplex")
        if len(set(tokens)) != len(tokens):
            raise MalformedLine(lineno, " ".join(tokens))
        simplices.append(tuple(tokens))
    if not simplices:
        raise EmptySimplex("no simplices in input")
    return simplices


def face(p: Path, j: int) -> Path:
    """The path with the j-th vertex removed."""
    if not 0 <= j < len(p):
        raise IndexError(f"face index {j} out of range for {p}")
    return p[:j] + p[j + 1:]


class PathComplex:
    """Allowed elementary paths per dimension, closed under end truncations."""

    def __init__(self, labels: tuple[str, ...], source: str, payload: dict):
        self.labels = labels
        self.source = source  # "digraph" | "simplicial"
        self._payload = payload
        self._dims: dict[int, tuple[Path, ...]] = {}
        self._sets: dict[int, frozenset[Path]] = {}
        self._memo: dict = {}  # engine-level caches keyed by downstream code

    # -- construction ---------------------------------------------------

    @classmethod
    def from_digraph(cls, g: Digraph, max_dim: int = 3) -> "PathComplex":
        pc = cls(g.labels, "digraph", {"digraph": g})
        pc._dims[0] = tuple((i,) for i in range(g.n))
        # warm the cache up to max_dim; deeper dims are computed on demand
        for n in range(1, max_dim + 1):
            pc.paths(n)
        return pc

    @classmethod
    def from_simplicial(cls, maximal_simplices: list[tuple[str, ...]]) -> "PathComplex":
        if not maximal_simplices or any(len(s) == 0 for s in maximal_simplices):
            raise EmptySimplex("simplices must be nonempty")
        vertices = sorted({v for s in maximal_simplices for v in s}, key=_label_sort_key)
        index = {v: i for i, v in enumerate(vertices)}
        by_dim: dict[int, set[Path]] = {}
        from itertools import combinations

        for simplex in maximal_simplices:
            ids = tuple(sorted(index[v] for v in simplex))
            for k in range(1, len(ids) + 1):
                for sub in combinations(ids, k):
                    by_dim.setdefault(k - 1, set()).add(sub)
        pc = cls(tuple(vertices), "simplicial",
                 {"simplices": sorted({tuple(sorted(index[v] for v in s))
                                       for s in maximal_simplices})})
        top = max(by_dim)
        for n in range(top + 1):
            pc._dims[n] = tuple(sorted(by_dim.get(n, ())))
        pc._payload["top_dim"] = top
        return pc

    # -- enumeration ------------------------------------------------------

    def paths(self, n: int) -> tuple[Path, ...]:
        """All allowed n-paths (lexicographic by interned ids)."""
        if n < 0:
            return ()
        if n in self._dims:
            return self._dims[n]
        if self.source == "simplicial":
            return ()
        succ = self._payload["digraph"].successors()
        prev = self.paths(n - 1)
        out = [p + (w,) for p in prev for w in succ[p[-1]]]
        result = tuple(sorted(out))
        self._dims[n] = result
        return result

    def allowed_set(self, n: int) -> frozenset[Path]:
        if n not in self._sets:
            self._sets[n] = frozenset(self.paths(n))
        return self._sets[n]

    def is_allowed(self, p: Path) -> bool:
        return p in self.allowed_set(len(p) - 1)

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.allowed_set(1)

    def path_label(self, p: Path) -> str:
        """Render a path in e-notation with the original labels."""
        return "e_{" + ",".join(self.labels[i] for i in p) + "}"

    def check_closure(self, max_dim: int) -> bool:
        """Both end truncations of every allowed path are allowed."""
        for n in range(1, max_dim + 1):
            lower = self.allowed_set(n - 1)
            for p in self.paths(n):
                if p[:-1] not in lower or p[1:] not in lower:
                    return False
        return True

    # -- identity ----------------------------------------------------------

    def digest(self) -> str:
        if self.source == "digraph":
            g = self._payload["digraph"]
            blob = {"kind": "digraph", "vertices": sorted(g.labels),
                    "edges": sorted([g.labels[u], g.labels[v]] for u, v in g.edges)}
        else:
            blob = {"kind": "simplicial", "vertices": list(self.labels),
                    "simplices": [list(s) for s in self._payload["simplices"]]}
        raw = json.dumps(blob, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(raw).hexdigest()[:16]


def path_complex_from_digraph(g: Digraph, max_dim: int = 3) -> PathComplex:
    return PathComplex.from_digraph(g, max_dim)


def path_complex_from_simplicial(maximal_simplices: list[tuple[str, ...]]) -> PathComplex:
    return PathComplex.from_simplicial(maximal_simplices)
