import itertools
import json

import pytest

from mayerpath.complexes import (
    DuplicateEdge,
    EmptySimplex,
    MalformedLine,
    SelfLoop,
    digraph_from_json,
    face,
    parse_digraph,
    parse_simplices,
    path_complex_from_digraph,
    path_complex_from_simplicial,
)
from mayerpath.boundary import _group_ring_power
from mayerpath.fixtures import fixture_text, load_fixture


def test_parse_triangle_with_shortcut():
    g = parse_digraph("1 2\n1 3\n2 3")
    assert g.labels == ("1", "2", "3")
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(SelfLoop) as exc:
        parse_digraph("1 2\n1 1")
    assert exc.value.lineno == 2
    with pytest.raises(DuplicateEdge) as exc:
        parse_digraph("1 2\n1 2")
    assert exc.value.lineno == 2
    with pytest.raises(MalformedLine):
        parse_digraph("1 2 3")


def test_comments_and_blank_lines_ignored():
    g = parse_digraph("# heading\n\n1 2  # trailing\n\n2 3\n")
    assert len(g.edges) == 2


def test_json_digraph():
    g = digraph_from_json({"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]})
    assert g.labels == ("1", "2", "3")
    assert g.edges == ((0, 1), (1, 2))


def test_diamond_dimensions(diamond):
    assert [len(diamond.paths(n)) for n in range(4)] == [4, 5, 4, 1]
    assert diamond.paths(3) == ((0, 1, 2, 3),)
    assert len(diamond.paths(4)) == 0


def test_double_edge_walks():
    P = path_complex_from_digraph(parse_digraph("1 2\n2 1"), 2)
    assert P.paths(2) == ((0, 1, 0), (1, 0, 1))


def test_edgeless_graph():
    g = digraph_from_json({"vertices": ["a", "b", "c"], "edges": []})
    P = path_complex_from_digraph(g, 2)
    assert len(P.paths(0)) == 3
    assert P.paths(1) == ()
    assert P.paths(2) == ()


def test_simplicial_triangle_power_set():
    P = path_complex_from_simplicial([("1", "2", "3")])
    assert P.paths(0) == ((0,), (1,), (2,))
    assert P.paths(1) == ((0, 1), (0, 2), (1, 2))
    assert P.paths(2) == ((0, 1, 2),)
    assert P.paths(3) == ()


def test_simplicial_disjoint_edges_closure():
    P = path_complex_from_simplicial([("1", "2"), ("3", "4")])
    assert len(P.paths(0)) == 4
    assert len(P.paths(1)) == 2
    assert P.check_closure(2)


def test_empty_simplex_rejected():
    with pytest.raises(EmptySimplex):
        path_complex_from_simplicial([])
    with pytest.raises(MalformedLine):
        parse_simplices("1 1 2")


def test_torus_counts_against_independent_enumeration(torus):
    assert [len(torus.paths(n)) for n in range(4)] == [7, 21, 14, 0]
    # independent face enumeration straight from the fixture text
    simplices = [tuple(line.split()) for line in fixture_text("torus_minimal").splitlines()
                 if line.strip() and not line.startswith("#")]
    faces = {k: set() for k in (1, 2, 3)}
    for s in simplices:
        for k in (1, 2, 3):
            for sub in itertools.combinations(sorted(s, key=int), k):
                faces[k].add(sub)
    assert (len(faces[1]), len(faces[2]), len(faces[3])) == (7, 21, 14)
    # each edge of a closed surface triangulation lies in exactly two triangles
    for e in faces[2]:
        count = sum(1 for t in faces[3] if set(e) <= set(t))
        assert count == 2


def test_closure_property_on_fixtures():
    for name in ("diamond", "theta", "trapezohedron_m2", "braid", "torus_minimal"):
        P = load_fixture(name)
        assert P.check_closure(3), name


def test_edge_and_vertex_counts_match_input(diamond):
    assert len(diamond.paths(0)) == 4
    assert len(diamond.paths(1)) == 5


def _is_regular(p):
    """Reference: no two consecutive vertices coincide."""
    return all(a != b for a, b in zip(p, p[1:]))


def test_face_and_regularity_helpers():
    assert face((1, 2, 3, 4), 1) == (1, 3, 4)
    with pytest.raises(IndexError):
        face((1, 2), 5)
    assert _is_regular((1, 2, 1))
    assert not _is_regular((1, 2, 2))
    # the regular boundary keeps exactly the regular faces: (1, 1) is dropped
    faces = {face((1, 2, 1), j) for j in range(3)}
    assert set(_group_ring_power((1, 2, 1), 1, 3)) == {f for f in faces if _is_regular(f)}


def test_is_allowed(diamond):
    assert diamond.is_allowed((0, 1))       # edge 1->2
    assert not diamond.is_allowed((0, 3))   # no edge 1->4
    assert diamond.is_allowed((0, 1, 2, 3))


def test_digest_is_stable_and_label_sensitive():
    g1 = parse_digraph("1 2\n2 3")
    g2 = parse_digraph("1 2\n2 3")
    g3 = parse_digraph("2 3\n1 2")
    P1 = path_complex_from_digraph(g1, 2)
    P2 = path_complex_from_digraph(g2, 2)
    P3 = path_complex_from_digraph(g3, 2)
    assert P1.digest() == P2.digest() == P3.digest()  # same edge set
    g4 = parse_digraph("1 2\n2 4")
    assert path_complex_from_digraph(g4, 2).digest() != P1.digest()


def test_path_label_rendering(diamond):
    assert diamond.path_label((0, 1, 2)) == "e_{1,2,3}"
