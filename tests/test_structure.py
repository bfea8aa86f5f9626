import random
from itertools import combinations

import pytest

from conftest import boundary_reference
from mayerpath.complexes import parse_digraph, path_complex_from_digraph
from mayerpath.cyclotomic import Scalar, zeta_power
from mayerpath.fixtures import DIGRAPH_FIXTURES, fixture_text, load_fixture
from mayerpath import structure
from mayerpath.linalg import Matrix, Subspace, nullspace
from mayerpath.omega import OmegaSpace, omega_full, omega_nq
from mayerpath.structure import (
    FaceType,
    GAMMA_PATTERNS,
    NotMayerForm,
    gamma_label,
    face_type,
    image_type,
    mayer_square_reduce,
    minimal_clusters,
    omega2_decompose,
    omega3_intersection_check,
    special_edges,
)


def interned(P, *labels):
    li = {l: i for i, l in enumerate(P.labels)}
    return tuple(li[l] for l in labels)


def test_face_types(diamond):
    assert face_type(diamond, interned(diamond, "1", "2", "4")) is FaceType.S
    ffl = load_fixture("ffl")
    assert face_type(ffl, interned(ffl, "1", "2", "3")) is FaceType.T
    loop4 = load_fixture("loop4")
    assert face_type(loop4, interned(loop4, "1", "4", "3")) is FaceType.W
    assert face_type(loop4, interned(loop4, "1", "2", "3")) is FaceType.NW


def test_face_types_match_a_scan_of_all_two_paths():
    # face_type looks alternative middles up by endpoint pair; the scan
    # over every allowed 2-path is the reference
    from conftest import random_digraph

    def scanned(P, f):
        a, mid, c = f
        if not P.is_allowed(f):
            return FaceType.NW
        if P.has_edge(a, c):
            return FaceType.T
        if any(alt[0] == a and alt[2] == c and alt[1] != mid for alt in P.paths(2)):
            return FaceType.S
        return FaceType.W

    rng = random.Random(717)
    complexes = [load_fixture(name) for name in DIGRAPH_FIXTURES]
    complexes += [path_complex_from_digraph(random_digraph(rng, allow_antiparallel=i % 2 == 1), 3)
                  for i in range(30)]
    seen = set()
    for P in complexes:
        faces = set(P.paths(2))
        faces |= {v[:t] + v[t + 1:] for v in P.paths(3) for t in range(4)}
        for f in sorted(faces):
            if f[0] != f[1] and f[1] != f[2]:
                seen.add(scanned(P, f))
                assert face_type(P, f) is scanned(P, f), (P.labels, f)
    assert seen == set(FaceType)


def test_shortcut_beats_square():
    # both the shortcut edge and an alternative middle exist: T wins
    g = parse_digraph("1 2\n1 3\n2 4\n3 4\n1 4")
    P = path_complex_from_digraph(g, 2)
    assert face_type(P, interned(P, "1", "2", "4")) is FaceType.T


def test_image_types():
    diamond = load_fixture("diamond")
    assert image_type(diamond, interned(diamond, "1", "2", "3", "4")) == \
        (FaceType.T, FaceType.S, FaceType.S, FaceType.T)
    assert gamma_label(diamond, interned(diamond, "1", "2", "3", "4")) == 8
    braid = load_fixture("braid")
    assert gamma_label(braid, interned(braid, "1", "2", "3", "4")) == 2
    assert gamma_label(braid, interned(braid, "1", "2", "6", "4")) == 7
    assert gamma_label(braid, interned(braid, "1", "5", "6", "4")) == 5
    complete = parse_digraph(
        "\n".join(f"{i} {j}" for i in range(1, 5) for j in range(1, 5) if i != j))
    Pk = path_complex_from_digraph(complete, 3)
    assert gamma_label(Pk, (0, 1, 2, 3)) == 9


def test_outer_faces_never_missing_on_fixtures():
    for name in ("diamond", "braid", "trapezohedron_m2", "theta"):
        P = load_fixture(name)
        for v in P.paths(3):
            t = image_type(P, v)
            assert t[0] is not FaceType.NW
            assert t[3] is not FaceType.NW


def test_omega2_decompose_diamond(diamond):
    gens = omega2_decompose(diamond, 3)
    assert sorted(g.kind for g in gens) == ["square", "triangle", "triangle"]
    square = next(g for g in gens if g.kind == "square")
    assert square.paths == (interned(diamond, "1", "2", "4"),
                            interned(diamond, "1", "3", "4"))


def test_omega2_decompose_double_edges():
    P = path_complex_from_digraph(parse_digraph("1 2\n2 1"), 3)
    gens = omega2_decompose(P, 3)
    assert sorted(g.kind for g in gens) == ["double_edge", "double_edge"]


def test_omega2_decompose_empty():
    assert omega2_decompose(load_fixture("bifan"), 3) == []


def test_omega2_decompose_spans_on_random_digraphs():
    from conftest import random_digraph

    rng = random.Random(2024)
    count = 0
    while count < 120:
        g = random_digraph(rng, allow_antiparallel=True)
        P = path_complex_from_digraph(g, 2)
        for N in (2, 3, 4):
            omega2_decompose(P, N)  # raises SpanMismatch on failure
        count += 1


def test_mayer_square_reduce():
    g = parse_digraph("1 2\n1 3\n1 5\n2 4\n3 4\n5 4")
    P = path_complex_from_digraph(g, 2)
    xi = zeta_power(3, 1)
    p124 = interned(P, "1", "2", "4")
    p134 = interned(P, "1", "3", "4")
    p154 = interned(P, "1", "5", "4")
    chain = {p124: Scalar.one(3), p134: xi, p154: xi * xi}
    out = mayer_square_reduce(P, 3, chain)
    assert [c for c, _ in out] == [-xi, -(xi * xi)]
    rebuilt = {}
    for coeff, (a, b) in out:
        rebuilt[a] = rebuilt.get(a, Scalar.zero(3)) + coeff
        rebuilt[b] = rebuilt.get(b, Scalar.zero(3)) - coeff
    assert rebuilt == chain


def test_mayer_square_reduce_single_square():
    diamond = load_fixture("diamond")
    p124 = interned(diamond, "1", "2", "4")
    p134 = interned(diamond, "1", "3", "4")
    chain = {p124: Scalar.one(2), p134: Scalar.from_rational(2, -1)}
    out = mayer_square_reduce(diamond, 2, chain)
    assert out == [(Scalar.one(2), (p124, p134))]


def test_mayer_square_reduce_rejects_bad_input(diamond):
    with pytest.raises(NotMayerForm):
        mayer_square_reduce(diamond, 3, {interned(diamond, "1", "2", "4"): Scalar.one(3)})
    with pytest.raises(NotMayerForm):
        mayer_square_reduce(diamond, 3, {
            interned(diamond, "1", "2", "4"): Scalar.one(3),
            interned(diamond, "2", "3", "4"): zeta_power(3, 1),
        })


def test_minimal_clusters_diamond():
    diamond = load_fixture("diamond")
    for N in (2, 3):
        search = minimal_clusters(diamond, N)
        assert len(search.clusters) == 1
        c = search.clusters[0]
        assert c.endpoints == interned(diamond, "1", "4")
        assert c.labels == (8,) and c.family == "T6"
        assert not search.truncated


def test_minimal_clusters_braid():
    braid = load_fixture("braid")
    search = minimal_clusters(braid, 3)
    assert len(search.clusters) == 1
    c = search.clusters[0]
    assert c.labels == (2, 7, 5)
    assert c.family == "T2"
    assert c.chain == "g2-(g7)^1-g5"


def test_minimal_clusters_trapezohedron():
    P = load_fixture("trapezohedron_m2")
    for N in (2, 3, 4):
        search = minimal_clusters(P, N)
        assert len(search.clusters) == 1
        c = search.clusters[0]
        assert set(c.labels) == {7} and c.family == "T4"
        assert len(c.components) == 4
        assert c.chain is None  # polygonal, not a chain


def test_cluster_components_alternate_signs():
    P = load_fixture("trapezohedron_m2")
    c = minimal_clusters(P, 3).clusters[0]
    coeffs = [coeff for _, coeff in c.components]
    one = Scalar.one(3)
    assert sorted(x == one for x in coeffs) == [False, False, True, True]


def test_circuit_bound_reported():
    braid = load_fixture("braid")
    search = minimal_clusters(braid, 3, circuit_bound=2)
    assert search.clusters == []
    assert search.truncated == [interned(braid, "1", "4")]


def test_circuit_bound_below_one_refused():
    braid = load_fixture("braid")
    for bound in (0, -3):
        with pytest.raises(ValueError, match="circuit_bound must be >= 1"):
            minimal_clusters(braid, 3, circuit_bound=bound)
    assert minimal_clusters(braid, 3, circuit_bound=1).truncated == [interned(braid, "1", "4")]


def test_combined_chain_and_isolated_component_survive_together():
    # a three-route chain and a triangle-capped route between the same
    # endpoints each fail the level-2 constraint alone (their squared
    # boundaries leave the same stray shortcut term) but their difference
    # cancels it, so the full invariant space is exactly that combination
    text = fixture_text("braid") + "1 7\n7 8\n8 4\n1 8\n7 4\n"
    P = path_complex_from_digraph(parse_digraph(text), 3)
    li = {l: i for i, l in enumerate(P.labels)}
    extra = (li["1"], li["7"], li["8"], li["4"])
    assert gamma_label(P, extra) == 8
    for N in (3, 4):
        assert omega_nq(P, 3, 1, N).space.dim == 2
        full = omega_full(P, 3, N).space
        assert full.dim == 1
        vec = full.basis[0]
        support = {P.paths(3)[i] for i in vec}
        assert extra in support and len(support) == 4
        labels = sorted(gamma_label(P, p) for p in support)
        assert labels == [2, 5, 7, 8]
        search = minimal_clusters(P, N)
        assert sorted(c.family for c in search.clusters) == ["T2", "T6"]


def _reference_clusters(P, N, circuit_bound):
    """(endpoints, components) of each minimal cluster, and the truncated pairs.

    The search of ``minimal_clusters`` run on the Q(zeta_N) rows of the
    reference d^1 matrix (its non-allowed block, entries zeta^j) instead
    of the rational 0/1 rows.
    """
    rows = boundary_reference(P, 3, 1, N).nonallowed_block().row_dicts()
    paths = P.paths(3)
    by_pair = {}
    for idx, p in enumerate(paths):
        by_pair.setdefault((p[0], p[-1]), []).append(idx)

    def kernel(cols):
        pos = {c: i for i, c in enumerate(cols)}
        local = [{pos[c]: v for c, v in row.items() if c in pos} for row in rows]
        return nullspace(Matrix.from_row_dicts([r for r in local if r], len(cols), N))

    clusters, truncated = [], []
    for pair, cols in sorted(by_pair.items()):
        if kernel(cols).dim == 0:
            continue
        if len(cols) > circuit_bound:
            truncated.append(pair)
        found = []
        for size in range(1, min(circuit_bound, len(cols)) + 1):
            for subset in combinations(cols, size):
                if any(f <= set(subset) for f in found):
                    continue
                space = kernel(subset)
                if space.dim == 1 and len(space.basis[0]) == size:
                    found.append(set(subset))
                    clusters.append((pair, tuple(zip((paths[c] for c in subset),
                                                     space.basis[0].values()))))
    return clusters, truncated


def test_minimal_clusters_equal_the_cyclotomic_reference():
    """Fixtures and seeded digraphs with antiparallel pairs, N = 2..5."""
    from conftest import antiparallel_complexes

    rng = random.Random(919)
    complexes = [(load_fixture(name), 8) for name in DIGRAPH_FIXTURES]
    complexes += [(P, 2 + 4 * (i % 2))
                  for i, (_, P) in enumerate(antiparallel_complexes(rng, 30, 3, 200))]
    seen = {"clusters": 0, "truncated": 0}
    for P, bound in complexes:
        for N in range(2, 6):
            search = minimal_clusters(P, N, circuit_bound=bound)
            clusters, truncated = _reference_clusters(P, N, bound)
            assert [(c.endpoints, c.components) for c in search.clusters] == clusters, \
                (P.digest(), N)
            assert search.truncated == truncated, (P.digest(), N)
            seen["clusters"] += len(clusters)
            seen["truncated"] += len(truncated)
    assert seen["clusters"] and seen["truncated"], seen


def _components(edges):
    """Connected components of the (column, tail, head) face graph, ground included."""
    adjacent = {structure._GROUND: set()}
    for _, t, h in edges:
        adjacent.setdefault(t, set()).add(h)
        adjacent.setdefault(h, set()).add(t)
    seen, count = set(), 0
    for start in adjacent:
        if start in seen:
            continue
        count += 1
        frontier = [start]
        seen.add(start)
        while frontier:
            node = frontier.pop()
            for other in adjacent[node] - seen:
                seen.add(other)
                frontier.append(other)
    return len(adjacent), count


def test_level_one_kernel_dimension_is_the_face_graph_circuit_rank():
    """Fixtures and seeded digraphs with antiparallel pairs, N = 2..5, per endpoint pair.

    The kernel of the reference's non-allowed d^1 rows on the pair's
    columns has dimension |E| - |V| + components of its face graph, and
    every cluster coefficient is +-1, +1 at the least column.  The dense
    digraphs reach circuit ranks up to 11.
    """
    from conftest import antiparallel_complexes, random_digraph

    rng = random.Random(1723)
    complexes = [load_fixture(name) for name in DIGRAPH_FIXTURES]
    complexes += [P for _, P in antiparallel_complexes(rng, 30, 3, 200)]
    while len(complexes) < len(DIGRAPH_FIXTURES) + 40:
        P = path_complex_from_digraph(random_digraph(rng, 5, 7, p=0.5, allow_antiparallel=True), 3)
        if sum(len(P.paths(n)) for n in range(4)) <= 400:
            complexes.append(P)
    seen = {"pairs": 0, "cyclic": 0, "clusters": 0, "negative": 0}
    for P in complexes:
        graphs = structure._face_graphs(P)
        for N in range(2, 6):
            rows = boundary_reference(P, 3, 1, N).nonallowed_block().row_dicts()
            for edges in graphs.values():
                pos = {c: i for i, (c, _, _) in enumerate(edges)}
                local = [{pos[c]: v for c, v in row.items() if c in pos} for row in rows]
                kernel = nullspace(Matrix.from_row_dicts([r for r in local if r], len(pos), N))
                nodes, components = _components(edges)
                assert kernel.dim == len(edges) - nodes + components, (P.digest(), N, edges)
                seen["pairs"] += 1
                seen["cyclic"] += kernel.dim > 0
            one = Scalar.one(N)
            for cluster in minimal_clusters(P, N).clusters:
                coeffs = [c for _, c in cluster.components]
                assert coeffs[0] == one and all(c in (one, -one) for c in coeffs), cluster
                seen["clusters"] += 1
                seen["negative"] += -one in coeffs
    assert all(seen.values()), seen


def test_a_large_bound_finishes_and_equals_the_reference():
    # the fully crossed three-layer channel 1 -> {2,3,4} -> {5,6,7} -> 8
    # has the face graph K_{3,3}: nine 4-cycles and six 6-cycles
    crossed = parse_digraph("\n".join(
        ["1 2", "1 3", "1 4"] + [f"{a} {b}" for a in (2, 3, 4) for b in (5, 6, 7)]
        + ["5 8", "6 8", "7 8"]))
    complexes = {"crossed": path_complex_from_digraph(crossed, 3)}
    complexes.update((name, load_fixture(name)) for name in ("braid", "trapezohedron_m2"))
    for name, P in complexes.items():
        for N in (2, 3):
            search = minimal_clusters(P, N, circuit_bound=50)
            clusters, truncated = _reference_clusters(P, N, 50)
            assert [(c.endpoints, c.components) for c in search.clusters] == clusters, name
            assert search.truncated == truncated == [], name
            assert clusters, name
    P = complexes["crossed"]
    assert [len(c.components) for c in minimal_clusters(P, 3, 50).clusters] == [4] * 9 + [6] * 6
    assert minimal_clusters(P, 3, 5).truncated == [interned(P, "1", "8")]


def test_special_edges_examples(diamond):
    se = special_edges(diamond)
    assert se["connecting"] == [interned(diamond, "1", "4")]
    assert se["complementary"] == []
    loop4 = load_fixture("loop4")
    se = special_edges(loop4)
    assert se["connecting"] == []
    assert sorted(se["complementary"]) == sorted(
        [interned(loop4, "1", "3"), interned(loop4, "4", "2")])
    complete = parse_digraph(
        "\n".join(f"{i} {j}" for i in range(1, 5) for j in range(1, 5) if i != j))
    Pk = path_complex_from_digraph(complete, 2)
    assert special_edges(Pk) == {"connecting": [], "complementary": []}


def test_intersection_identity_for_dim_three():
    braid = load_fixture("braid")
    for N in (2, 3, 4):
        assert omega3_intersection_check(braid, N)
    for name in ("diamond", "theta", "trapezohedron_m2", "torus_minimal"):
        P = load_fixture(name)
        for N in (2, 3, 4):
            assert omega3_intersection_check(P, N), (name, N)


def test_intersection_check_refuses_a_larger_a_smaller_and_a_moved_space(monkeypatch):
    """Each half of the check decides a case alone.

    A row outside level 1 fails containment, even at the right dimension
    (the moved space); a space one row short fails the dimension count.
    """
    P = load_fixture("trapezohedron_m2")
    N = 3
    full = omega_full(P, 3, N).space
    assert omega3_intersection_check(P, N)
    first, one = omega_nq(P, 3, 1, N).space, Scalar.one(N)
    outside = next({c: one} for c in range(full.ambient_dim) if not first.contains({c: one}))
    assert full.dim > 0
    larger = Subspace.from_spanning(full.basis + (outside,), full.ambient_dim, N)
    smaller = Subspace.from_spanning(full.basis[1:], full.ambient_dim, N)
    moved = Subspace.from_spanning(full.basis[1:] + (outside,), full.ambient_dim, N)
    assert (larger.dim, smaller.dim, moved.dim) == (full.dim + 1, full.dim - 1, full.dim)
    for space in (larger, smaller, moved):
        monkeypatch.setattr(structure, "omega_full",
                            lambda P, n, N, space=space: OmegaSpace(n, N, None, space))
        assert not omega3_intersection_check(P, N), space


def test_braid_excluded_from_higher_level(diamond):
    # the three-route chain lies in the level-1 space but not level 2
    braid = load_fixture("braid")
    for N in (3, 4):
        level1 = omega_nq(braid, 3, 1, N).space
        full = omega_full(braid, 3, N).space
        assert level1.dim == 1 and full.dim == 0
    assert omega_full(braid, 3, 2).space.dim == 1


def _nw_face_positions(t):
    return {i for i, x in enumerate(t) if x is FaceType.NW}


def test_cancellation_constraint_on_cluster_components():
    # if a component's second face is missing the fourth must be a square,
    # and dually; checked across every cluster of every digraph fixture
    for name in ("diamond", "braid", "trapezohedron_m2", "theta", "loop4"):
        P = load_fixture(name)
        for N in (2, 3, 4):
            for cluster in minimal_clusters(P, N).clusters:
                for (path, _), label in zip(cluster.components, cluster.labels):
                    t = image_type(P, path)
                    if label is None:
                        continue
                    if t[1] is FaceType.NW:
                        assert t[3] is FaceType.S
                    if t[2] is FaceType.NW:
                        assert t[0] is FaceType.S


def test_gamma_labels_on_random_digraphs():
    from conftest import random_digraph

    rng = random.Random(515)
    singletons = 0
    count = 0
    while count < 100:
        g = random_digraph(rng)
        P = path_complex_from_digraph(g, 3)
        if len(P.paths(3)) > 40:
            continue
        count += 1
        for N in (2, 3, 4):
            search = minimal_clusters(P, N, circuit_bound=6)
            for cluster in search.clusters:
                assert all(l in GAMMA_PATTERNS for l in cluster.labels), cluster
                if set(cluster.labels) <= {8, 9}:
                    assert len(cluster.components) == 1
                    singletons += 1
            assert omega3_intersection_check(P, N)
    assert singletons > 0  # the sweep actually saw isolated patterns


def _assert_chain_parity(chain):
    head, _, tail = chain.partition("-(g7)^")
    m, _, last = tail.partition("-")
    i, j, m = int(head[1:]), int(last[1:]), int(m)
    if 7 in (i, j):
        return 0
    if m % 2 == 0:
        assert i == j, chain
    else:
        assert abs(i - j) == 3, chain
    return 1


def test_chain_endpoint_parity():
    # chains alternate: even g7 interiors join equal endpoint types, odd
    # ones join the partner type (1<->4, 2<->5, 3<->6)
    checked = 0

    # odd interior: the three-route chain g2-(g7)^1-g5
    braid = load_fixture("braid")
    for c in minimal_clusters(braid, 3).clusters:
        checked += _assert_chain_parity(c.chain)

    # no interior: two overlapping routes capped by triangles, g1-(g7)^0-g1
    g = parse_digraph("1 2\n2 3\n3 5\n2 4\n4 5\n1 3\n1 4\n1 5")
    P = path_complex_from_digraph(g, 3)
    direct = minimal_clusters(P, 3)
    shapes = [c.chain for c in direct.clusters if c.chain and "-(g7)^" in c.chain]
    assert "g1-(g7)^0-g1" in shapes
    for c in direct.clusters:
        if c.chain and "-(g7)^" in c.chain:
            checked += _assert_chain_parity(c.chain)

    # random sweep on denser graphs, best effort
    from conftest import random_digraph

    rng = random.Random(900)
    count = 0
    while count < 60:
        gr = random_digraph(rng, p=0.45)
        Pr = path_complex_from_digraph(gr, 3)
        if len(Pr.paths(3)) > 40:
            continue
        count += 1
        for N in (2, 3):
            for cluster in minimal_clusters(Pr, N, circuit_bound=6).clusters:
                if cluster.chain and "-(g7)^" in cluster.chain:
                    checked += _assert_chain_parity(cluster.chain)
    assert checked >= 2
