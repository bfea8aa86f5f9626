import random

import pytest

from conftest import boundary_reference, cycle_through, random_digraph
from mayerpath.complexes import parse_digraph, path_complex_from_digraph
from mayerpath.cycles import (
    NotAdmissible,
    NotApplicable,
    admissible_weights,
    fundamental_cycles,
    is_admissible,
    merge_element,
    orientation_profile,
    z1_generators,
    z1_kernel_space,
)
from mayerpath.cyclotomic import Scalar, unit_exponent, zeta_power
from mayerpath.fixtures import DIGRAPH_FIXTURES, load_digraph
from mayerpath.linalg import Matrix, nullspace


def square_cycle(name):
    g = load_digraph(name)
    li = {v: i for i, v in enumerate(g.labels)}
    verts = [li["1"], li["2"], li["3"], li["4"]]
    return g, cycle_through(verts, g.edge_set)


def chain_vector(g, chain, N):
    kernel, basis = z1_kernel_space(g, N)
    return kernel, {basis.index(e): c for e, c in chain.items()}


def test_orientation_profiles():
    _, sq2 = square_cycle("biparallel")
    p = orientation_profile(sq2)
    assert (p.n, p.u1, p.u2) == (4, 2, 2)
    tri = parse_digraph("1 2\n2 3\n3 1")
    c = cycle_through([0, 1, 2], tri.edge_set)
    p = orientation_profile(c)
    assert (p.n, p.u1, p.u2) == (3, 0, 3)
    anti = parse_digraph("1 2\n2 1")
    c2 = cycle_through([0, 1], anti.edge_set)
    p = orientation_profile(c2)
    assert (p.n, p.u1, p.u2) == (2, 0, 2)


def test_admissibility_separation_on_motifs():
    for name, at3 in (("loop4", False), ("biparallel", True), ("bifan", True)):
        _, cyc = square_cycle(name)
        assert is_admissible(cyc, 2)
        assert is_admissible(cyc, 3) is at3, name


def test_loop4_profile():
    _, cyc = square_cycle("loop4")
    p = orientation_profile(cyc)
    assert (p.n, p.u1, p.u2) == (4, 3, 1)


def test_two_step_cycle_admissible_only_at_order_two():
    anti = parse_digraph("1 2\n2 1")
    c = cycle_through([0, 1], anti.edge_set)
    assert is_admissible(c, 2)
    for N in (3, 4, 5):
        assert not is_admissible(c, N)
    # matches the direct kernel computation
    assert z1_kernel_space(anti, 2)[0].dim == 1
    assert z1_kernel_space(anti, 3)[0].dim == 0


def test_kernel_space_is_the_nullspace_of_the_assembled_edge_boundary():
    """The closed-form kernel equals the one solved from d^1 of the path complex, row for row."""
    rng = random.Random(2024)
    graphs = [load_digraph(name) for name in DIGRAPH_FIXTURES]
    graphs += [random_digraph(rng, allow_antiparallel=True, p=0.4) for _ in range(12)]
    assert sum(any((v, u) in g.edge_set for u, v in g.edges) for g in graphs) >= 5
    for g in graphs:
        P = path_complex_from_digraph(g, 1)
        for N in (2, 3, 4, 5):
            bm = boundary_reference(P, 1, 1, N)
            reference = nullspace(Matrix(len(bm.row_paths), len(bm.col_paths), N, bm.entries))
            kernel, edges = z1_kernel_space(g, N)
            assert edges == bm.col_paths
            assert [list(row.items()) for row in kernel.basis] == \
                [list(row.items()) for row in reference.basis], (g.edges, N)
            assert kernel.pivot_cols == reference.pivot_cols


def test_admissible_weights_biparallel_span():
    g, cyc = square_cycle("biparallel")
    w = admissible_weights(cyc, 3)
    kernel, vec = chain_vector(g, w, 3)
    assert kernel.dim == 1 and kernel.contains(vec)
    li = {v: i for i, v in enumerate(g.labels)}
    xi = zeta_power(3, 1)
    reference = {
        (li["1"], li["2"]): xi, (li["1"], li["4"]): -xi,
        (li["2"], li["3"]): -Scalar.one(3), (li["4"], li["3"]): Scalar.one(3),
    }
    _, ref_vec = chain_vector(g, reference, 3)
    assert kernel.contains(ref_vec)


def test_admissible_weights_bifan_span():
    g, cyc = square_cycle("bifan")
    w = admissible_weights(cyc, 3)
    kernel, vec = chain_vector(g, w, 3)
    assert kernel.dim == 1 and kernel.contains(vec)
    li = {v: i for i, v in enumerate(g.labels)}
    one = Scalar.one(3)
    reference = {
        (li["1"], li["2"]): one, (li["1"], li["4"]): -one,
        (li["3"], li["2"]): -one, (li["3"], li["4"]): one,
    }
    _, ref_vec = chain_vector(g, reference, 3)
    assert kernel.contains(ref_vec)


def test_admissible_weights_hexagon():
    g = parse_digraph("1 2\n2 3\n3 4\n4 5\n5 6\n6 1")
    cyc = cycle_through(list(range(6)), g.edge_set)
    assert is_admissible(cyc, 3)
    w = admissible_weights(cyc, 3)
    kernel, vec = chain_vector(g, w, 3)
    assert any(vec.values()) and kernel.contains(vec)


def test_admissible_weights_rejects():
    _, cyc = square_cycle("loop4")
    with pytest.raises(NotAdmissible):
        admissible_weights(cyc, 3)


def test_merge_shared_edge_theta():
    g = load_digraph("theta")
    cycles = fundamental_cycles(g)
    bad = [c for c in cycles if not is_admissible(c, 3)]
    assert len(bad) == 2
    chain = merge_element(bad[0], bad[1], 3)
    assert len(chain) == 5
    kernel, vec = chain_vector(g, chain, 3)
    assert kernel.dim == 1 and kernel.contains(vec)


def test_merge_shared_vertex_only():
    g = parse_digraph("1 2\n2 3\n3 1\n1 4\n4 5\n5 1")
    cycles = fundamental_cycles(g)
    bad = [c for c in cycles if not is_admissible(c, 3)]
    assert len(bad) == 2
    chain = merge_element(bad[0], bad[1], 3)
    kernel, vec = chain_vector(g, chain, 3)
    assert kernel.contains(vec) and any(vec.values())


def test_merge_rejects_admissible_or_disjoint():
    g, cyc = square_cycle("biparallel")
    _, bad = square_cycle("loop4")
    with pytest.raises(NotApplicable):
        merge_element(cyc, bad, 3)
    dumb = load_digraph("dumbbell")
    cycles = fundamental_cycles(dumb)
    bad = [c for c in cycles if not is_admissible(c, 3)]
    with pytest.raises(NotApplicable):
        merge_element(bad[0], bad[1], 3)


def test_z1_generators_on_motifs():
    for name, N, dim in (("biparallel", 3, 1), ("loop4", 3, 0), ("bifan", 3, 1)):
        res = z1_generators(load_digraph(name), N)
        assert res.kernel_dim == dim and res.spanned, name


def test_z1_generators_theta():
    res = z1_generators(load_digraph("theta"), 3)
    assert res.kernel_dim == 1 and res.spanned
    kinds = [gen.kind for gen in res.generators]
    assert kinds == ["merge"]
    assert len(res.generators[0].chain) == 5


def test_z1_generators_dumbbell_completion():
    res = z1_generators(load_digraph("dumbbell"), 3)
    assert res.kernel_dim == 1
    assert res.shortfall == 1
    assert [gen.kind for gen in res.generators] == ["completion"]


def test_z1_generators_order_two_is_circuit_rank():
    for name in DIGRAPH_FIXTURES:
        g = load_digraph(name)
        res = z1_generators(g, 2)
        assert res.spanned
        assert all(gen.kind == "cycle" for gen in res.generators)
        # connected fixtures: circuit rank = |E| - |V| + 1
        assert res.kernel_dim == len(g.edges) - g.n + 1, name


def test_z1_random_sweep():
    rng = random.Random(808)
    xi_checked = 0
    for _ in range(200):
        g = random_digraph(rng, allow_antiparallel=True, p=0.3)
        for N in (2, 3, 4):
            res = z1_generators(g, N)
            components = _component_count(g)
            bound = len(g.edges) - g.n + components
            assert res.kernel_dim <= bound
            if N == 2:
                assert res.kernel_dim == bound
                assert res.spanned
            # shortfall is always repaired by flagged completion vectors
            kernel, basis = z1_kernel_space(g, N)
            from mayerpath.linalg import Subspace
            vecs = []
            for gen in res.generators:
                vec = {basis.index(e): c for e, c in gen.chain.items()}
                assert kernel.contains(vec)
                vecs.append(vec)
                # one walk from weight 1 puts a unit +-zeta^k on every edge of a cycle
                if gen.kind == "cycle":
                    assert all(unit_exponent(c) is not None for c in gen.chain.values())
            if vecs:
                span = Subspace.from_spanning(vecs, len(basis), N)
                assert span.dim == kernel.dim
            else:
                assert kernel.dim == 0
            xi_checked += 1
    assert xi_checked == 600


def _component_count(g):
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(g.n)})


def test_fundamental_cycle_count_matches_circuit_rank():
    rng = random.Random(4242)
    for _ in range(50):
        g = random_digraph(rng, allow_antiparallel=True, p=0.4)
        cycles = fundamental_cycles(g)
        assert len(cycles) == len(g.edges) - g.n + _component_count(g)
        for c in cycles:
            # every step is backed by a digraph edge with consistent ends
            for s in c.steps:
                assert s.edge in g.edge_set
                assert (s.edge == (s.tail, s.head)) is s.aligned
