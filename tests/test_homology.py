import random

import pytest

from mayerpath.complexes import Digraph, parse_digraph, path_complex_from_digraph
from mayerpath.cyclotomic import Scalar, zeta_power
from mayerpath.fixtures import ALL_FIXTURES, load_digraph, load_fixture
from mayerpath.homology import (
    betti,
    betti_table,
    boundary_space,
    brute_force_oracle,
    cycle_space,
    poincare_identity_check,
)
from mayerpath.linalg import NotASubspace, quotient_dim
from mayerpath.omega import omega_full


def vec_of(P, n, terms, N):
    paths = P.paths(n)
    idx = {p: i for i, p in enumerate(paths)}
    label_index = {l: i for i, l in enumerate(P.labels)}
    out = [Scalar.zero(N)] * len(paths)
    for labels, coeff in terms.items():
        out[idx[tuple(label_index[l] for l in labels)]] = coeff
    return out


def test_diamond_cycle_spaces(diamond):
    xi = zeta_power(3, 1)
    one = Scalar.one(3)
    z1 = cycle_space(diamond, 1, 1, 3)
    assert z1.dim == 1
    expected = vec_of(diamond, 1, {
        ("1", "2"): -xi, ("1", "3"): xi, ("2", "4"): one, ("3", "4"): -one,
    }, 3)
    assert z1.contains(expected)
    assert cycle_space(diamond, 2, 2, 3).dim == 0
    assert cycle_space(diamond, 2, 1, 3).dim == 0
    assert cycle_space(diamond, 0, 1, 3).dim == 4


def test_diamond_boundary_spaces(diamond):
    xi = zeta_power(3, 1)
    one = Scalar.one(3)
    b0 = boundary_space(diamond, 0, 1, 3)
    assert b0.dim == 3
    # the squared boundary of e_{1,2,3}
    assert b0.contains(vec_of(diamond, 0, {
        ("1",): -xi, ("2",): -one, ("3",): -(xi * xi),
    }, 3))
    assert boundary_space(diamond, 1, 1, 3).dim == 0  # no invariant 3-chains
    assert boundary_space(diamond, 1, 2, 3).dim == 3


def test_ffl_boundary_membership():
    P = load_fixture("ffl")
    xi = zeta_power(3, 1)
    one = Scalar.one(3)
    b0 = boundary_space(P, 0, 1, 3)
    assert b0.dim == 1
    assert b0.contains(vec_of(P, 0, {
        ("1",): -xi, ("2",): -one, ("3",): -(xi * xi),
    }, 3))


def test_diamond_tables(diamond):
    t2 = betti_table(diamond, 2, 3)
    assert [t2.entries[(n, 1)] for n in range(4)] == [1, 0, 0, 0]
    t3 = betti_table(diamond, 3, 3)
    assert [t3.entries[(n, 1)] for n in range(3)] == [1, 1, 0]
    assert t3.entries[(0, 2)] == 0
    assert t3.entries[(2, 2)] == 0
    assert t3.omega_dims == {0: 4, 1: 5, 2: 3, 3: 0}


def test_diamond_flagged_cell_equals_oracle(diamond):
    # the level-(3,2) dim-1 entry: 5-dim cycles modulo the 3-dim image
    assert cycle_space(diamond, 1, 2, 3).dim == 5
    assert boundary_space(diamond, 1, 2, 3).dim == 3
    assert betti(diamond, 1, 2, 3) == 2
    oracle = brute_force_oracle(diamond, 3, 3)
    assert oracle.entries[(1, 2)] == 2


@pytest.mark.parametrize("name,n2,n3q1,n3q2", [
    ("loop4", (1, 1), (4, 0), (0, 4)),
    ("biparallel", (1, 0), (3, 1), (1, 3)),
    ("bifan", (1, 1), (4, 1), (1, 4)),
])
def test_motif_tables(name, n2, n3q1, n3q2):
    P = load_fixture(name)
    t2 = betti_table(P, 2, 1)
    assert (t2.entries[(0, 1)], t2.entries[(1, 1)]) == n2
    t3 = betti_table(P, 3, 1)
    assert (t3.entries[(0, 1)], t3.entries[(1, 1)]) == n3q1
    assert (t3.entries[(0, 2)], t3.entries[(1, 2)]) == n3q2


@pytest.mark.parametrize("name,h031", [("ffl", 2), ("ffl_branch", 3)])
def test_feed_forward_tables(name, h031):
    P = load_fixture(name)
    t2 = betti_table(P, 2, 1)
    assert (t2.entries[(0, 1)], t2.entries[(1, 1)]) == (1, 0)
    t3 = betti_table(P, 3, 1)
    assert t3.entries[(0, 1)] == h031
    assert t3.entries[(1, 1)] == 0
    assert t3.entries[(0, 2)] == 0
    # the (1, 2) cell equals invariant edges modulo one boundary line
    assert t3.entries[(1, 2)] == len(P.paths(1)) - 1
    assert brute_force_oracle(P, 3, 1) == t3


def test_torus_table(torus):
    t = betti_table(torus, 3, 2)
    assert [t.entries[(n, 1)] for n in range(3)] == [1, 14, 0]
    assert [t.entries[(n, 2)] for n in range(3)] == [0, 7, 8]
    t2 = betti_table(torus, 2, 2)
    assert [t2.entries[(n, 1)] for n in range(3)] == [1, 2, 1]


def test_oracle_agreement_on_fixtures():
    for name in ("diamond", "ffl", "ffl_branch", "loop4", "biparallel",
                 "bifan", "braid", "theta", "torus_minimal"):
        P = load_fixture(name)
        for N in (2, 3):
            assert betti_table(P, N, 2) == brute_force_oracle(P, N, 2), (name, N)


def test_boundaries_inside_cycles_on_fixtures():
    for name in ("diamond", "braid", "trapezohedron_m2", "theta"):
        P = load_fixture(name)
        for N in (2, 3, 4):
            for n in range(3):
                for q in range(1, N):
                    z = cycle_space(P, n, q, N)
                    b = boundary_space(P, n, q, N)
                    assert quotient_dim(z, b) >= 0


def _betti_or_rejected(P, N, max_dim, engine):
    try:
        return engine(P, N, max_dim)
    except NotASubspace:
        return "rejected"


def _quotient_table(P, N, max_dim):
    """The Betti grid from cycle and boundary subspaces, as a reference."""
    return {(n, q): quotient_dim(cycle_space(P, n, q, N), boundary_space(P, n, q, N))
            for n in range(max_dim + 1) for q in range(1, N)}


def _rank_table(P, N, max_dim):
    return betti_table(P, N, max_dim).entries


def test_rank_core_equals_subspace_quotient_on_fixtures():
    for name in ALL_FIXTURES:
        for N in (2, 3, 4, 5):
            assert _rank_table(load_fixture(name), N, 3) == \
                _quotient_table(load_fixture(name), N, 3), (name, N)


def test_rank_core_equals_subspace_quotient_with_antiparallel_pairs():
    # both engines must agree, or both must refuse the non-nilpotent complex
    from conftest import bounded_random_complex

    rng = random.Random(2024)
    outcomes = []
    for i in range(40):
        N = 2 + i % 3
        g, _ = bounded_random_complex(rng, N, 3, budget=250, allow_antiparallel=True)
        rank_side = _betti_or_rejected(path_complex_from_digraph(g, 3), N, 3, _rank_table)
        quotient_side = _betti_or_rejected(
            path_complex_from_digraph(g, 3), N, 3, _quotient_table)
        assert rank_side == quotient_side, (g, N)
        outcomes.append(rank_side == "rejected")
    assert any(outcomes) and not all(outcomes)


def test_double_edge_homology_is_rejected_beyond_order_two():
    # with an antiparallel pair the weighted boundary is not nilpotent on
    # the invariant complex once dimension 3 enters, and the boundary
    # space escapes the cycle space; the pipeline must refuse, not lie
    P = path_complex_from_digraph(parse_digraph("1 2\n2 1"), 3)
    with pytest.raises(NotASubspace):
        betti_table(P, 3, 3)
    # order 2 stays classical and healthy: the two-edge digon is contractible
    t = betti_table(P, 2, 3)
    assert [t.entries[(n, 1)] for n in range(4)] == [1, 0, 0, 0]


def test_isomorphism_invariance_on_fixtures():
    rng = random.Random(123)
    for name in ("diamond", "loop4", "biparallel", "braid"):
        g = load_digraph(name)
        P = path_complex_from_digraph(g, 3)
        base = betti_table(P, 3, 2)
        labels = list(g.labels)
        for _ in range(5):
            shuffled = labels[:]
            rng.shuffle(shuffled)
            perm = dict(zip(labels, shuffled))
            g2 = g.relabel(perm)
            t = betti_table(path_complex_from_digraph(g2, 3), 3, 2)
            assert t.entries == base.entries, (name, perm)
            assert t.omega_dims == base.omega_dims


def test_invariance_under_permuted_vertex_ids():
    # Digraph.relabel keeps the interned ids, so the elimination order never
    # changes there; here the ids themselves move, and with them the
    # lexicographic path bases every matrix is built on
    rng = random.Random(321)
    for name in ("diamond", "loop4", "biparallel", "braid", "theta"):
        g = load_digraph(name)
        base = betti_table(path_complex_from_digraph(g, 3), 3, 2)
        for _ in range(3):
            ids = list(range(g.n))
            rng.shuffle(ids)
            labels = [""] * g.n
            for old, new in enumerate(ids):
                labels[new] = g.labels[old]
            g2 = Digraph(tuple(labels), tuple((ids[u], ids[v]) for u, v in g.edges))
            P2 = path_complex_from_digraph(g2, 3)
            assert betti_table(P2, 3, 2) == base, (name, ids)


def test_poincare_identity_diamond(diamond):
    for q in (1, 2):
        rep = poincare_identity_check(diamond, 3, q)
        assert rep.bounded and rep.equal, q


def test_poincare_identity_two_term_isomorphism():
    # directed 3-cycle at order 3: the edge boundary is an isomorphism
    # onto the vertex space, so both sides evaluate to 3 * (1 + z)
    tri = path_complex_from_digraph(parse_digraph("1 2\n2 3\n3 1"), 3)
    rep = poincare_identity_check(tri, 3, 1)
    assert rep.bounded and rep.equal
    three = Scalar.from_rational(3, 3)
    assert rep.lhs == three + three * zeta_power(3, 1)


def test_poincare_identity_two_term_hand_evaluation():
    # dims C = (1, 1), d an isomorphism: b_0^{3,1} = 1, b_1^{3,2} = 1,
    # everything else 0; the right side telescopes to 1 + z
    N, q = 3, 1
    z = zeta_power(N, 1)
    lhs = Scalar.one(N) + z
    total = Scalar.one(N) - z * z  # i=0 term 1, i=2 term -(b_1^{3,2}) z^2
    rhs = total * (Scalar.one(N) - z).inverse()
    assert lhs == rhs


def test_poincare_unbounded_complex_is_flagged():
    P = path_complex_from_digraph(parse_digraph("1 2\n2 1"), 3)
    rep = poincare_identity_check(P, 2, 1)
    assert not rep.bounded and rep.equal is None


def test_poincare_identity_on_fixtures():
    for name in ("diamond", "ffl", "ffl_branch", "loop4", "biparallel",
                 "bifan", "braid", "theta", "trapezohedron_m2", "torus_minimal"):
        P = load_fixture(name)
        for N in (2, 3):
            for q in range(1, N):
                rep = poincare_identity_check(P, N, q)
                assert rep.bounded, (name, N, q)
                assert rep.equal, (name, N, q)


def test_single_vertex():
    P = path_complex_from_digraph(
        parse_digraph("1 2").__class__(("1",), ()), 2)
    for N in (2, 3):
        t = betti_table(P, N, 2)
        for q in range(1, N):
            assert t.entries[(0, q)] == 1
            assert t.entries[(1, q)] == 0
        assert brute_force_oracle(P, N, 2) == t


def test_json_and_renderings(diamond):
    t = betti_table(diamond, 2, 3)
    d = t.to_json_dict()
    assert d["N"] == 2 and d["betti"][0] == {"n": 0, "q": 1, "dim": 1}
    assert "omega_dims" in d
    csv = t.render_csv()
    assert csv.splitlines()[0] == "n,q,betti"
    assert "0,1,1" in csv
    md = t.render_markdown()
    assert md.startswith("| n |")


def test_order_two_equals_oracle_on_random_digraphs():
    # at N = 2 (zeta = -1) the table is ordinary path homology; the dense
    # oracle recomputes it without the level recursion or the rational solve
    from conftest import bounded_random_complex

    rng = random.Random(2002)
    for i in range(30):
        g, P = bounded_random_complex(rng, 2, 3, budget=250, allow_antiparallel=i % 2 == 1)
        oracle = brute_force_oracle(path_complex_from_digraph(g, 3), 2, 3)
        assert betti_table(P, 2, 3) == oracle, g
