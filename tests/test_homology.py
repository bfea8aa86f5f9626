import random
from collections import Counter

import pytest

from mayerpath.complexes import Digraph, parse_digraph, path_complex_from_digraph
from mayerpath.cyclotomic import Scalar, zeta_power
from mayerpath.fixtures import ALL_FIXTURES, load_digraph, load_fixture
from mayerpath import linalg
from mayerpath.homology import (
    ImageEscapesAllowed,
    _oracle_image_chains,
    betti,
    betti_table,
    boundary_space,
    brute_force_oracle,
    cycle_space,
    poincare_identity_check,
)
from mayerpath.omega import omega_full
from mayerpath.linalg import NotASubspace


def vec_of(P, n, terms):
    """The sparse row of the n-chain with the given coefficients on labelled paths."""
    idx = {p: i for i, p in enumerate(P.paths(n))}
    label_index = {l: i for i, l in enumerate(P.labels)}
    return {idx[tuple(label_index[l] for l in labels)]: coeff for labels, coeff in terms.items()}


def test_diamond_cycle_spaces(diamond):
    xi = zeta_power(3, 1)
    one = Scalar.one(3)
    z1 = cycle_space(diamond, 1, 1, 3)
    assert z1.dim == 1
    expected = vec_of(diamond, 1, {
        ("1", "2"): -xi, ("1", "3"): xi, ("2", "4"): one, ("3", "4"): -one,
    })
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
    }))
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
    }))


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
                    assert all(z.contains(row) for row in b.basis)
                    assert z.dim - b.dim >= 0


def _betti_or_rejected(P, N, max_dim, engine):
    try:
        return engine(P, N, max_dim)
    except NotASubspace:
        return "rejected"


def _quotient_table(P, N, max_dim):
    """The Betti grid from cycle and boundary subspaces, as a reference.

    Raises ``NotASubspace``, as ``betti`` does, where a boundary basis row
    lies outside its cycle space.
    """
    table = {}
    for n in range(max_dim + 1):
        for q in range(1, N):
            z, b = cycle_space(P, n, q, N), boundary_space(P, n, q, N)
            if not all(z.contains(row) for row in b.basis):
                raise NotASubspace(f"B_{n}^(N={N}, q={q}) is not inside its cycle space")
            table[(n, q)] = z.dim - b.dim
    return table


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


def _table_or_refused(engine, P, N):
    try:
        return engine(P, N, 3)
    except (NotASubspace, ImageEscapesAllowed):
        return "refused"


def test_certificates_stay_sound_under_the_least_prime(monkeypatch):
    """With the primes = 1 (mod N) from the least on, no Betti number may move.

    Small primes bound few minors, so many ranks need several primes
    before the norm certificate holds; the tables must still equal the
    dense oracle's, or both must refuse.
    """
    from conftest import antiparallel_complexes, least_modulus
    from mayerpath import omega

    monkeypatch.setattr(linalg, "_modulus", least_modulus)
    assert [linalg._modulus(N, 0)[0] for N in (2, 3, 4, 5)] == [3, 7, 5, 11]
    calls = []
    true_rank_mod, true_certified_rank = linalg.rank_mod, omega.certified_rank

    def recorded_rank_mod(rows, p, w):
        calls[-1] += 1
        return true_rank_mod(rows, p, w)

    def recorded_certified_rank(rows, N):
        calls.append(0)
        return true_certified_rank(rows, N)

    monkeypatch.setattr(linalg, "rank_mod", recorded_rank_mod)
    monkeypatch.setattr(omega, "certified_rank", recorded_certified_rank)
    kinds = Counter()
    cases = [(load_fixture(name), N) for name in ALL_FIXTURES for N in (2, 3, 4, 5)]
    rng = random.Random(1)
    cases += [(P, 2 + i % 4) for i, (_, P) in enumerate(antiparallel_complexes(rng, 40, 7, 150))]
    for P, N in cases:
        got = _table_or_refused(betti_table, P, N)
        assert got == _table_or_refused(brute_force_oracle, P, N), (P.digest(), N)
        kinds["refused" if got == "refused" else "table"] += 1
    kinds.update("one prime" if primes == 1 else "several primes" for primes in calls)
    assert all(kinds[k] for k in ("table", "refused", "one prime", "several primes")), kinds


def _escapes_one_vector_at_a_time(P, N, max_dim):
    """Whether some boundary basis vector lies outside its cycle space.

    Each vector of B_n^{N,q} is tested alone against Z_n^{N,q} by the
    engine's exact ``Subspace.contains``, so the reference shares no
    elimination with the oracle it judges.
    """
    for n in range(max_dim + 1):
        for q in range(1, N):
            z = cycle_space(P, n, q, N)
            if not all(z.contains(b) for b in boundary_space(P, n, q, N).basis):
                return True
    return False


def test_oracle_refuses_exactly_where_a_boundary_vector_escapes():
    """The oracle's one containment elimination per cell decides as the per-vector test does.

    Betti dimensions 0..1 already reach the first dimension, N, where d^N
    can fail to vanish, and keep the dense oracle's cost small.
    """
    from conftest import antiparallel_complexes

    outcomes = Counter()
    for _, P in antiparallel_complexes(random.Random(7), 40, 2, 120):
        for N in (2, 3, 4):
            escapes = _escapes_one_vector_at_a_time(P, N, 1)
            try:
                oracle = brute_force_oracle(P, N, 1)
            except ImageEscapesAllowed as exc:
                assert str(exc) == "oracle: boundaries not contained in cycles"
                assert escapes, (P.digest(), N)
                outcomes["refused"] += 1
                continue
            assert not escapes, (P.digest(), N)
            assert oracle == betti_table(P, N, 1), (P.digest(), N)
            outcomes["table"] += 1
    assert outcomes["refused"] and outcomes["table"], outcomes


def _unit_chain_power(p, power, N):
    """d^power of the unit chain on p, one regular face at a time with zeta^j products."""
    chain = {p: Scalar.one(N)}
    for _ in range(power):
        image = {}
        for path, c in chain.items():
            for j in range(len(path) if len(path) > 1 else 0):
                f = path[:j] + path[j + 1:]
                if all(f[i] != f[i + 1] for i in range(len(f) - 1)):
                    image[f] = image.get(f, Scalar.zero(N)) + c * zeta_power(N, j)
        chain = {f: c for f, c in image.items() if c}
    return chain


def test_oracle_image_tables_equal_the_powers_of_the_unit_chains():
    """Table (n, q), built as d^1 of table (n, q-1), equals d^q applied to each unit chain."""
    from conftest import antiparallel_complexes

    for _, P in antiparallel_complexes(random.Random(7), 8, 3, 120):
        for N in (2, 3, 4, 5):
            tables = {}
            for n in range(4):
                for q in range(N):
                    chains = _oracle_image_chains(tables, P, n, q, N)
                    assert chains == [_unit_chain_power(p, q, N) for p in P.paths(n)], (n, q, N)
            assert set(tables) == {(n, q) for n in range(4) for q in range(N)}


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


def reference_poincare(P, N, q, search_limit=12):
    """The Poincare report with both sums and the division done by ``Scalar`` arithmetic."""
    top = None
    zero_run = 0
    for n in range(search_limit + N + 2):
        if len(P.paths(n)) == 0:
            top = n - 1 - zero_run
            break
        if omega_full(P, n, N).space.dim == 0:
            zero_run += 1
            if zero_run >= N + 1:
                top = n - zero_run
                break
        else:
            zero_run = 0
    if top is None:
        return (False, -1, None, None, None)
    lhs = Scalar.zero(N)
    for n in range(top + 1):
        d = omega_full(P, n, N).space.dim
        if d:
            lhs = lhs + zeta_power(N, n) * Scalar.from_rational(N, d)
    total = Scalar.zero(N)
    for i in range(top + q + 1):
        b_main = betti(P, i, q, N) if i <= top else 0
        b_shift = betti(P, i - q, N - q, N) if 0 <= i - q <= top else 0
        if b_main - b_shift:
            total = total + zeta_power(N, i) * Scalar.from_rational(N, b_main - b_shift)
    rhs = total * (Scalar.one(N) - zeta_power(N, q)).inverse()
    return (True, top, lhs, rhs, lhs == rhs)


def test_poincare_integer_sums_match_scalar_reference():
    from conftest import random_digraph

    def outcome(report, P, N, q):
        try:
            return report(P, N, q)
        except NotASubspace:
            return "refused"

    def integer(P, N, q):
        rep = poincare_identity_check(P, N, q)
        return (rep.bounded, rep.top_dim, rep.lhs, rep.rhs, rep.equal)

    rng = random.Random(1414)
    inputs = [(name, load_fixture(name), N) for name in ALL_FIXTURES for N in (2, 3, 4, 5)]
    inputs += [(f"random {i}", path_complex_from_digraph(random_digraph(rng), 3), 2 + i % 4)
               for i in range(30)]
    inputs += [("digon", path_complex_from_digraph(parse_digraph("1 2\n2 1"), 3), N)
               for N in (2, 3, 4, 5)]
    seen = Counter()
    for name, P, N in inputs:
        for q in range(1, N):
            got = outcome(integer, P, N, q)
            assert got == outcome(reference_poincare, P, N, q), (name, N, q)
            seen["refused" if got == "refused" else "bounded" if got[0] else "unbounded"] += 1
    assert seen["bounded"] and seen["unbounded"], seen


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
