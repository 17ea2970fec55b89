"""Finite-dimensional path algebra arithmetic behind the main routines."""

from fractions import Fraction

from qsa.presentation import parse_presentation
from qsa._algebra import TruncatedAlgebra

from conftest import load_fixture, glued_twelve_gqs


def test_chain_dimension_and_blocks():
    t5 = TruncatedAlgebra(load_fixture("a5-chain"))
    assert t5.dimension() == 12
    # e1 A e3 vanishes (the composite is a relation), e2 A e5 is one path
    assert t5.dim_block("1", "3") == 0
    assert t5.dim_block("2", "5") == 1


def test_chain_products():
    t5 = TruncatedAlgebra(load_fixture("a5-chain"))
    v = t5.mult("2", "3", "4", t5.path_vec("2", "3", ("beta",)),
                t5.path_vec("3", "4", ("gamma",)))
    assert t5.coords("2", "4", v) == [Fraction(1)]
    z = t5.mult("1", "2", "3", t5.path_vec("1", "2", ("alpha",)),
                t5.path_vec("2", "3", ("beta",)))
    assert not any(z)


def test_commuting_square_identifies_diagonals():
    sq = parse_presentation(
        "quiver square\nvertices: 1 2 3 4\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\n"
        "relations:\n( a b ) - ( c d )\n")
    ts = TruncatedAlgebra(sq)
    # 4 units + 4 arrows + 1 shared diagonal
    assert ts.dimension() == 9
    ab = ts.mult("1", "2", "4", ts.path_vec("1", "2", ("a",)),
                 ts.path_vec("2", "4", ("b",)))
    cd = ts.mult("1", "3", "4", ts.path_vec("1", "3", ("c",)),
                 ts.path_vec("3", "4", ("d",)))
    assert ab == cd
    assert ts.dim_block("1", "4") == 1


def test_non_homogeneous_acyclic_relation_is_accepted():
    a = parse_presentation(
        "quiver n\nvertices: 1 2 3 4 5\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\n"
        "arrow d: 1 -> 5\narrow e: 5 -> 4\n"
        "relations:\n( d e ) - ( a b c )\n")
    t = TruncatedAlgebra(a)
    assert t.bound == 4
    # 5 units + 5 arrows + a b, b c, d e + a b c, less the one relation
    assert t.dimension() == 13
    assert t.dim_block("1", "4") == 1


def test_cycle_dimension_and_nilpotency_bound():
    tg = TruncatedAlgebra(load_fixture("gentle-cycle"))
    assert tg.dimension() == 6
    assert tg.bound == 2


def test_dimension_matches_brute_force_path_count():
    tv = load_fixture("twelve-vertex-gqs")
    tt = TruncatedAlgebra(tv)
    q = tv.quiver
    dead = {tuple(r.terms[0][1]) for r in tv.relations}
    count = len(q.vertices)
    level = [(v, ()) for v in q.vertices]
    while level:
        nxt = []
        for tgt, path in level:
            for ar in q.out_arrows(tgt):
                if path and (path[-1], ar.name) in dead:
                    continue
                nxt.append((ar.target, path + (ar.name,)))
        count += len(nxt)
        level = nxt
        assert all(len(p) <= 20 for _, p in level)
    assert tt.dimension() == count


def test_blocks_are_stored_only_for_pairs_joined_by_a_path():
    a = glued_twelve_gqs(2)
    t = TruncatedAlgebra(a)
    q = a.quiver
    dead = [r.terms[0][1] for r in a.relations]
    joined = set()

    def walk(src, at, arrows):
        if any(arrows[k:k + len(m)] == m
               for m in dead for k in range(len(arrows) - len(m) + 1)):
            return
        assert len(arrows) < t.bound
        joined.add((src, at))
        for ar in q.out_arrows(at):
            walk(src, ar.target, arrows + (ar.name,))

    for v in q.vertices:
        walk(v, v, ())
    assert len(q.vertices) == 24 and len(joined) < 24 * 24 // 4
    assert set(t._paths) == set(t._free) == joined
    assert set(t.nonzero_blocks()) == {
        (u, v) for u in q.vertices for v in q.vertices if t.dim_block(u, v)}


def test_unreached_pair_is_the_zero_block():
    t5 = TruncatedAlgebra(load_fixture("a5-chain"))
    assert t5.dim_block("5", "1") == 0
    assert t5.zero("5", "1") == []
    assert t5.free_positions("5", "1") == ()
    assert t5.basis_vectors("5", "1") == []
    assert t5.path_vec("5", "1", ()) == []
    assert t5.coords("5", "1", []) == []
    assert t5.mult("5", "1", "2", [], t5.path_vec("1", "2", ("alpha",))) == []
    assert ("5", "1") not in t5.nonzero_blocks()
