"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with -s to see the lines on success; pytest -v shows one status line
per criterion either way.
"""

import itertools
import math
import random
import shutil
import subprocess
import sys
import time

import numpy as np

from qsa.presentation import (
    parse_presentation, presentations_isomorphic, opposite,
)
from qsa.classify import classify_vertices, special_vertices
from qsa.transform import blow_up, mutate_at, reduce_step, reduce_to_skewed_gentle
from qsa.euler import euler_matrix, euler_eval, is_nonnegative_form
from qsa.covering import (
    detect_local_wild_pattern, find_wild_witness, graph_type, truncated_cover,
)
from qsa.decide import TAME, WILD, decide_derived_type

from conftest import all_fixture_names, fixture_path, load_fixture
from oracles import (
    chi_form_value, commuting_mutation_cases, interior_vertices, random_multigraph,
    sympy_graph_kind, tree_presentations,
)


def _report(num, desc, ok, elapsed, limit=None):
    status = "PASS" if ok and (limit is None or elapsed < limit) else "FAIL"
    bound = f", limit {limit:.0f}s" if limit is not None else ""
    print(f"{status} criterion {num}: {desc} ({elapsed:.2f}s{bound})")
    assert ok, f"criterion {num}: {desc}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s"


# --- 1: classification reproduction ------------------------------------------------


def test_criterion_01_classification_reproduction():
    exe = shutil.which("qsa")
    cmd = [exe] if exe else [sys.executable, "-c",
                             "from qsa.cli import main; main()"]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd + ["classify", fixture_path("twelve-vertex-gqs")],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    # E3/O3 for vertex 3: the local test in force is the class-3 one (the
    # would-be class-4 sink is no sink); see the decisions ledger.
    ok = (proc.returncode == 0
          and "E1 = {4}  O1 = {5, 6}" in lines
          and "E2 = {10}  O2 = {11, 12}" in lines
          and "E3 = {3}  O3 = {1, 2}" in lines
          and "is_gqs: true" in lines
          and sum(" gentle" in ln for ln in lines) == 9)
    _report(1, "classify reproduces the twelve-vertex example", ok, elapsed, 1.0)


# --- 2: blow-up reproduction ---------------------------------------------------------


def test_criterion_02_blow_up_reproduction():
    start = time.perf_counter()
    a5 = load_fixture("a5-chain")
    blown = blow_up(a5, ["1", "3"]).presentation
    expected = parse_presentation(
        "quiver expected\n"
        "vertices: p1 m1 2 p3 m3 4 5\n"
        "arrow ap: p1 -> 2\narrow am: m1 -> 2\n"
        "arrow bp: 2 -> p3\narrow bm: 2 -> m3\n"
        "arrow gp: p3 -> 4\narrow gm: m3 -> 4\n"
        "arrow delta: 4 -> 5\n"
        "relations:\n"
        "ap bp\nap bm\nam bp\nam bm\n"
        "( bp gp ) - ( bm gm )\n")
    ok = (len(blown.relations) == 5
          and bool(presentations_isomorphic(blown, expected)))
    elapsed = time.perf_counter() - start
    _report(2, "blow-up at {1,3} matches the displayed quiver", ok, elapsed, 1.0)


# --- 3: wildness witness --------------------------------------------------------------


def test_criterion_03_wildness_witness():
    start = time.perf_counter()
    wild = load_fixture("three-vertex-wild")
    verdict = decide_derived_type(wild, witness_radius=6, witness_size=8)
    target = load_fixture("expected-delta")
    found = find_wild_witness(wild, radius=6, max_size=8, like=target)
    ok = (verdict.tag == WILD
          and verdict.witness is not None
          and len(verdict.witness.vertices) == 8
          and verdict.witness.shape.label == "Other"
          and found is not None
          and bool(presentations_isomorphic(found.presentation, target)))
    elapsed = time.perf_counter() - start
    _report(3, "decide is Wild with an 8-vertex Other witness", ok, elapsed, 10.0)


# --- 4: reduction pipeline -------------------------------------------------------------


def test_criterion_04_reduction_pipeline():
    start = time.perf_counter()
    cert = reduce_to_skewed_gentle(load_fixture("twelve-vertex-gqs"))
    counts = [len(classify_vertices(parse_presentation(s.before))
                  .exceptional_vertices) for s in cert.steps]
    counts.append(len(classify_vertices(cert.final).exceptional_vertices))
    sp = special_vertices(cert.final)
    ok = (len(cert.steps) == 3
          and counts == [3, 2, 1, 0]
          and classify_vertices(cert.final).is_gentle_presentation
          and len(cert.special) == 3
          and set(cert.special) <= set(sp.special_not_ordinary))
    elapsed = time.perf_counter() - start
    _report(4, "reduction runs 3 steps to a gentle presentation", ok, elapsed, 2.0)


# --- 5: mutation engine vs scripted rewrites --------------------------------------------


def test_criterion_05_mutation_oracle_equivalence():
    start = time.perf_counter()
    c4 = load_fixture("case4-local")
    omega = mutate_at(c4, "4", "minus")
    scripted_omega = parse_presentation(
        "quiver omega\nvertices: 0 1 2 3 4\n"
        "arrow pre: 0 -> 2\narrow astar: 1 -> 4\narrow bstar: 2 -> 4\n"
        "arrow gstar: 4 -> 3\n")
    gamma = mutate_at(omega, "1", "plus")
    scripted_gamma = parse_presentation(
        "quiver gamma\nvertices: 0 1 2 3 4\n"
        "arrow pre: 0 -> 2\narrow atil: 4 -> 1\narrow bstar: 2 -> 4\n"
        "arrow gstar: 4 -> 3\n")
    b4, step4 = reduce_step(c4)
    blown = blow_up(b4, [step4.special_added]).presentation

    before = load_fixture("fork-sink-before")
    after = load_fixture("fork-sink-after")
    stepped = mutate_at(mutate_at(before, "4", "minus"), "5", "minus")

    ok = (bool(presentations_isomorphic(omega, scripted_omega))
          and bool(presentations_isomorphic(gamma, scripted_gamma))
          and bool(presentations_isomorphic(blown, gamma))
          and bool(presentations_isomorphic(stepped, after)))
    elapsed = time.perf_counter() - start
    _report(5, "tilting engine matches the scripted rewrites", ok, elapsed, 5.0)


# --- 6: commutation law -------------------------------------------------------------------


def test_criterion_06_commutation_law():
    start = time.perf_counter()
    cases = commuting_mutation_cases()
    signs = {sign for _, _, _, sign in cases}
    failures = []
    for a, blown, x, sign in cases:
        left = mutate_at(blow_up(a, blown).presentation, x, sign)
        right = blow_up(mutate_at(a, x, sign), blown).presentation
        if not presentations_isomorphic(left, right):
            failures.append((a.quiver.name, blown, x, sign))
    ok = (len(cases) >= 20 and signs == {"minus", "plus"} and not failures)
    elapsed = time.perf_counter() - start
    _report(6, f"blow-up commutes with mutation on {len(cases)} cases",
            ok, elapsed)


# --- 7: Euler cross-validation --------------------------------------------------------------


def test_criterion_07_euler_cross_validation():
    start = time.perf_counter()
    bad = []
    for a in tree_presentations():
        e = euler_matrix(a)
        order = e.vertices
        n = len(order)
        units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        vecs = list(units)
        for i in range(n):
            for j in range(i + 1, n):
                vecs.append(tuple(u + v for u, v in zip(units[i], units[j])))
        if any(euler_eval(e, x) != chi_form_value(a, order, x) for x in vecs):
            bad.append((a.quiver.name, "chain oracle"))
            continue
        # box consistency, exact integer arithmetic via a common denominator
        rep = is_nonnegative_form(e)
        sym = [[e.entries[i][j] + e.entries[j][i] for j in range(n)]
               for i in range(n)]
        den = math.lcm(*(q.denominator for row in sym for q in row))
        m = np.array([[int(q * den) for q in row] for row in sym],
                     dtype=np.int64)
        box = np.array(list(itertools.product(range(-3, 4), repeat=n)),
                       dtype=np.int64)
        values = ((box @ m) * box).sum(axis=1)
        if rep.nonnegative:
            if values.min() < 0:
                bad.append((a.quiver.name, "false nonnegative"))
        else:
            if not (euler_eval(e, rep.witness) == rep.value < 0):
                bad.append((a.quiver.name, "bad witness"))
    ok = not bad
    elapsed = time.perf_counter() - start
    _report(7, "Euler form agrees with the resolution oracle on all trees",
            ok, elapsed, 60.0)


# --- 8: recognizer cross-validation ------------------------------------------------------------


def test_criterion_08_recognizer_cross_validation():
    start = time.perf_counter()
    named = [
        (list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]),
        (["x"], []),
        (["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1")]),
        (["u", "v"], [("u", "v"), ("v", "u")]),
        (["z"], [("z", "z")]),
        (["c", "1", "2", "3", "4"], [("c", str(i)) for i in range(1, 5)]),
        (["c", "1", "2", "3", "4", "5"], [("c", str(i)) for i in range(1, 6)]),
        (["u", "w", "l1", "l2", "l3", "l4"],
         [("u", "w"), ("u", "l1"), ("u", "l2"), ("w", "l3"), ("w", "l4")]),
    ]
    suite = list(named)
    for seed in range(150):
        suite.append(random_multigraph(random.Random(seed)))
    disagreements = [
        (verts, edges)
        for verts, edges in suite
        if graph_type(verts, edges).kind != sympy_graph_kind(verts, edges)]
    ok = not disagreements and len(suite) >= 150
    elapsed = time.perf_counter() - start
    _report(8, f"graph recognizer matches the form signature on "
               f"{len(suite)} graphs", ok, elapsed)


# --- 9: cover properties --------------------------------------------------------------------


def test_criterion_09_cover_properties():
    start = time.perf_counter()
    bad = []
    for name in all_fixture_names():
        a = load_fixture(name)
        for base in a.quiver.vertices:
            for radius in range(1, 7):
                ball = truncated_cover(a, base, radius)
                q = ball.cover.quiver
                if len(q.arrows) != len(q.vertices) - 1:
                    bad.append((name, base, radius, "not a tree"))
                for ar in q.arrows:
                    bar = a.quiver.arrow(ball.arrow_map[ar.name])
                    if (ball.vertex_map[ar.source] != bar.source
                            or ball.vertex_map[ar.target] != bar.target):
                        bad.append((name, base, radius, "bad projection"))
                for mono in ball.cover.monomials:
                    if tuple(ball.arrow_map[x] for x in mono) not in a.monomials:
                        bad.append((name, base, radius, "bad relation"))
                for v in interior_vertices(ball):
                    bv = ball.vertex_map[v]
                    if (sorted(ball.arrow_map[x.name]
                               for x in q.out_arrows(v))
                            != sorted(x.name
                                      for x in a.quiver.out_arrows(bv))
                            or sorted(ball.arrow_map[x.name]
                                      for x in q.in_arrows(v))
                            != sorted(x.name
                                      for x in a.quiver.in_arrows(bv))):
                        bad.append((name, base, radius, "not locally exact"))
    ok = not bad
    elapsed = time.perf_counter() - start
    _report(9, "cover invariants hold on every fixture up to radius 6",
            ok, elapsed)


# --- 10: decision consistency ----------------------------------------------------------------


def test_criterion_10_decision_consistency():
    start = time.perf_counter()
    gentle = ("a5-chain", "gentle-cycle", "kronecker")
    detected = ("two-cycle", "fork-tail-10")
    checks = []
    for name in gentle:
        checks.append(decide_derived_type(load_fixture(name)).tag == TAME)
    for name in detected:
        a = load_fixture(name)
        checks.append(detect_local_wild_pattern(a) is not None)
        checks.append(decide_derived_type(a).tag == WILD)
    checks.append(
        decide_derived_type(load_fixture("twelve-vertex-gqs")).tag == TAME)
    checks.append(
        decide_derived_type(load_fixture("three-vertex-wild")).tag == WILD)
    ok = all(checks)
    elapsed = time.perf_counter() - start
    _report(10, "verdicts line up across the fixture families", ok, elapsed)
