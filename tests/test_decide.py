"""The top-level tame/wild decision across all input families."""

import hashlib
import json

import pytest

import qsa.presentation
from qsa.presentation import (
    QsaError, opposite, parse_presentation,
)
from qsa.decide import (
    GQS_CYCLES, NOT_QUADRATIC_STRING, TAME, TREE_EULER, WILD,
    decide_derived_type,
)

from conftest import load_fixture
from oracles import (
    SIX_VERTEX_TREE_SHAPES, TREE_SHAPES, chain_text, deep_tree_text, relabel,
    tree_presentations,
)


# --- tame with cycles ------------------------------------------------------------


def test_gqs_fixture_is_tame_with_certificate():
    v = decide_derived_type(load_fixture("twelve-vertex-gqs"))
    assert v.tag == TAME and v.branch == GQS_CYCLES and v.tame
    assert v.summary == "TAME (gqs; 3 exceptional vertices reduced)"
    assert len(v.certificate.steps) == 3
    payload = v.to_payload()
    json.dumps(payload)
    assert payload["tag"] == "Tame"
    assert len(payload["certificate"]["steps"]) == 3


def test_gentle_cycle_is_tame_with_empty_certificate():
    v = decide_derived_type(load_fixture("gentle-cycle"))
    assert v.tag == TAME and v.branch == GQS_CYCLES
    assert v.summary == "TAME (gqs; 0 exceptional vertices reduced)"
    assert len(v.certificate.steps) == 0


def test_kronecker_is_tame():
    v = decide_derived_type(load_fixture("kronecker"))
    assert v.tag == TAME and v.branch == GQS_CYCLES
    assert v.summary == "TAME (gqs; 0 exceptional vertices reduced)"


# --- wild with cycles ---------------------------------------------------------------


def test_non_string_cyclic_fixture_is_wild_with_witness():
    v = decide_derived_type(load_fixture("three-vertex-wild"),
                            witness_radius=6, witness_size=8)
    assert v.tag == WILD and v.branch == GQS_CYCLES
    assert v.summary == ("WILD (cycles; not quadratic string, but a wildness "
                         "certificate exists: 8-vertex cover witness)")
    assert v.gqs_violation is None
    assert v.string_violations
    assert v.witness is not None and v.witness.shape.label == "Other"
    payload = v.to_payload()
    json.dumps(payload)
    assert payload["witness"]["shape"] == "Other"


def test_string_but_not_gqs_fixture_is_wild():
    v = decide_derived_type(load_fixture("two-cycle"))
    assert v.tag == WILD and v.branch == GQS_CYCLES
    assert v.summary == ("WILD (cycles; vertex 2 is neither gentle nor "
                         "exceptional)")
    assert v.gqs_violation == "2"
    assert v.pattern is not None and v.pattern.kind == "two-cycle"
    assert not v.string_violations
    json.dumps(v.to_payload())


def test_non_string_input_with_a_local_two_cycle_is_wild():
    # vertex 2 has three out-arrows, so the input is not quadratic string
    a = parse_presentation(
        "quiver t\nvertices: 1 2 3 4 5\narrow f: 1 -> 2\narrow g: 2 -> 1\n"
        "arrow h: 3 -> 2\narrow k: 2 -> 4\narrow m: 2 -> 5\n"
        "relations:\nf g\ng f\nh g\n")
    v = decide_derived_type(a)
    assert v.tag == WILD and v.branch == GQS_CYCLES
    assert v.summary == ("WILD (cycles; not quadratic string, but a wildness "
                         "certificate exists: local two-cycle configuration)")
    assert v.pattern.kind == "two-cycle"
    assert v.string_violations[0] == "vertex 2 is the source of 3 arrows"
    json.dumps(v.to_payload())


# --- trees --------------------------------------------------------------------------


def test_tame_tree_via_euler_form():
    v = decide_derived_type(load_fixture("a5-chain"))
    assert v.tag == TAME and v.branch == TREE_EULER
    assert v.summary == "TAME (tree; Euler form non-negative)"
    assert v.euler is not None and v.nonnegativity.nonnegative
    json.dumps(v.to_payload())


def test_wild_tree_via_euler_form():
    v = decide_derived_type(load_fixture("fork-tail-10"))
    assert v.tag == WILD and v.branch == TREE_EULER
    assert v.summary.startswith("WILD (tree; Euler form negative at (")
    assert not v.nonnegativity.nonnegative
    assert v.nonnegativity.witness
    json.dumps(v.to_payload())


def _payload_bytes(v):
    return json.dumps(v.to_payload(), sort_keys=True).encode()


# Euler-branch verdicts are frozen byte for byte: the matrix, the
# non-negativity flag and, on wild trees, the primitive negative vector.
EULER_FIXTURE_SHA256 = {
    "a5-chain": "3a6acb80ce0c3e18cfb7540229a683d7038dc99c3f0d4450d5b5dab8af3b5927",
    "case4-local": "d791a1be0ef9923daf96fb12067361db53b9a451ee43c2b8a363bd0848f9b661",
    "e3-local": "02768f1a11f1a55dd13c9664d6630204a97ce31fb9a3a5bf2f4ffc079f0760c3",
    "expected-delta": "b8db391116e8b63750269e604fe8dede2826d7bfc786c6e904c191a0fae0b1ea",
    "fork-sink-after": "310927e90905cd065aa5d9f83d6489e9807f6d6e9cd6c8dba5fccd5e8c1102ed",
    "fork-sink-before": "f57b10bdda0b38cddad8ed4767961f6b3035203f92b9ad9f2c0630ec7c92779a",
    "fork-tail-10": "c99cd5a4044239d7ed165e60cd4da6b4100330a10c76e09e28e90311ab7e8448",
    "one-point": "91f2f7ab76c2c84751a06d018015dca3f61a3af84100b7eb9a211a7f179527a4",
}


@pytest.mark.parametrize("name", sorted(EULER_FIXTURE_SHA256))
def test_tree_fixture_verdict_is_frozen(name):
    v = decide_derived_type(load_fixture(name))
    assert v.branch == TREE_EULER
    assert hashlib.sha256(_payload_bytes(v)).hexdigest() == EULER_FIXTURE_SHA256[name]


# Cyclic-branch verdicts at witness radius 6 and size 8 are frozen byte for
# byte too: the wild ones carry the first cover witness the search finds.
COVER_FIXTURE_SHA256 = {
    "kronecker": "82c412242da9352bdbb7f5888140c70bef510c4fb0dbed71f48e39eee4a3adf1",
    "three-vertex-wild": "3a38c6b6eb6bd7bfede0539cdb60cb6bcde364800372fd91aa4e8d76b7444f32",
    "two-cycle": "313c0fb9fc3fe06509154747068eea4220b467bcbee44b033bdbe0e8db6ba468",
}


@pytest.mark.parametrize("name", sorted(COVER_FIXTURE_SHA256))
def test_cover_fixture_verdict_is_frozen(name):
    v = decide_derived_type(load_fixture(name), 6, 8)
    assert hashlib.sha256(_payload_bytes(v)).hexdigest() == COVER_FIXTURE_SHA256[name]


@pytest.mark.parametrize("shapes,max_relations,wild,digest", [
    # every tree on at most five vertices is tame: this pins the matrices
    (TREE_SHAPES, 2, 0,
     "21b2b10da7f8e6b3a51c81e43115b918402bd7eb4772b50e803a2b6402686d3d"),
    # on six vertices the negative vectors appear, in several pivot orders
    (SIX_VERTEX_TREE_SHAPES, 1, 240,
     "06b6bf96d8c6f2d7e8b8068c9fe85db7aa2018a7b6e62a8a16069fc861c431b3"),
])
def test_tree_verdicts_are_frozen(shapes, max_relations, wild, digest):
    h = hashlib.sha256()
    count = 0
    for a in tree_presentations(shapes, max_relations):
        v = decide_derived_type(a)
        count += not v.tame
        h.update(_payload_bytes(v) + b"\n")
    assert count == wild
    assert h.hexdigest() == digest


# Deep trees, frozen byte for byte: the 603-vertex spine of `deep_tree_text`,
# wild with a negative vector that reaches back along the whole spine, and
# the A_1,280 chain, tame.  The text verdict does not build the dense matrix.
@pytest.mark.parametrize("text, tag, digest", [
    (deep_tree_text(600), WILD,
     "d8740e98eb526251f90bf41db2a3adfef84047b696f63348464f6ba798dfab6e"),
    (chain_text(1280), TAME,
     "6f7814719e22bdef8525bd0dcda04801309a8dc27603e3c3e6d36fc2a8630531"),
], ids=["deep600", "chain1280"])
def test_deep_tree_verdict_is_frozen(text, tag, digest):
    v = decide_derived_type(parse_presentation(text))
    assert v.tag == tag and v.branch == TREE_EULER
    assert "entries" not in vars(v.euler)
    assert hashlib.sha256(_payload_bytes(v)).hexdigest() == digest


# --- outside the quadratic string world ------------------------------------------------


def test_binomial_cycle_reports_not_quadratic_string():
    sq = parse_presentation(
        "quiver square\nvertices: 1 2 3 4\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\n"
        "relations:\n( a b ) - ( c d )\n")
    v = decide_derived_type(sq)
    assert v.tag == NOT_QUADRATIC_STRING
    assert v.summary == ("NOT QUADRATIC STRING (the ideal is not generated "
                         "by paths of length two)")
    assert v.string_violations


def test_triple_arrow_wildness_depends_on_search_bounds():
    triple = parse_presentation(
        "quiver triple\nvertices: 1 2\n"
        "arrow a: 1 -> 2\narrow b: 1 -> 2\narrow c: 1 -> 2\n")
    small = decide_derived_type(triple, witness_radius=4, witness_size=6)
    assert small.tag == NOT_QUADRATIC_STRING
    big = decide_derived_type(triple, witness_radius=4, witness_size=8)
    assert big.tag == WILD
    assert big.witness is not None and len(big.witness.vertices) == 7


# --- guards -------------------------------------------------------------------------


def test_decide_requires_connected_quiver():
    with pytest.raises(QsaError, match="connected"):
        decide_derived_type(parse_presentation(
            "quiver two-islands\nvertices: 1 2\nrelations:\n"))


def test_decide_requires_admissible_ideal():
    with pytest.raises(QsaError, match="admissible"):
        decide_derived_type(parse_presentation(
            "quiver lonely-loop\nvertices: 1\narrow d: 1 -> 1\nrelations:\n"))


# --- stability ------------------------------------------------------------------------


def test_decision_is_relabel_stable():
    a = load_fixture("twelve-vertex-gqs")
    vmap = {v: f"n{int(v) * 7 % 13}" for v in a.quiver.vertices}
    b = relabel(a, vmap)
    va, vb = decide_derived_type(a), decide_derived_type(b)
    assert (va.tag, va.branch) == (vb.tag, vb.branch)
    assert len(va.certificate.steps) == len(vb.certificate.steps)


def test_decision_is_opposite_stable():
    for name in ("twelve-vertex-gqs", "gentle-cycle", "two-cycle",
                 "three-vertex-wild"):
        a = load_fixture(name)
        va = decide_derived_type(a, witness_radius=6, witness_size=8)
        vb = decide_derived_type(opposite(a), witness_radius=6, witness_size=8)
        assert va.tag == vb.tag, name
        assert va.branch == vb.branch == GQS_CYCLES, name


# --- one validation per presentation ----------------------------------------------


@pytest.mark.parametrize("name", ["two-cycle", "three-vertex-wild", "a5-chain"])
def test_decide_runs_the_admissibility_automaton_once(monkeypatch, name):
    automaton = qsa.presentation._monomial_admissibility
    calls = []

    def counting(a):
        calls.append(a)
        return automaton(a)

    monkeypatch.setattr(qsa.presentation, "_monomial_admissibility", counting)
    decide_derived_type(load_fixture(name), witness_radius=4, witness_size=6)
    assert len(calls) == 1
