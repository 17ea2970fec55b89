"""Blow-ups, sink/source mutations, and the reduction to a gentle form."""

import hashlib
import json
import sys

import pytest

from qsa.presentation import (
    QsaError, AlgebraPresentation, Arrow, Quiver, opposite,
    parse_presentation, presentations_isomorphic, serialize_presentation, validate,
)
from qsa import _algebra, _endo, classify, decide, presentation, transform
from qsa._algebra import TruncatedAlgebra
from qsa._linalg import identity, rref
from qsa.classify import VertexClassification, classify_vertices, special_vertices
from qsa.cli import run_cli
from qsa.decide import decide_derived_type
from qsa.transform import (
    CASE_REWRITE, DIRECT_BLOWUP,
    blow_up, certificate_to_json, mutate_at, reduce_step,
    reduce_to_skewed_gentle,
)

from conftest import (
    all_fixture_names, each_once, fixture_path, load_fixture, glued_twelve_gqs,
    record_automaton_work,
)
from oracles import (
    chain_text, commuting_mutation_cases, glued_reduction_inputs, loose_loop_text,
    random_mutation_texts, random_reducing_texts, trace_form_radical,
)


# --- blow-up -----------------------------------------------------------------


def test_blow_up_chain_at_two_vertices():
    spec = blow_up(load_fixture("a5-chain"), ["1", "3"])
    b = spec.presentation
    assert spec.vertex_map == {"1": ("1+", "1-"), "3": ("3+", "3-")}
    assert spec.arrow_map["alpha"] == ("alpha+", "alpha-")
    assert spec.arrow_map["beta"] == ("beta+", "beta-")
    assert spec.arrow_map["gamma"] == ("gamma+", "gamma-")
    assert spec.arrow_map["delta"] == ("delta",)
    monos = {r.terms[0][1] for r in b.relations if r.is_monomial}
    assert monos == {("alpha+", "beta+"), ("alpha-", "beta-"),
                     ("alpha+", "beta-"), ("alpha-", "beta+")}
    combos = [r for r in b.relations if not r.is_monomial]
    assert len(combos) == 1
    assert combos[0].terms[0][1] == ("beta+", "gamma+")
    assert combos[0].terms[1][1] == ("beta-", "gamma-")
    assert combos[0].terms[1][0] == -1


def test_blow_up_middle_of_free_chain_gives_one_binomial():
    a3 = parse_presentation(
        "quiver a3\nvertices: 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n")
    b3 = blow_up(a3, ["2"]).presentation
    assert len(b3.relations) == 1 and not b3.relations[0].is_monomial
    assert b3.relations[0].terms[0][1] == ("a+", "b+")


def test_blow_up_sink_doubles_arrow_without_relations():
    a2 = parse_presentation("quiver a2\nvertices: 1 2\narrow a: 1 -> 2\n")
    b2 = blow_up(a2, ["2"]).presentation
    assert not b2.relations
    assert {ar.name for ar in b2.quiver.arrows} == {"a+", "a-"}


def test_disjoint_blow_ups_compose():
    a5 = load_fixture("a5-chain")
    two = blow_up(blow_up(a5, ["1"]).presentation, ["3"]).presentation
    one = blow_up(a5, ["1", "3"]).presentation
    assert presentations_isomorphic(one, two)


def test_blow_up_grows_the_copy_suffixes_past_taken_names():
    # vertex 1+ is taken, so the copies of the blown vertex 1 are 1++ and 1--
    a = parse_presentation(
        "quiver a5\nvertices: 1 1+ 3 4 5\narrow alpha: 1 -> 1+\n"
        "arrow beta: 1+ -> 3\narrow gamma: 3 -> 4\narrow delta: 4 -> 5\n"
        "relations:\nalpha beta\n")
    spec = blow_up(a, ["1"])
    assert spec.vertex_map == {"1": ("1++", "1--")}
    assert serialize_presentation(spec.presentation) == (
        "quiver a5\nvertices: 1+ 1++ 1-- 3 4 5\narrow alpha+: 1++ -> 1+\n"
        "arrow alpha-: 1-- -> 1+\narrow beta: 1+ -> 3\narrow delta: 4 -> 5\n"
        "arrow gamma: 3 -> 4\nrelations:\nalpha+ beta\nalpha- beta\n")


def test_blow_up_grows_a_lift_past_a_taken_arrow_name():
    # the lift alpha+ of alpha at the blown vertex 1 is the name of an
    # arrow whose ends are not blown, so it grows to alpha++; the result
    # is the blow-up of the same quiver with that arrow renamed
    text = ("quiver c\nvertices: 1 2 3 4\narrow alpha: 1 -> 2\narrow beta: 2 -> 3\n"
            "arrow {}: 3 -> 4\nrelations:\nalpha beta\n")
    spec = blow_up(parse_presentation(text.format("alpha+")), ["1"])
    assert spec.arrow_map == {"alpha": ("alpha++", "alpha-"), "alpha+": ("alpha+",),
                              "beta": ("beta",)}
    assert serialize_presentation(spec.presentation) == (
        "quiver c\nvertices: 1+ 1- 2 3 4\narrow alpha+: 3 -> 4\narrow alpha++: 1+ -> 2\n"
        "arrow alpha-: 1- -> 2\narrow beta: 2 -> 3\nrelations:\nalpha++ beta\nalpha- beta\n")
    plain = blow_up(parse_presentation(text.format("omega")), ["1"]).presentation
    assert presentations_isomorphic(spec.presentation, plain)


def test_blow_up_refuses_non_special_vertex():
    # alpha beta lies in the ideal, so vertex 2 is not special
    with pytest.raises(QsaError):
        blow_up(load_fixture("a5-chain"), ["2"])


# --- single reduction steps ---------------------------------------------------


def test_reduce_step_class_three_is_direct_blowup():
    e3 = load_fixture("e3-local")
    b, step = reduce_step(e3)
    assert step.kind == DIRECT_BLOWUP and step.case == 3
    assert step.vertex == "3"
    assert step.removed_vertex == "2"
    assert step.special_added == "1"
    # blowing the reduced algebra back up recovers the original
    back = blow_up(b, ["1"]).presentation
    assert presentations_isomorphic(back, e3)


def test_reduce_step_class_four_rewrites():
    b4, step = reduce_step(load_fixture("case4-local"))
    assert step.kind == CASE_REWRITE and step.case == 4
    assert step.vertex == "3"
    assert step.removed_vertex == "1"
    assert step.special_added == "3"
    assert not b4.relations
    assert {(ar.name, ar.source, ar.target) for ar in b4.quiver.arrows} == {
        ("pre", "0", "2"), ("beta~", "2", "4"), ("gamma~", "4", "3")}


@pytest.mark.parametrize("reduce", [reduce_step, reduce_to_skewed_gentle])
@pytest.mark.parametrize("name, special, message", [
    ("case4-local", ["3"], "vertex '3' is not special"),
    ("case4-local", ["1"], "vertex '1' is special but ordinary"),
    ("twelve-vertex-gqs", ["4"], "vertex '4' is not special"),
    ("twelve-vertex-gqs", ["1"], "vertex '1' is special but ordinary"),
    # not gqs: refused before the special set is read
    ("two-cycle", [], "vertices neither gentle nor exceptional: 2"),
    # not admissible: refused before the classification
    ("loose-loop", ["3"], "the reduction needs a certified admissible ideal"),
])
def test_reduction_refuses_a_bad_special_set(reduce, name, special, message):
    a = parse_presentation(loose_loop_text()) if name == "loose-loop" else load_fixture(name)
    with pytest.raises(QsaError) as err:
        reduce(a, special)
    assert str(err.value) == message


def test_reduce_step_reports_a_missing_exceptional_vertex_first():
    with pytest.raises(QsaError) as err:
        reduce_step(load_fixture("a5-chain"), ["2"])
    assert str(err.value) == "no exceptional vertex to reduce"


def test_reduction_checks_the_special_set_once_per_presentation(monkeypatch):
    # the input's quiver is checked, then the working state after each move
    checked = []
    check = transform._check_special

    def counting_check(q, rel, ds, classification):
        checked.append(q.text() if isinstance(q, transform._WorkingState) else q)
        check(q, rel, ds, classification)

    monkeypatch.setattr(transform, "_check_special", counting_check)
    a = load_fixture("twelve-vertex-gqs")
    cert = reduce_to_skewed_gentle(a, ["8"])
    assert len(cert.steps) == 3
    assert checked == [a.quiver] + [s.after for s in cert.steps]
    checked.clear()
    b, step = reduce_step(a, ["8"])
    assert checked == [a.quiver, serialize_presentation(b)]

# --- full reduction on the twelve-vertex fixture -------------------------------


def test_reduction_steps_on_twelve_vertex():
    cert = reduce_to_skewed_gentle(load_fixture("twelve-vertex-gqs"))
    assert len(cert.steps) == 3
    s1, s2, s3 = cert.steps
    assert (s1.kind, s1.case, s1.vertex, s1.removed_vertex,
            s1.special_added) == (DIRECT_BLOWUP, 3, "3", "2", "1")
    assert (s2.kind, s2.case, s2.vertex, s2.removed_vertex,
            s2.special_added) == (CASE_REWRITE, 1, "4", "5", "4")
    assert (s3.kind, s3.case, s3.vertex, s3.removed_vertex,
            s3.special_added) == (CASE_REWRITE, 2, "10", "11", "10")
    assert cert.special == ("1", "4", "10")


def test_reduction_final_presentation_is_gentle():
    cert = reduce_to_skewed_gentle(load_fixture("twelve-vertex-gqs"))
    fin = cert.final
    assert classify_vertices(fin).is_gentle_presentation
    assert set(fin.quiver.vertices) == {
        "1", "3", "4", "6", "7", "8", "9", "10", "12"}
    arrows = {(ar.name, ar.source, ar.target) for ar in fin.quiver.arrows}
    assert arrows == {
        ("alpha", "1", "3"), ("gamma~", "3", "6"), ("lambda~", "6", "4"),
        ("rho~", "4", "7"), ("mu", "8", "7"), ("kappa", "7", "9"),
        ("eta~", "9", "12"), ("tau~", "12", "10"), ("epsilon~", "10", "9")}
    monos = {r.terms[0][1] for r in fin.relations}
    assert monos == {("alpha", "gamma~"), ("rho~", "kappa"),
                     ("epsilon~", "eta~")}
    sp = special_vertices(fin)
    assert set(cert.special) <= set(sp.special_not_ordinary)


def test_rewire_grows_the_tilde_past_taken_names(tmp_path, capsys):
    # an arrow gamma~ is taken, so the class-1 step names its copy of
    # gamma gamma~~; the verdict is unchanged
    with open(fixture_path("twelve-vertex-gqs"), encoding="utf-8") as fh:
        text = fh.read().replace(" 12\n", " 12 13\n", 1).replace(
            "relations:\n", "arrow gamma~: 13 -> 8\nrelations:\n")
    path = tmp_path / "gqs13.qsa"
    path.write_text(text)
    cert = reduce_to_skewed_gentle(parse_presentation(text))
    fin = cert.final
    assert {(ar.name, ar.source, ar.target) for ar in fin.quiver.arrows} == {
        ("alpha", "1", "3"), ("gamma~", "13", "8"), ("gamma~~", "3", "6"),
        ("lambda~", "6", "4"), ("rho~", "4", "7"), ("mu", "8", "7"),
        ("kappa", "7", "9"), ("eta~", "9", "12"), ("tau~", "12", "10"),
        ("epsilon~", "10", "9")}
    assert {r.terms[0][1] for r in fin.relations} == {
        ("alpha", "gamma~~"), ("rho~", "kappa"), ("epsilon~", "eta~")}
    assert run_cli(["decide", str(path)]) == 0
    assert capsys.readouterr().out == "TAME (gqs; 3 exceptional vertices reduced)\n"


def test_certificate_json_shape():
    cert = reduce_to_skewed_gentle(load_fixture("twelve-vertex-gqs"))
    js = json.loads(certificate_to_json(cert))
    assert len(js["steps"]) == 3
    assert js["special"] == ["1", "4", "10"]
    assert js["steps"][1]["new_arrows"] == [["gamma~", "3", "6"],
                                            ["lambda~", "6", "4"],
                                            ["rho~", "4", "7"]]


def test_certificate_steps_replay():
    # every recorded intermediate parses, and the exceptional count drops by
    # one per step
    cert = reduce_to_skewed_gentle(load_fixture("twelve-vertex-gqs"))
    counts = []
    for step in cert.steps:
        before = parse_presentation(step.before)
        counts.append(len(classify_vertices(before).exceptional_vertices))
    counts.append(len(classify_vertices(cert.final).exceptional_vertices))
    assert counts == [3, 2, 1, 0]


# Certificates are frozen byte for byte.  With their opposites, the three
# fixtures cover every exceptional class: twelve-vertex-gqs reduces classes
# 3, 1, 2 (its opposite 5, 1, 2), e3-local class 3 (5), case4-local class 4 (6).
# "glued-k" is glued_twelve_gqs(k), whose 3k moves repeat classes 3, 1, 2
# (5, 1, 2 on the opposite) with relations kept across copies.
CERTIFICATE_SHA256 = {
    ("twelve-vertex-gqs", "as-is"):
        "0a094e228c7e113c2d38601c5d7dcd668b7950bf8ddeaa8680c0e2e9b098405a",
    ("twelve-vertex-gqs", "opposite"):
        "a7e973f42589e89571090f2f71d17307f20948accea43ca9abc98ef46b1e94e9",
    ("e3-local", "as-is"):
        "08de37828d613deed6c3fa90f27eb1592ee90306c648c57490176ea625853dfe",
    ("e3-local", "opposite"):
        "47c42176956e5ec35e0ac0bce3f7f8d5b3d576516b53f90d0b6f322dc9ea71fd",
    ("case4-local", "as-is"):
        "784e15a8a4f1a4dae05c226d32410538245bfa7b08c925d3374e7f7c91dafbfc",
    ("case4-local", "opposite"):
        "835e013f8006a10cd05bef3b2c5f54d92182f12a5309610720cdc8bcdf382d0c",
    ("glued-1", "as-is"):
        "9c91b6b8abd3dee1455ef6181c4e36957d294f9d4377b0490bc3d5ccd05623c7",
    ("glued-1", "opposite"):
        "add89d91f140fe693632d4665ec8733cd100ef066345204e922ba10000927353",
    ("glued-2", "as-is"):
        "b2e31760e623977ee4f3832d753bf4cfc39b02e44f10534acd8cdc67e8ef007f",
    ("glued-2", "opposite"):
        "b16230710465acddde73083411523e6e17042c6cfcfe3a48ef4a57ddc57d740a",
    ("glued-3", "as-is"):
        "51072058c09ade7cd478c43fbf92bb86ed862a9e43052fc3a5a4f89a170d1d88",
    ("glued-3", "opposite"):
        "7d5c9d19a265d604e811d7aa866adb2372740c23fce7427438d0ba8c94b50f61",
    ("glued-4", "as-is"):
        "5ce5cb995d73a100a8db01d03be7775463f50e0d8bcbe381889fdd6dafe8daaa",
    ("glued-4", "opposite"):
        "38357003f1da93e9fd0fca10b2f35ca09073703246c451d6a0b0ef6d4934cc40",
}


@pytest.mark.parametrize("name,side", sorted(CERTIFICATE_SHA256))
def test_certificate_digest_is_frozen(name, side):
    if name.startswith("glued-"):
        a = glued_twelve_gqs(int(name[len("glued-"):]))
    else:
        a = load_fixture(name)
    cert = reduce_to_skewed_gentle(opposite(a) if side == "opposite" else a)
    digest = hashlib.sha256(certificate_to_json(cert).encode()).hexdigest()
    assert digest == CERTIFICATE_SHA256[(name, side)]


# The reduction corpora, frozen as one SHA-256 per family over, for each
# input in order: its certificate JSON, the result and the step of one
# `reduce_step` (presentation text, then the step's fields as JSON), and
# the `qsa classify --json` document.  glued: `glued_reduction_inputs()`,
# 24 inputs, 468 moves; random: `random_reducing_texts(seed)` at seeds 1
# and 2, 120 inputs each.
REDUCTION_CORPUS_SHA256 = {
    "glued": "344fd8004054299665c56ed10dd5683b696ed845124b416914de15ea7287b1b9",
    "random": "c31406c2acb28b98a1e7d58d267b20db45a4f57928db8c34aaba80a448ac442b",
}


def _reduction_corpus_digest(texts, tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "input.qsa"
    for text in texts:
        a = parse_presentation(text)
        digest.update(certificate_to_json(reduce_to_skewed_gentle(a)).encode())
        b, step = reduce_step(a)
        digest.update(serialize_presentation(b).encode())
        digest.update(json.dumps(step._asdict()).encode())
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = run_cli(["classify", str(path), "--json"])
        digest.update(capsys.readouterr().out.encode())
        assert code == 0
    return digest.hexdigest()


@pytest.mark.parametrize("family", sorted(REDUCTION_CORPUS_SHA256))
def test_reduction_corpus_digest_is_frozen(family, tmp_path, capsys):
    if family == "glued":
        texts = list(map(serialize_presentation, glued_reduction_inputs()))
    else:
        texts = random_reducing_texts(1) + random_reducing_texts(2)
    assert _reduction_corpus_digest(texts, tmp_path, capsys) == \
        REDUCTION_CORPUS_SHA256[family]


def _count_calls(monkeypatch, func, modules=None):
    """Count calls to `func` made through any qsa module that imported it,
    or through the names in `modules` only."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "qsa" or mod_name.startswith("qsa."):
            if modules is not None and mod_name not in modules:
                continue
            for attr, value in list(vars(mod).items()):
                if value is func:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_reduction_classifies_each_presentation_once(monkeypatch):
    # the input is classified afresh, each move's result by delta on the
    # working state: one pass of the classification routine each
    a = load_fixture("twelve-vertex-gqs")
    classified = _count_calls(monkeypatch, classify_vertices)
    passes = _count_calls(monkeypatch, classify._reclassify)
    cert = reduce_to_skewed_gentle(a)
    assert len(cert.steps) == 3
    assert len(classified) == 1 and len(passes) == len(cert.steps) + 1

    # the opposite reduces classes 5, 1, 2; a class 5 step reads one vertex
    # of the opposite algebra, not its whole classification
    del classified[:], passes[:]
    cert = reduce_to_skewed_gentle(opposite(a))
    assert len(cert.steps) == 3
    assert len(classified) == 1 and len(passes) == len(cert.steps) + 1

    validated = _count_calls(monkeypatch, validate)
    assert decide_derived_type(a).tame
    assert len(validated) == 1


def _reducing_fixtures():
    """Every fixture with an exceptional vertex, as is and opposite."""
    out = []
    for name in all_fixture_names():
        a = load_fixture(name)
        if a.is_monomial and a.is_quadratic:
            c = classify_vertices(a)
            if c.gqs and c.exceptional_vertices:
                out += [(name, "as-is"), (name, "opposite")]
    return out


def _reduction_input(name, side):
    if name == "glued":
        return glued_twelve_gqs(side)
    a = load_fixture(name)
    return opposite(a) if side == "opposite" else a


def _recorded_moves(monkeypatch, check):
    """Call `check(state, step)` after each move of a reduction, while the
    working state holds the move's result."""
    seen = []
    move = transform._move

    def recording(state, *args):
        step = move(state, *args)
        check(state, step)
        seen.append(step)
        return step

    monkeypatch.setattr(transform, "_move", recording)
    return seen


_TABLES = ("classes", "exceptional", "ordinary", "diagnostics", "violations",
           "ordinary_vertices", "exceptional_vertices", "is_quadratic_string",
           "gqs", "is_gentle_presentation")


def _assert_same_classification(c, reference):
    """Equal stored facts, and equal derived tables and flags: `==` reads
    only the stored facts."""
    assert c == reference
    for table in _TABLES:
        assert getattr(c, table) == getattr(reference, table), table


@pytest.mark.parametrize(
    "name,side", _reducing_fixtures() + [("glued", k) for k in range(1, 5)])
def test_move_classification_equals_fresh_one(monkeypatch, name, side):
    # after each move, the classification the working state carries equals
    # a fresh classification of the move's text, table by table
    def check(state, step):
        b = parse_presentation(step.after)
        fresh = classify_vertices(b)
        carried = state.classification
        assert isinstance(carried.exceptional_vertices, list)
        c = VertexClassification(
            carried.raw_classes, carried.marks, carried.vertex_faults,
            carried.arrow_faults, carried.others, tuple(carried.exceptional_vertices))
        _assert_same_classification(c, fresh)
        # the neighbour scan the special-set check reads, on the state
        for v in b.quiver.vertices:
            assert classify._ordinary_in(state, carried, v) == fresh.classes[v].ordinary_in

    seen = _recorded_moves(monkeypatch, check)
    cert = reduce_to_skewed_gentle(_reduction_input(name, side))
    assert seen and len(seen) == len(cert.steps)
    assert cert.final == parse_presentation(cert.steps[-1].after)


def test_tame_decision_derives_no_classification_table(monkeypatch):
    # a reduction reads only the stored facts; the tables a report reads
    # are derived on first read, so a tame decision derives none, neither
    # on the input's classification nor on the one the moves carry
    made = []

    def recording(a):
        made.append(classify_vertices(a))
        return made[-1]

    monkeypatch.setattr(decide, "classify_vertices", recording)
    carried = []
    seen = _recorded_moves(monkeypatch, lambda state, step: carried.append(
        "_tables" in vars(state.classification)))
    verdict = decide_derived_type(glued_twelve_gqs(4))
    assert verdict.tame and len(seen) == len(verdict.certificate.steps) == 12
    assert len(made) == 1 and carried == [False] * 12
    assert "_tables" not in vars(made[0])
    assert made[0].classes and "_tables" in vars(made[0])


def test_reducing_fixtures_cover_every_class():
    cases = set()
    for name, side in _reducing_fixtures():
        cases.update(s.case for s in reduce_to_skewed_gentle(
            _reduction_input(name, side)).steps)
    assert cases == {1, 2, 3, 4, 5, 6}


def _count_method(monkeypatch, cls, name):
    calls = []
    method = getattr(cls, name)

    def counting(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(cls, name, counting)
    return calls


def _move_costs(monkeypatch, a):
    """Per reduction move: (vertices classified, identifiers checked,
    relations added, arrow lines formatted, whole-quiver connectivity
    checks, special vertices tested, sort keys computed by the
    classification and the reduction, vertex lookups on the working
    state)."""
    with monkeypatch.context() as mp:
        counters = [
            _count_calls(mp, classify._is_gentle_vertex),
            _count_calls(mp, presentation._check_id),
            _count_calls(mp, presentation._relation_line),
            _count_calls(mp, presentation._arrow_line),
            _count_calls(mp, presentation._is_connected),
            _count_calls(mp, classify._is_special),
            _count_calls(mp, presentation.natural_key, ("qsa.classify", "qsa.transform")),
            _count_method(mp, transform._WorkingState, "has_vertex"),
        ]
        costs = []
        move = transform._move

        def counting(*args):
            before = [len(c) for c in counters]
            out = move(*args)
            costs.append(tuple(len(c) - n for c, n in zip(counters, before)))
            return out

        mp.setattr(transform, "_move", counting)
        reduce_to_skewed_gentle(a)
    return costs


def test_move_cost_does_not_grow_with_the_presentation(monkeypatch):
    # a move edits the working state in place: only the new arrows and
    # relations are checked and formatted, and the quiver is not walked for
    # connectivity again; its classification is patched at the vertices the
    # move touched, and only the carried special vertices there are tested
    # again; so every count is the same for k = 2 and k = 6, and the
    # opposite (classes 5, 1, 2) costs the same
    for side in (lambda a: a, opposite):
        two = _move_costs(monkeypatch, side(glued_twelve_gqs(2)))
        six = _move_costs(monkeypatch, side(glued_twelve_gqs(6)))
        assert len(two) == 6 and len(six) == 18
        assert set(two) == set(six)
        assert max(c[0] for c in six) < len(glued_twelve_gqs(1).quiver.vertices)
        # no connectivity check, and one sort key per new arrow, the only
        # name the move keys; every other count is nonzero on some move
        assert all(c[4] == 0 and c[6] == c[3] for c in six)
        assert all(any(c[i] for c in six) for i in (0, 1, 2, 3, 5, 6, 7))


def test_opposite_reduction_builds_no_more_relations(monkeypatch):
    # classes 5 and 6 are rewritten in place, not through two opposites
    built = {}
    for side in ("as-is", "opposite"):
        a = glued_twelve_gqs(6)
        a = opposite(a) if side == "opposite" else a
        serialize_presentation(a)
        with monkeypatch.context() as mp:
            built[side] = _count_calls(mp, presentation._relation_line)
            assert len(reduce_to_skewed_gentle(a).steps) == 18
    assert 0 < len(built["opposite"]) <= len(built["as-is"])


def _lone_before(q, *ends):
    return {v: transform._lone_arrow(q, v) for v in ends}


def _reclassified(a, previous, dirty):
    """`previous` copied and updated for `a` at `dirty` by `_reclassify`,
    as a reduction updates the classification it carries; `previous` is
    left as it is, and the connectivity of `a` is not checked."""
    c = VertexClassification(
        previous.raw_classes.copy(), previous.marks.copy(), previous.vertex_faults.copy(),
        previous.arrow_faults.copy(), previous.others, list(previous.exceptional_vertices))
    classify._reclassify(a.quiver, classify._quadratic_pairs(a), c, dirty)
    c.exceptional_vertices = tuple(c.exceptional_vertices)
    return c


@pytest.mark.parametrize("name,side", _reducing_fixtures())
def test_classification_reuse_after_any_added_arrow(name, side):
    # one arrow more, anywhere: it can break the string conditions or take
    # a single source or sink away from an exceptional neighbour; reading
    # the rest from the old classification must match a fresh one, both ways
    a = _reduction_input(name, side)
    q = a.quiver
    fresh = classify_vertices(a)
    seen = set()   # the kinds of change the added arrow made
    for u in q.vertices:
        for w in q.vertices:
            b = AlgebraPresentation(
                Quiver(q.name, q.vertices, q.arrows + (Arrow("extra", u, w),)),
                a.relations)
            dirty = transform._dirty_vertices(b.quiver, _lone_before(q, u, w))
            c = classify_vertices(b)
            _assert_same_classification(_reclassified(b, fresh, dirty), c)
            _assert_same_classification(_reclassified(a, c, dirty), fresh)
            if not c.is_quadratic_string:
                seen.add("string")
            if any(c.classes[v].kind != fresh.classes[v].kind
                   for v in dirty - {u, w}):
                seen.add("neighbour")
    assert seen == {"string", "neighbour"}


@pytest.mark.parametrize("name,side", _reducing_fixtures())
def test_classification_reuse_after_any_removed_arrow(name, side):
    # one arrow fewer, with the relations through it: its ends lose an
    # arrow, a neighbour may become a single source or sink, and the quiver
    # may fall apart (every vertex classified again from the empty
    # classification, which skips the connectivity check, is the reference
    # then); the patched classification must match table by table, and the
    # one it was patched from must still classify its own presentation
    a = _reduction_input(name, side)
    q = a.quiver
    fresh = classify_vertices(a)
    empty = VertexClassification({}, {}, {}, {}, 0, ())
    for ar in q.arrows:
        b = AlgebraPresentation(
            Quiver(q.name, q.vertices, [x for x in q.arrows if x != ar]),
            [r for r in a.relations if ar.name not in r.arrow_names])
        patched = _reclassified(
            b, fresh, transform._dirty_vertices(b.quiver, _lone_before(q, *ar[1:])))
        _assert_same_classification(patched, _reclassified(b, empty, b.quiver.vertices))
        _assert_same_classification(fresh, classify_vertices(a))


# --- sink/source mutations -----------------------------------------------------


def test_mutation_reverses_arrow_at_sink():
    a3 = parse_presentation(
        "quiver a3\nvertices: 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n")
    m = mutate_at(a3, "3", "minus")
    exp = parse_presentation(
        "quiver x\nvertices: 1 2 3\narrow a: 1 -> 2\narrow b: 3 -> 2\n")
    assert presentations_isomorphic(m, exp)


def test_mutation_reverses_double_arrow():
    mk = mutate_at(load_fixture("kronecker"), "2", "minus")
    exp = parse_presentation(
        "quiver x\nvertices: 1 2\narrow a: 2 -> 1\narrow b: 2 -> 1\n")
    assert presentations_isomorphic(mk, exp)


def test_mutations_connect_case_four_to_its_blowup():
    c4 = load_fixture("case4-local")
    omega = mutate_at(c4, "4", "minus")
    exp_omega = parse_presentation(
        "quiver omega\nvertices: 0 1 2 3 4\n"
        "arrow pre: 0 -> 2\narrow astar: 1 -> 4\narrow bstar: 2 -> 4\n"
        "arrow gstar: 4 -> 3\n")
    assert presentations_isomorphic(omega, exp_omega)

    gamma = mutate_at(omega, "1", "plus")
    exp_gamma = parse_presentation(
        "quiver gamma\nvertices: 0 1 2 3 4\n"
        "arrow pre: 0 -> 2\narrow atil: 4 -> 1\narrow bstar: 2 -> 4\n"
        "arrow gstar: 4 -> 3\n")
    assert presentations_isomorphic(gamma, exp_gamma)

    b4, step4 = reduce_step(c4)
    blown = blow_up(b4, [step4.special_added]).presentation
    assert presentations_isomorphic(blown, gamma)


def test_mutation_round_trip_at_chain_end():
    a5 = load_fixture("a5-chain")
    m5 = mutate_at(a5, "5", "minus")
    exp5 = parse_presentation(
        "quiver x\nvertices: 1 2 3 4 5\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\narrow d: 5 -> 4\n"
        "relations:\na b\n")
    assert presentations_isomorphic(m5, exp5)
    assert presentations_isomorphic(mutate_at(m5, "5", "plus"), a5)


def test_mutation_chain_on_fork():
    before = load_fixture("fork-sink-before")
    after = load_fixture("fork-sink-after")
    step1 = mutate_at(before, "4", "minus")
    step2 = mutate_at(step1, "5", "minus")
    assert presentations_isomorphic(step2, after)


# Mutation outputs are frozen byte for byte: per fixture, one SHA-256 over
# every vertex and both signs of the serialized result, or of the refusal.
MUTATION_SHA256 = {
    "a5-chain": "4cf3c9d3874ce23a757baba5c18e53d41027444c0c380aa28734dd4c46ff6d5b",
    "case4-local": "9fbb953b34a3d10590937b7c6af3980a9fc708998f9452a6ccee73ce79ddaa14",
    "e3-local": "01a23abe5a4b6de9c3adc051fecbc46ecbc904eb8b33c4ca5ce0a88e9b742b8d",
    "expected-delta": "24af78ba3277cef75f66e0230a1f61e0d472778b1e787725225896235f865799",
    "fork-sink-after": "c8162ac9604885430874c7be9e744eca9d47d70b024a01b0938beaa12cb23992",
    "fork-sink-before": "242613a26fa721e14364de01a4ad2b906e389c4428548dfe9ef8856156ed3471",
    "fork-tail-10": "1d74a117953f456a874ddd262f4bd8df28e386ba73ce5cb02278e28ddcb75361",
    "gentle-cycle": "68b774e7076c00be57069d416e2502aae5a7ff6c193484adf429bb2687f30355",
    "kronecker": "a50ebcb8fc6c5c2a0f39848749172f9175a2ff3752e7d8b94acc41a1184ef960",
    "one-point": "d16ec4d7a78a8e524e1c144184536a78178820be5a66f5997b575e037fddb33d",
    "three-vertex-wild": "bddaf866b94c133a591f9891b82cba0d42d7d326a524e492182415b3f7762ca8",
    "twelve-vertex-gqs": "0ec6a7cf37536486bdc97c71ef708e1cd3414381760a654de03311796940d1f8",
    "two-cycle": "7c86a4088fbe5d3dbe5008c87dd44a480f8108779c7d857939dc4fdc87ab6732",
}


@pytest.mark.parametrize("name", sorted(MUTATION_SHA256))
def test_mutation_digest_is_frozen(name):
    a = load_fixture(name)
    h = hashlib.sha256()
    for x in a.quiver.vertices:
        for sign in ("minus", "plus"):
            try:
                out = serialize_presentation(mutate_at(a, x, sign))
            except QsaError as e:
                out = "ERR " + str(e)
            h.update(out.encode() + b"\n")
    assert h.hexdigest() == MUTATION_SHA256[name]


def test_mutation_names_grow_past_a_collision():
    # the pairs (a, b~c) and (a~b, c) of the result both propose the arrow
    # name a~b~c: the first in canonical pair order keeps it and the second
    # grows it; the result is the mutation of the same quiver with plain
    # vertex names, and the plus mutation of the opposite is its opposite
    text = ("quiver collide\nvertices: a a~b b~c c x\narrow p: a -> b~c\n"
            "arrow q: a~b -> c\narrow r: b~c -> x\narrow s: c -> x\narrow z: a~b -> a\n")
    a = parse_presentation(text)
    m = mutate_at(a, "x", "minus")
    assert serialize_presentation(m) == (
        "quiver collide\nvertices: a a~b b~c c x\narrow a~b~a: a~b -> a\n"
        "arrow a~b~c: a -> b~c\narrow a~b~c~: a~b -> c\narrow x~b~c: x -> b~c\n"
        "arrow x~c: x -> c\n")
    plain = parse_presentation(text.replace("a~b", "ab").replace("b~c", "bc"))
    assert presentations_isomorphic(m, mutate_at(plain, "x", "minus"))
    assert mutate_at(opposite(a), "x", "plus") == opposite(m)
    # b -> c~x~a and b~c -> x~a both propose b~c~x~a, but the first has an
    # end in the region and is not in the result: the second keeps its name
    kept = parse_presentation(
        "quiver kept\nvertices: b~c b c~x~a x~a\narrow p: b~c -> b\n"
        "arrow q: b -> c~x~a\narrow r: b~c -> x~a\nrelations:\np q\n")
    m = mutate_at(kept, "c~x~a", "minus")
    assert serialize_presentation(m) == (
        "quiver kept\nvertices: b b~c c~x~a x~a\narrow b~c~c~x~a: b~c -> c~x~a\n"
        "arrow b~c~x~a: b~c -> x~a\narrow c~x~a~b: c~x~a -> b\n")
    assert mutate_at(opposite(kept), "c~x~a", "plus") == opposite(m)


def test_mutation_keeps_length_two_kernel_basis():
    # the two commutativity relations share a path; the kernel vectors of
    # length two are kept as the nullspace gives them, not reduced against
    # each other
    diamonds = parse_presentation(
        "quiver three-diamond\nvertices: 1 2 3 4 5 7\n"
        "arrow a1: 1 -> 2\narrow a2: 1 -> 3\narrow a3: 1 -> 4\n"
        "arrow b1: 2 -> 5\narrow b2: 3 -> 5\narrow b3: 4 -> 5\n"
        "arrow c: 1 -> 7\n"
        "relations:\n( a1 b1 ) - ( a2 b2 )\n( a1 b1 ) - ( a3 b3 )\n")
    assert serialize_presentation(mutate_at(diamonds, "7", "minus")) == (
        "quiver three-diamond\n"
        "vertices: 1 2 3 4 5 7\n"
        "arrow 1~2: 1 -> 2\n"
        "arrow 1~3: 1 -> 3\n"
        "arrow 1~4: 1 -> 4\n"
        "arrow 2~5: 2 -> 5\n"
        "arrow 3~5: 3 -> 5\n"
        "arrow 4~5: 4 -> 5\n"
        "arrow 7~1: 7 -> 1\n"
        "relations:\n"
        "( 1~2 2~5 ) - ( 1~3 3~5 )\n"
        "( 1~2 2~5 ) - ( 1~4 4~5 )\n")


def _live_pairs_near(a, x):
    """The pairs of summands of the tilt at the sink x with an end in x or
    in a source of an arrow into x and a nonzero ambient space: the algebra
    blocks between their degree-0 parts, or e_x A e_x for (x, x)."""
    t = TruncatedAlgebra(a)
    sources = [ar.source for ar in a.quiver.in_arrows(x)]
    near = {x, *sources}

    def degzero(u):
        return sources if u == x else [u]

    vs = a.quiver.vertices
    return {(u, v) for u in vs for v in vs if (u in near or v in near) and (
        u == v == x or any(t.dim_block(bu, bv) for bu in degzero(u)
                           for bv in degzero(v)))}


def _within(a, x, radius):
    """The vertices at most `radius` arrows from x, arrows read either way."""
    reached, frontier = {x}, {x}
    for _ in range(radius):
        frontier = {v for u in frontier for ar in a.quiver.out_arrows(u) + a.quiver.in_arrows(u)
                    for v in ar[1:]} - reached
        reached |= frontier
    return reached


def test_mutation_work_stays_in_the_neighbourhood_of_x(monkeypatch):
    # hom spaces are built only for live pairs with an end in x or its
    # in-neighbours, and the algebra blocks whose paths are built lie
    # within four arrows of x; a plus mutation builds no opposite of `a`
    # and turns round only the arrows at vertices within five arrows of x;
    # the hom spaces, algebra blocks, relation blocks and turned vertices
    # of a mutation do not grow with the number of copies, for either sign;
    # and the final dimension check counts the normal words of the result
    # once, and builds no algebra of it
    built, blocks, algebras, counted, opposites, turned = [], [], [], [], [], []
    turn = presentation.opposite

    class CountingHomSpace(_endo._HomSpace):
        def __init__(self, engine, u, v):
            built.append((u, v))
            super().__init__(engine, u, v)

    class CountingAlgebra(TruncatedAlgebra):
        def __init__(self, a, opposite=False):
            algebras.append((a, opposite, self))
            super().__init__(a, opposite)

    region_blocks = _endo._region_blocks

    def counting_blocks(q, hot):
        found = region_blocks(q, hot)
        blocks.append(len(found))
        return found

    word_counts = _endo._normal_word_counts

    def counting_words(words):
        counted.append(words)
        return word_counts(words)

    def counting_opposite(a):
        opposites.append(a)
        return turn(a)

    missing = presentation._Turned.__missing__

    def counting_turn(self, v):
        turned.append(v)
        return missing(self, v)

    monkeypatch.setattr(_endo, "_HomSpace", CountingHomSpace)
    monkeypatch.setattr(_endo, "TruncatedAlgebra", CountingAlgebra)
    monkeypatch.setattr(_endo, "_region_blocks", counting_blocks)
    monkeypatch.setattr(_endo, "_normal_word_counts", counting_words)
    monkeypatch.setattr(presentation, "opposite", counting_opposite)
    monkeypatch.setattr(_algebra, "opposite_of", counting_opposite)
    monkeypatch.setattr(presentation._Turned, "__missing__", counting_turn)
    for sign in ("minus", "plus"):
        counts = []
        for k in range(1, 9):
            a = glued_twelve_gqs(k)
            x = _cli_edit_vertices(k)[sign == "plus"]
            tilted = a if sign == "minus" else turn(a)
            for seen in (built, blocks, algebras, counted, opposites, turned):
                seen.clear()
            b = mutate_at(a, x, sign)
            assert built and set(built) <= _live_pairs_near(tilted, x)
            assert [(c, o) for c, o, _ in algebras] == [(a, sign == "plus")]
            assert counted == [b]
            assert not opposites
            paths = set(algebras[0][2]._basis)
            assert paths and {v for pair in paths for v in pair} <= _within(a, x, 4)
            assert (sign == "minus") == (not turned) and set(turned) <= _within(a, x, 5)
            counts.append((len(built), blocks[0], len(paths), len(set(turned))))
        # the sink is vertex 6 of a copy for odd k, vertex 12 for even k
        # (the source 5 or 11); for k = 1 the copy has no arrow l in, so
        # one vertex fewer is near x
        assert len(set(counts[2::2])) == len(set(counts[1::2])) == 1, (sign, counts)
        assert counts[0][:3] == counts[2][:3], (sign, counts)
        assert max(n for n, *_ in counts) < len(glued_twelve_gqs(1).quiver.vertices)


def _cli_edit_vertices(k):
    """The sink and the source that perfbench's cli_edit mutates at on k copies."""
    c = (k + 1) // 2
    return f"{6 if k % 2 else 12}_{c}", f"{5 if k % 2 else 11}_{c}"


# Outputs on the glued families, where most pairs of summands are two
# stalks, over the whole cli_edit range k = 1..8: per k, one SHA-256 over
# both signs at the cli_edit sink and source.
GLUED_MUTATION_SHA256 = {
    1: "74c332f6f9292120d768bc0676fc14dab21e5a58de6d84d91c739306b963df01",
    2: "020f9f1ef18247b9e9d68c0eb6aebbc3d3a554ab22ef65b730a657a43b91a12a",
    3: "3eef74bf658af220f3f5bac98375e8c801e1892114595e5c7e124a1113511cb8",
    4: "a455487b060ec79b0fcbab157cdc9a5a8b28a9365be29ebbb619a935ea7d08fe",
    5: "6c4d2a969096738099de843ed570de352a9ca5099651df294f13840d131ce2e3",
    6: "c2e367db33d450dfb14a04718c12341ccfb790eed73782355dd04353a6593466",
    7: "311918d47df8dc397536a487183fa95c2032a4f4fadcb1dac41ccf01f6a7e4b7",
    8: "34934d723ad47c804b69dd5fa2ae7b0ef66e17d0bf3d348a0ab8f6483f4eaf4e",
}


@pytest.mark.parametrize("k", sorted(GLUED_MUTATION_SHA256))
def test_glued_mutation_digest_is_frozen(k):
    a = glued_twelve_gqs(k)
    h = hashlib.sha256()
    for x in _cli_edit_vertices(k):
        for sign in ("minus", "plus"):
            try:
                out = serialize_presentation(mutate_at(a, x, sign))
            except QsaError as e:
                out = "ERR " + str(e)
            h.update(out.encode() + b"\n")
    assert h.hexdigest() == GLUED_MUTATION_SHA256[k]


# Outputs on 60 seeded random presentations (`oracles.random_mutation_texts`),
# alternately acyclic with commuting squares, three-diamonds and a
# non-homogeneous pentagon, and cyclic monomial with tails: one SHA-256 over
# every vertex and both signs, refusals included.
RANDOM_MUTATION_SHA256 = "38635c6e3684becb1e1b1478420134c94939c7c34f32214642772757ebbaf111"


def test_random_mutation_digest_is_frozen():
    h = hashlib.sha256()
    for text in random_mutation_texts():
        a = parse_presentation(text)
        for x in a.quiver.vertices:
            for sign in ("minus", "plus"):
                try:
                    out = serialize_presentation(mutate_at(a, x, sign))
                except QsaError as e:
                    out = "ERR " + str(e)
                h.update(out.encode() + b"\n")
    assert h.hexdigest() == RANDOM_MUTATION_SHA256


def test_cyclic_non_monomial_result_is_completed_and_walked_once(monkeypatch):
    # acyclic20 at vertex 7 (minus) gives a cyclic result with the
    # binomial ( 1~2 2~4 ) - ( 1~3 3~4 ): `validate` completes its
    # relations above the cutoff and walks the leading words, and the
    # dimension count folds that walk, with no second completion at the bound
    text = next(t for t in random_mutation_texts() if t.startswith("quiver acyclic20\n"))
    a = parse_presentation(text)
    walked, completed = record_automaton_work(monkeypatch)
    b = mutate_at(a, "7", "minus")
    rep = validate(b)
    assert not b.is_monomial and rep.certified and rep.nilpotency_bound == 5
    assert not presentation._monomial_admissibility(AlgebraPresentation._trusted(b.quiver, ()))[0]
    assert [q for q, _ in completed].count(b.quiver) == 1
    assert sum(w.quiver == b.quiver and bool(w.monomials) for w in walked) == 1


def test_mutations_walk_and_complete_each_presentation_once(monkeypatch):
    # over the random corpus, at every vertex and both signs: each input is
    # walked and completed once however often it is mutated, and each result
    # is validated, and its dimension counted, on one walk and one completion
    walked, completed = record_automaton_work(monkeypatch)
    results = []
    for text in random_mutation_texts():
        a = parse_presentation(text)
        for x in a.quiver.vertices:
            for sign in ("minus", "plus"):
                try:
                    results.append(mutate_at(a, x, sign))
                except QsaError:
                    pass
    assert len(results) > 100 and any(not b.is_monomial for b in results)
    assert each_once(walked)
    assert len({(id(q), relations) for q, relations in completed}) == len(completed)


def test_mutation_solves_chain_maps_only_at_the_mutated_vertex(monkeypatch):
    # a pair of two stalks is an algebra block; only the live pairs with x
    # as an end solve for chain maps, so the count depends on the
    # neighbourhood of x and not on the number of copies
    solved = []
    solve = _endo._HomSpace._solve

    def counting_solve(self):
        solved.append((self.u, self.v))
        solve(self)

    monkeypatch.setattr(_endo._HomSpace, "_solve", counting_solve)
    counts = []
    for k in range(1, 5):
        a = glued_twelve_gqs(k)
        x = _cli_edit_vertices(k)[0]
        t = TruncatedAlgebra(a)
        sources = [ar.source for ar in a.quiver.in_arrows(x)]

        def degzero(u):
            return sources if u == x else [u]

        vs = a.quiver.vertices
        ends = [(u, v) for u in vs for v in vs if x in (u, v) and (
            u == v == x or any(t.dim_block(bu, bv) for bu in degzero(u)
                               for bv in degzero(v)))]
        solved.clear()
        mutate_at(a, x, "minus")
        assert solved == ends
        counts.append(len(solved))
    # the sink is vertex 6 of a copy for odd k, vertex 12 for even k
    assert counts[2] == counts[0] and counts[3] == counts[1]
    assert max(counts) < len(glued_twelve_gqs(1).quiver.vertices)


def test_radical_at_the_sink_is_every_chain_map_basis_vector_but_the_first():
    # mutate_minus takes the radical of End(R_x) to be the span of the rref
    # chain-map basis without its first vector; the trace form finds the
    # same span at every sink a mutation runs at, of a or of its opposite
    dims = []
    inputs = [load_fixture(n) for n in all_fixture_names()]
    for a in inputs + [parse_presentation(t) for t in random_mutation_texts()]:
        for b in (a, opposite(a)):
            for x in b.quiver.vertices:
                if b.quiver.out_arrows(x) or not b.quiver.in_arrows(x):
                    continue
                try:
                    eng = _endo._Engine(b, x)
                except QsaError:   # not certified or not admissible
                    continue
                closed = identity(eng.dim(x, x))[1:]
                assert rref(trace_form_radical(eng))[0] == closed, (b.name, x)
                dims.append(eng.dim(x, x))
    # 169 sinks, End(R_x) wider than the field at 11 of them
    assert len(dims) > 150 and sum(d > 1 for d in dims) > 10


def test_mutation_guards():
    a5 = load_fixture("a5-chain")
    with pytest.raises(QsaError):
        mutate_at(a5, "1", "minus")   # source, minus needs a sink
    with pytest.raises(QsaError):
        mutate_at(a5, "5", "plus")    # sink, plus needs a source


def test_mutation_refuses_an_unknown_direction():
    with pytest.raises(QsaError) as err:
        mutate_at(load_fixture("a5-chain"), "5", "sideways")
    assert str(err.value) == "unknown mutation direction 'sideways'"


def test_mutation_refuses_a_vertex_without_arrows_in_its_own_terms():
    one = load_fixture("one-point")
    with pytest.raises(QsaError) as minus:
        mutate_at(one, "1", "minus")
    assert str(minus.value) == "minus mutation needs at least one arrow into '1'"
    with pytest.raises(QsaError) as plus:
        mutate_at(one, "1", "plus")
    assert str(plus.value) == "plus mutation needs at least one arrow out of '1'"


@pytest.mark.parametrize("n, relation, x, sign, found, expected", [
    (6, "a1 a2 a3 a4", "6", "minus", 17, 16),
    (7, "a3 a4 a5 a6", "1", "plus", 23, 21),
])
def test_mutation_refuses_a_relation_longer_than_three(n, relation, x, sign, found, expected):
    # A's relation of length four is found neither by the pass-through nor
    # by the kernels of length two and three; the dimension count of the
    # result reports it instead of returning a bigger algebra
    a = parse_presentation(chain_text(n) + f"relations:\n{relation}\n")
    with pytest.raises(QsaError) as err:
        mutate_at(a, x, sign)
    assert str(err.value) == (
        f"relation search exceeds length bound: presentation has dimension "
        f"{found}, endomorphism algebra {expected}")


# --- blow-up and mutation commute when they do not touch ------------------------


@pytest.mark.parametrize("case", commuting_mutation_cases(),
                         ids=lambda c: "%s-%s-%s" % (c[0].quiver.name, c[2], c[3]))
def test_blow_up_commutes_with_remote_mutation(case):
    a, blown, x, sign = case
    left = mutate_at(blow_up(a, blown).presentation, x, sign)
    right = blow_up(mutate_at(a, x, sign), blown).presentation
    assert presentations_isomorphic(left, right)
