import os

from qsa.presentation import AlgebraPresentation, Arrow, Quiver, parse_presentation

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name + ".qsa")


def load_fixture(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def all_fixture_names():
    names = [f[:-4] for f in os.listdir(FIXTURES) if f.endswith(".qsa")]
    return sorted(names)


def glued_twelve_gqs(k):
    """k copies of twelve-vertex-gqs, vertex 8 of copy c - 1 joined to vertex
    8 of copy c by an arrow l_c with relation l_c mu_c; the result is gqs."""
    a = load_fixture("twelve-vertex-gqs")
    q = a.quiver
    verts, arrows, rels = [], [], []
    for c in range(1, k + 1):
        verts += [f"{v}_{c}" for v in q.vertices]
        arrows += [Arrow(f"{ar.name}_{c}", f"{ar.source}_{c}", f"{ar.target}_{c}")
                   for ar in q.arrows]
        rels += [[(1, [f"{x}_{c}" for x in r.terms[0][1]])] for r in a.relations]
        if c > 1:
            arrows.append(Arrow(f"l_{c}", f"8_{c - 1}", f"8_{c}"))
            rels.append([(1, [f"l_{c}", f"mu_{c}"])])
    return AlgebraPresentation(Quiver(f"glued{k}", verts, arrows), rels)


def record_automaton_work(monkeypatch):
    """Two lists that collect, from now on, every object whose prefix
    automaton is walked and every Gröbner completion, as (quiver,
    relations)."""
    from qsa import presentation
    walked, completed = [], []
    automaton, complete = presentation._prefix_automaton, presentation._GroebnerBasis.__init__

    def walk(words):
        walked.append(words)
        return automaton(words)

    def completion(self, quiver, relations, limit):
        completed.append((quiver, tuple(relations)))
        complete(self, quiver, relations, limit)

    monkeypatch.setattr(presentation, "_prefix_automaton", walk)
    monkeypatch.setattr(presentation._GroebnerBasis, "__init__", completion)
    return walked, completed


def each_once(objects):
    """True when no object of the list is there twice; the list keeps each
    alive, so ids tell them apart."""
    return len({id(x) for x in objects}) == len(objects)
