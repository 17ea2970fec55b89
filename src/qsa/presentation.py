"""Bounded quiver presentations KQ/I and their basic combinatorics.

A presentation is a finite quiver plus a list of relations; every relation is
a linear combination of parallel paths of length >= 2 with rational
coefficients (a single path being the monomial case). Values are immutable
and canonically ordered, so equal presentations compare and serialize
identically.

Path composition is written left to right: the path (a, b) means "a then b"
and requires target(a) == source(b).
"""

from bisect import insort
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice, permutations, product
from operator import attrgetter
import re
from typing import NamedTuple


__all__ = [
    "QsaError", "Arrow", "Path", "RelationTerm", "Quiver",
    "AlgebraPresentation", "ValidationReport", "parse_presentation",
    "serialize_presentation", "validate", "underlying_graph", "is_tree",
    "path_basis", "presentations_isomorphic", "opposite", "natural_key",
]


class QsaError(Exception):
    """Malformed or out-of-scope input."""


_ID_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_+\-~*.'@]*\Z")


_DIGITS_RE = re.compile(r"([0-9]+)")


def _length_prefix(n):
    """n in decimal after one character counting its digits, so prefixes
    compare as the numbers do.  Unlike chr(n), which stops at 0x10FFFF, it
    holds any length."""
    digits = str(n)
    return chr(len(digits)) + digits


@lru_cache(maxsize=2048)
def natural_key(s):
    r"""Sort key treating digit runs numerically, so v2 sorts before v10.

    The key is one string: each digit run becomes "\x01", the
    `_length_prefix` of its length without leading zeros, and those digits,
    so runs compare as numbers with no int() built; each text run becomes
    "\x02" and the run; and "\x00" and the name close the key.  Every
    identifier character is ' (0x27) or above, so the three markers sort
    below all of them: a digit run before a text run, the end of a name's
    runs before either, and a text run before its own extensions.  Names
    whose digit runs differ only in leading zeros, such as a1 and a01, tie
    on the runs and are ordered by the raw string.  Distinct names never
    share a key, and every canonical order is total.  Memoized in a
    bounded cache: a presentation and the ones derived from it sort the
    same few hundred names over and over.
    """
    runs = _DIGITS_RE.split(s)
    for i in range(1, len(runs), 2):
        digits = runs[i].lstrip("0")
        runs[i] = "\x01" + _length_prefix(len(digits)) + digits
    runs[::2] = ["\x02" + text if text else "" for text in runs[::2]]
    runs.append("\x00" + s)
    return "".join(runs)


def _arrow_line(a):
    return f"arrow {a.name}: {a.source} -> {a.target}"


def _check_id(kind, name):
    if not isinstance(name, str) or not _ID_RE.match(name):
        raise QsaError(f"invalid {kind} identifier {name!r}")


def _as_arrow(a):
    """`a` as an Arrow; anything but a triple of names is refused."""
    try:
        arrow = a if isinstance(a, Arrow) else Arrow(*a)
    except TypeError:
        arrow = None
    if arrow is None or not (isinstance(arrow.name, str) and isinstance(arrow.source, str)
                             and isinstance(arrow.target, str)):
        raise QsaError(f"an arrow is a (name, source, target) triple of strings, not {a!r}")
    return arrow


def _arrow_key(a):
    return natural_key(a.name)


_relation_key = attrgetter("sort_key")


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class Path(NamedTuple):
    source: str
    target: str
    arrows: tuple  # arrow names, left to right; empty for a trivial path

    def __len__(self):
        return len(self.arrows)


# --- quiver ----------------------------------------------------------------


class Quiver:
    """Finite quiver with canonically sorted vertex and arrow lists."""

    def __init__(self, name, vertices, arrows):
        _check_id("quiver name", name)
        try:
            vertices = list(vertices)
            arrows = list(map(_as_arrow, arrows))
        except TypeError:
            raise QsaError("a quiver needs lists of vertices and arrows") from None
        if not vertices:
            raise QsaError("quiver needs at least one vertex")
        for v in vertices:
            _check_id("vertex", v)
        if len(set(vertices)) != len(vertices):
            raise QsaError("duplicate vertex identifier")
        seen = set()
        vset = set(vertices)
        for a in arrows:
            _check_id("arrow", a.name)
            if a.name in seen:
                raise QsaError(f"duplicate arrow identifier {a.name!r}")
            seen.add(a.name)
            if a.source not in vset or a.target not in vset:
                raise QsaError(f"arrow {a.name!r} has an endpoint outside the vertex list")
        self.name = name
        self.vertices = tuple(sorted(vertices, key=natural_key))
        self.arrows = tuple(sorted(arrows, key=_arrow_key))
        self._by_name = {a.name: a for a in self.arrows}
        self._out = {v: [] for v in self.vertices}
        self._in = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._out[a.source].append(a)
            self._in[a.target].append(a)

    @classmethod
    def _trusted(cls, name, vertices, arrows, out, in_):
        """The quiver of checked tables: `vertices` and `arrows` in
        canonical order, and `out` and `in_`, {vertex: list of its arrows
        out or in, in arrow order}, which the quiver takes as they are.
        Equal to the constructor on the same lists, without its checks but
        one: two arrows of one name are refused, as the constructor
        refuses them (in canonical order they are neighbours)."""
        q = cls.__new__(cls)
        q.name, q.vertices, q.arrows = name, tuple(vertices), tuple(arrows)
        q._by_name = {a.name: a for a in q.arrows}
        if len(q._by_name) != len(q.arrows):
            twice = next(a.name for a, b in zip(q.arrows, q.arrows[1:]) if a.name == b.name)
            raise QsaError(f"duplicate arrow identifier {twice!r}")
        q._out, q._in = out, in_
        return q

    @cached_property
    def _connected(self):
        """Whether the underlying graph is connected; validation and a
        fresh classification both ask."""
        return _is_connected(self)

    @cached_property
    def _acyclicity(self):
        """(acyclic, m): whether the quiver has no oriented cycle, and one
        more than its longest path, from the prefix automaton of no
        relations.  Validation of a non-monomial ideal and the Euler
        branch both ask."""
        return _monomial_admissibility(AlgebraPresentation._trusted(self, ()))

    @cached_property
    def _arrow_lines(self):
        """The arrow lines of the text format, in arrow order."""
        return tuple(map(_arrow_line, self.arrows))

    @cached_property
    def _order(self):
        """{vertex: rank}, a sort key for the vertices in canonical order
        that computes no `natural_key`.  The result of a reduction shares
        the map of its input: dropping a vertex keeps the order of the
        rest, and a reduction adds none."""
        return {v: i for i, v in enumerate(self.vertices)}

    def arrow(self, name):
        try:
            return self._by_name[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise QsaError(f"unknown arrow {name!r}") from None

    def out_arrows(self, v):
        return tuple(self._out[v])

    def in_arrows(self, v):
        return tuple(self._in[v])

    def has_vertex(self, v):
        return isinstance(v, str) and v in self._out  # False for an unhashable name

    def has_arrow(self, name):
        return name in self._by_name

    def path(self, arrow_names):
        """Build a Path from composable arrow names."""
        names = tuple(arrow_names)
        if not names:
            raise QsaError("a path needs at least one arrow")
        arrows = [self.arrow(n) for n in names]
        for a, b in zip(arrows, arrows[1:]):
            if a.target != b.source:
                raise QsaError(f"arrows {a.name!r} and {b.name!r} do not compose")
        return Path(arrows[0].source, arrows[-1].target, names)

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.name == other.name
                and self.vertices == other.vertices and self.arrows == other.arrows)

    def __hash__(self):
        return hash((self.name, self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver({self.name!r}, {len(self.vertices)} vertices, {len(self.arrows)} arrows)"


# --- relations -------------------------------------------------------------


def _path_sort_key(arrows):
    r"""The path's length (`_length_prefix`), then its arrows' `natural_key`s
    joined by "\x00", as one string: where one key is a prefix of another
    (a0 and a00), the "\x00" after it sorts below the other's next
    character, as the shorter key sorts first on its own."""
    return _length_prefix(len(arrows)) + "\x00".join(map(natural_key, arrows))


def _fmt_coef(c):
    return str(c) if c.denominator != 1 else str(c.numerator)


def _relation_line(r):
    """A relation as a line of the text format."""
    if r.is_monomial:
        return " ".join(r.terms[0][1])
    bits = []
    for k, (c, p) in enumerate(r.terms):
        mag = abs(c)
        coef = "" if mag == 1 else _fmt_coef(mag) + " "
        body = f"{coef}( " + " ".join(p) + " )"
        if k == 0:
            bits.append(body if c > 0 else f"- {body}")
        else:
            bits.append(("+ " if c > 0 else "- ") + body)
    return " ".join(bits)


_ONE = Fraction(1)


class RelationTerm:
    """One relation: a canonical combination of parallel paths.

    Terms are merged, sorted, and scaled so the first coefficient is 1;
    monomial relations are combinations with a single path.  `sort_key`
    orders relations canonically, and equal keys mean equal relations.
    """

    def __init__(self, quiver, combination):
        try:
            if isinstance(combination, str):
                raise TypeError
            terms = iter(combination)
        except TypeError:
            raise QsaError(f"a relation is a list of (coefficient, path) pairs, "
                           f"not {combination!r}") from None
        merged = {}
        endpoints = None
        for term in terms:
            try:
                coef, arrows = term
                coef = Fraction(coef)
                if isinstance(arrows, str):
                    raise TypeError
                p = quiver.path(arrows)
            except (TypeError, ValueError):
                raise QsaError(f"a relation term is a (rational coefficient, arrow names) "
                               f"pair, not {term!r}") from None
            if len(p.arrows) < 2:
                raise QsaError("relation paths must have length >= 2")
            if endpoints is None:
                endpoints = (p.source, p.target)
            elif endpoints != (p.source, p.target):
                raise QsaError("relation mixes non-parallel paths")
            key = p.arrows
            merged[key] = merged[key] + coef if key in merged else coef
        if endpoints is None:
            raise QsaError("a relation needs at least one path")
        self._canonical(merged, *endpoints)

    @classmethod
    def _trusted(cls, source, target, merged):
        """The relation of {path: coefficient}, whose paths are known to
        run from source to target; equal to the constructor on the same
        combination, without its checks."""
        r = cls.__new__(cls)
        r._canonical(merged, source, target)
        return r

    @classmethod
    def _monomial(cls, source, target, path):
        """The monomial relation of `path`, known to run from source to
        target: `_trusted` on {path: 1}, without the merge."""
        r = cls.__new__(cls)
        r.source, r.target, r.terms = source, target, ((_ONE, path),)
        r.sort_key = ((_path_sort_key(path), _ONE),)
        return r

    def _canonical(self, merged, source, target):
        """Set the terms from {path: coefficient}: zero terms dropped, the
        rest sorted and scaled so the first coefficient is 1."""
        self.source, self.target = source, target
        if len(merged) == 1:
            ((p, c),) = merged.items()
            if c:
                self.terms = ((_ONE, p),)
                self.sort_key = ((_path_sort_key(p), _ONE),)
                return
        keys = {p: _path_sort_key(p) for p, c in merged.items() if c}
        if not keys:
            raise QsaError("relation cancels to zero")
        ordered = sorted(keys, key=keys.__getitem__)
        lead = merged[ordered[0]]
        if lead != 1:
            merged = {p: c / lead for p, c in merged.items()}
        self.terms = tuple([(merged[p], p) for p in ordered])
        self.sort_key = tuple([(keys[p], c) for c, p in self.terms])

    @property
    def is_monomial(self):
        return len(self.terms) == 1

    def paths(self):
        return tuple(p for _, p in self.terms)

    @property
    def arrow_names(self):
        """The arrows the paths use."""
        return frozenset().union(*self.paths())

    def _fits(self, quiver):
        """True when every path composes in `quiver` with this term's endpoints."""
        try:
            return all(quiver.path(p)[:2] == (self.source, self.target)
                       for _, p in self.terms)
        except QsaError:
            return False

    def __eq__(self, other):
        return isinstance(other, RelationTerm) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"RelationTerm({self.terms!r})"


def _canonical_order(relations):
    """The relations sorted by `sort_key`, each once.  Equal keys mean
    equal relations, so the duplicates are neighbours after the sort, and
    no coefficient is hashed."""
    out = []
    last = None
    for r in sorted(relations, key=_relation_key):
        if r.sort_key != last:
            out.append(r)
            last = r.sort_key
    return out


class AlgebraPresentation:
    """A quiver with relations; the value is canonical on construction."""

    def __init__(self, quiver, relations):
        if not isinstance(quiver, Quiver):
            raise QsaError("a presentation needs a Quiver")
        try:
            relations = iter(relations)
        except TypeError:
            raise QsaError("a presentation needs a list of relations") from None
        rels = []
        for r in relations:
            if not isinstance(r, RelationTerm):
                r = RelationTerm(quiver, r)
            elif not r._fits(quiver):
                # terms may come from another quiver: rebuild, or raise
                r = RelationTerm(quiver, r.terms)
            rels.append(r)
        self._fill(quiver, _canonical_order(rels))

    @classmethod
    def _trusted(cls, quiver, relations):
        """The presentation of `quiver` with `relations`, RelationTerms
        whose paths are known to compose in `quiver`.

        Equal to the constructor on the same relations, without its
        checks: the relations are only put in canonical order, each once.
        """
        b = cls.__new__(cls)
        b._fill(quiver, _canonical_order(relations))
        return b

    def _fill(self, quiver, relations, monomials=None, quadratic=None):
        """Set the fields from the sorted relations; the monomial paths and
        the quadratic flag are read off them unless the caller gives them."""
        relations = tuple(relations)
        if monomials is None:
            monomials = frozenset(r.terms[0][1] for r in relations if r.is_monomial)
            quadratic = all(len(p) == 2 for r in relations for _, p in r.terms)
        # distinct monomial relations have distinct paths (the coefficient
        # is scaled to 1), so every relation is monomial when the counts agree
        self.quiver = quiver
        self.relations = relations
        self.monomials = monomials
        self._is_monomial = len(monomials) == len(relations)
        self._is_quadratic = quadratic
        self._monomial_lengths = (
            ((2,) if monomials else ()) if quadratic  # every path has length two
            else tuple(sorted(set(map(len, monomials)))))
        self._report = None  # the ValidationReport, set by the first validate()
        self._walk = None    # the admissibility walk, set by _monomial_admissibility
        self._basis = None   # the _GroebnerBasis of a non-monomial ideal, once completed

    @cached_property
    def _relation_lines(self):
        """The relation lines of the text format, in relation order."""
        return tuple(map(_relation_line, self.relations))

    @property
    def name(self):
        return self.quiver.name

    @property
    def is_monomial(self):
        return self._is_monomial

    @property
    def is_quadratic(self):
        return self._is_quadratic

    def max_relation_length(self):
        return max((len(p) for r in self.relations for p in r.paths()), default=2)

    def ends_in_relation(self, arrows):
        """True when some monomial relation is a suffix of `arrows`.

        One set lookup per distinct relation length.  A relation-free path
        extended by one arrow stays relation-free exactly when this is False.
        """
        n = len(arrows)
        for k in self._monomial_lengths:
            if k > n:
                break
            if arrows[n - k:] in self.monomials:
                return True
        return False

    def __eq__(self, other):
        return (isinstance(other, AlgebraPresentation)
                and self.quiver == other.quiver and self.relations == other.relations)

    def __hash__(self):
        return hash((self.quiver, self.relations))

    def __repr__(self):
        return (f"AlgebraPresentation({self.name!r}, |Q0|={len(self.quiver.vertices)}, "
                f"|Q1|={len(self.quiver.arrows)}, {len(self.relations)} relations)")


def opposite(a):
    """The opposite presentation: arrows reversed, every path read backwards.

    Equal to `Quiver` and `AlgebraPresentation` built on the reversed
    lists, under the same name.  Nothing is checked again: the identifiers
    and relations were checked when `a` was built, and the arrows keep
    their names and so their order.
    """
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("the opposite needs an AlgebraPresentation")
    q = a.quiver
    arrows = {x.name: Arrow(x.name, x.target, x.source) for x in q.arrows}
    qop = Quiver._trusted(
        q.name, q.vertices, arrows.values(),
        {v: [arrows[x.name] for x in at] for v, at in q._in.items()},
        {v: [arrows[x.name] for x in at] for v, at in q._out.items()})
    return AlgebraPresentation._trusted(qop, [
        RelationTerm._trusted(r.target, r.source, {p[::-1]: c for c, p in r.terms})
        for r in a.relations])


class _Turned(dict):
    """{vertex: its arrows in `table`, turned round}, each list built when
    its vertex is first read."""

    def __init__(self, table):
        super().__init__()
        self._table = table

    def __missing__(self, v):
        turned = self[v] = [Arrow(a.name, a.target, a.source) for a in self._table[v]]
        return turned


class _OppositeQuiver:
    """The opposite of the quiver `q` as a view that copies nothing: the
    arrows at a vertex are turned round when the vertex is first read, in
    arrow order, as `opposite` lists them.  It answers the reads of the
    tilting engine (`out_arrows`, `in_arrows` and `arrow`)."""

    def __init__(self, q):
        self._q = q
        self.vertices = q.vertices
        self._out, self._in = _Turned(q._in), _Turned(q._out)

    out_arrows = Quiver.out_arrows
    in_arrows = Quiver.in_arrows

    def arrow(self, name):
        a = self._q.arrow(name)
        return Arrow(a.name, a.target, a.source)


# --- parsing and serialization --------------------------------------------


def _tokenize(line):
    if "(" in line or ")" in line or "->" in line:
        line = line.replace("(", " ( ").replace(")", " ) ").replace("->", " -> ")
    return line.split()


_COEF_RE = re.compile(r"-?\d+(/\d+)?\Z")


def _parse_combination(tokens):
    """Parse `coef? ( path ) (+|-) coef? ( path ) ...` into (coef, arrows) pairs."""
    out = []
    i = 0
    while i < len(tokens):
        negative = tokens[i] == "-"
        if out or negative:  # a sign, required between terms
            if not negative and tokens[i] != "+":
                raise QsaError(f"expected '+' or '-', got {tokens[i]!r}")
            i += 1
        coef = _ONE
        if i < len(tokens) and _COEF_RE.match(tokens[i]):
            try:
                coef = Fraction(tokens[i])
            except ZeroDivisionError:
                raise QsaError(f"zero denominator in {tokens[i]!r}") from None
            except ValueError:  # beyond the int conversion digit limit
                raise QsaError(f"coefficient {tokens[i][:10]}... is too large") from None
            i += 1
        if i >= len(tokens) or tokens[i] != "(":
            raise QsaError("expected '(' before a path")
        try:
            j = tokens.index(")", i)
        except ValueError:
            raise QsaError("unclosed '(' in relation") from None
        if j == i + 1:
            raise QsaError("empty path in relation")
        out.append((-coef if negative else coef, tuple(tokens[i + 1:j])))
        i = j + 1
    return out


def parse_presentation(text):
    """Parse the presentation file format; errors carry 1-based line numbers.

    Each relation is built once, on the quiver just checked: a path line
    walks its arrows once, a combination line is merged and scaled.
    Duplicate relations, scalar multiples of one another included, are
    kept once.  A coefficient beyond Python's limit on the digits of an
    int read from a string (4,300 by default) is refused.
    """
    if not isinstance(text, str):
        raise QsaError("a presentation is parsed from a string")
    lines = []
    for num, raw in enumerate(text.splitlines(), start=1):
        body = raw.partition("#")[0].strip()
        if body:
            lines.append((num, body))
    if not lines:
        raise QsaError("empty presentation")

    idx = 0
    num, body = lines[idx]
    tokens = _tokenize(body)
    if len(tokens) != 2 or tokens[0] != "quiver":
        raise QsaError(f"line {num}: expected 'quiver <name>'")
    name = tokens[1]
    idx += 1

    if idx >= len(lines):
        raise QsaError(f"line {num}: missing 'vertices:' line")
    num, body = lines[idx]
    if not body.startswith("vertices:"):
        raise QsaError(f"line {num}: expected 'vertices:' line")
    vertices = body[len("vertices:"):].split()
    if not vertices:
        raise QsaError(f"line {num}: at least one vertex is required")
    idx += 1

    arrows = []
    relation_lines = []
    in_relations = False
    for num, body in lines[idx:]:
        if body == "relations:":
            if in_relations:
                raise QsaError(f"line {num}: duplicate 'relations:' header")
            in_relations = True
            continue
        tokens = _tokenize(body)
        if not in_relations:
            if tokens[0] != "arrow":
                raise QsaError(f"line {num}: expected an 'arrow' line or 'relations:'")
            # arrow NAME: SRC -> TGT  (the colon may touch the name)
            rest = tokens[1:]
            if rest and rest[0].endswith(":") and len(rest[0]) > 1:
                aname = rest[0][:-1]
                rest = rest[1:]
            elif len(rest) >= 2 and rest[1] == ":":
                aname = rest[0]
                rest = rest[2:]
            else:
                raise QsaError(f"line {num}: expected 'arrow <name>:'")
            if len(rest) != 3 or rest[1] != "->":
                raise QsaError(f"line {num}: expected '<source> -> <target>'")
            arrows.append(Arrow(aname, rest[0], rest[2]))
        else:
            relation_lines.append((num, tokens))

    quiver = Quiver(name, vertices, arrows)

    relations = []
    for num, tokens in relation_lines:
        try:
            if "(" in tokens:
                r = RelationTerm(quiver, _parse_combination(tokens))
            elif len(tokens) < 2:
                raise QsaError("relation paths must have length >= 2")
            else:
                p = quiver.path(tokens)
                r = RelationTerm._monomial(p.source, p.target, p.arrows)
        except QsaError as e:
            raise QsaError(f"line {num}: {e}") from None
        relations.append(r)
    return AlgebraPresentation._trusted(quiver, relations)


def serialize_presentation(a):
    """Canonical text form; parsing it back gives an equal presentation.

    Each arrow's and each relation's line is formatted once and kept.
    """
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("serialization needs an AlgebraPresentation")
    q = a.quiver
    out = [f"quiver {q.name}", "vertices: " + " ".join(q.vertices), *q._arrow_lines]
    if a.relations:
        out.append("relations:")
        out += a._relation_lines
    return "\n".join(out) + "\n"


# --- validation ------------------------------------------------------------


class ValidationReport(NamedTuple):
    connected: bool
    monomial: bool
    quadratic_monomial: bool
    admissible: bool          # meaningful only when certified
    certified: bool
    nilpotency_bound: int     # m with rad^m = 0, when certified; else 0
    problems: tuple

    @property
    def ok(self):
        return not self.problems


def _is_connected(q):
    adj = {v: set() for v in q.vertices}
    for a in q.arrows:
        adj[a.source].add(a.target)
        adj[a.target].add(a.source)
    seen = {q.vertices[0]}
    stack = [q.vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(q.vertices)


def _prefix_automaton(a):
    """The transition function of the prefix automaton of the monomial
    relations of `a` (a presentation, or a `_GroebnerBasis` and its
    leading words): a state maps to the states one arrow on.

    A state is a vertex and the longest suffix of the path read so far
    that is a proper prefix of a monomial relation, so there are at most
    |Q0| + sum |relation| states: the Ufnarovski graph (Math. Notes 31,
    1982), built as Aho and Corasick build theirs (CACM 18, 1975).  An
    arrow leads on unless the path it makes ends in a relation.  The
    relation-free paths are the walks from the empty states (v, ()).
    """
    q = a.quiver
    prefixes = {w[:i] for w in a.monomials for i in range(len(w))} | {()}

    out_arrows, ends_in_relation = q._out, a.ends_in_relation

    def successors(state):   # a list: the walk keeps it for the count
        v, word = state
        out = []
        for ar in out_arrows[v]:
            new = word + (ar.name,)
            if not ends_in_relation(new):
                while new not in prefixes:
                    new = new[1:]
                out.append((ar.target, new))
        return out

    return successors


def _monomial_admissibility(a):
    """(admissible, bound m) from the prefix automaton of the relations.

    The ideal is admissible when no walk from an empty state reaches a
    cycle, and m is one more than the longest walk.  With no relations
    the automaton is the quiver, and the answer says whether the quiver
    is acyclic.  The walk is depth first on an explicit stack, so a path
    longer than the recursion limit is no problem.  It is made once per
    presentation or basis and kept on `a` as (admissible, m, frames),
    the frames [state, _, _, successors] it finished, in post-order, for
    `_normal_word_counts`.
    """
    if a._walk is not None:
        return a._walk[:2]
    successors = _prefix_automaton(a)
    height = {}  # the longest walk from a state; None while on the current walk
    order = []   # the finished frames, each after its successors' frames
    # [state, successors left, longest walk so far, successors];
    # the start state None leads to the empty states
    start = [(v, ()) for v in a.quiver.vertices]
    stack = [[None, iter(start), 0, start]]
    while stack:
        top = stack[-1]
        for w in top[1]:
            if w not in height:
                height[w] = None
                after = successors(w)
                stack.append([w, iter(after), 0, after])
                break
            h = height[w]
            if h is None:
                a._walk = False, 0, ()
                return False, 0
            if h >= top[2]:
                top[2] = h + 1
        else:
            stack.pop()
            height[top[0]] = h = top[2]
            if stack:
                order.append(top)
                if h >= stack[-1][2]:
                    stack[-1][2] = h + 1
    a._walk = True, height[None], order
    return True, height[None]


def _normal_word_counts(a):
    """{v: {w: number of normal words from v to w}} for the relations of
    `a`, or the leading words of a `_GroebnerBasis`, whose prefix
    automaton has no cycle from an empty state: the walks from the empty
    states, by end vertex (the Hilbert series of the Ufnarovski graph).

    A fold over the post-order of the admissibility walk, so the
    automaton is walked once for both: a state's counts are its first
    successor's, copied, plus the others', plus one for its own empty
    walk.  A walk that found a cycle is refused; every basis that
    `validate` certifies, or that `_algebra._normal_words` completes on an
    acyclic quiver, has none.
    """
    if not _monomial_admissibility(a)[0]:
        raise QsaError("internal error: normal words counted on a prefix automaton with a cycle")
    counts = {}
    for state, _, _, after in a._walk[2]:
        mine = dict(counts[after[0]]) if after else {}
        for t in after[1:]:
            for w, n in counts[t].items():
                mine[w] = mine.get(w, 0) + n
        mine[state[0]] = mine.get(state[0], 0) + 1
        counts[state] = mine
    return {v: counts[(v, ())] for v in a.quiver.vertices}


def _relation_free_levels(a, starts=None):
    """Relation-free paths by length, from `starts` (default: every vertex).

    Yields, for d = 0, 1, 2, ..., the list of (source, target, arrows) of
    the relation-free paths of length d, and stops after the first empty
    list.  On a cyclic quiver there may be no empty level, so callers bound
    the degree themselves.  Paths grow only from relation-free paths, so a
    new path is relation-free unless a monomial relation is its suffix.
    """
    q = a.quiver
    level = [(v, v, ()) for v in (q.vertices if starts is None else starts)]
    while True:
        yield level
        if not level:
            return
        nxt = []
        for src, tgt, path in level:
            for ar in q.out_arrows(tgt):
                new = path + (ar.name,)
                if not a.ends_in_relation(new):
                    nxt.append((src, ar.target, new))
        level = nxt


def _check_homogeneous(relations, what):
    """Refuse relations, given by their terms, whose paths differ in length."""
    for terms in relations:
        if len({len(p) for _, p in terms}) != 1:
            raise QsaError(f"{what} needs length-homogeneous relations")


class _GroebnerBasis:
    """A Gröbner basis of the ideal of `relations` in KQ, truncated below
    a length limit: every path of length >= `limit` counts as zero.

    An element's leading word is its first path in (len(p), p) order, the
    column a row echelon form of a block pivots on.  `rules` maps each
    leading word to the ((coefficient, path), ...) it equals modulo I; a
    monomial relation has no terms.  Buchberger completion (E. L. Green,
    Progr. Math. 173, 1999) reduces every overlap of two leading words
    below the limit to zero, and a rule again when a new leading word is
    its factor, so the normal words, the paths below the limit with no
    leading word as a factor, are a basis of KQ/I modulo the longer paths.
    The basis reads as the monomial presentation of its leading words
    (`monomials`, `ends_in_relation`) for `_relation_free_levels`,
    `_monomial_admissibility`, `_normal_word_counts` and the blocks of
    `_algebra.TruncatedAlgebra`.  `validate` keeps
    the basis it completes for a cyclic ideal, truncated above its
    cutoff, on the presentation; for a homogeneous ideal whose normal
    words end below the cutoff, its normal words and normal forms below
    the bound are those of the basis truncated at the bound.
    """

    ends_in_relation = AlgebraPresentation.ends_in_relation

    def __init__(self, quiver, relations, limit):
        self.quiver, self.limit = quiver, limit
        self._walk = None
        self.rules = self.monomials = {}
        self._monomial_lengths = ()
        self._words = {}   # the normal forms of single paths, once complete
        todo = []   # the elements to reduce, the shortest path first

        def push(element):
            if element:
                insort(todo, element, key=lambda e: min(map(len, e)))

        for terms in relations:
            push({p: c for c, p in terms})
        while todo:
            g = self.reduce(todo.pop(0))
            if not g:
                continue
            lead = min(g, key=lambda p: (len(p), p))
            c, k = g.pop(lead), len(lead)
            for w in [w for w in self.rules if any(
                    w[i:i + k] == lead for i in range(len(w) - k + 1))]:
                push({w: _ONE, **{p: -x for x, p in self.rules.pop(w)}})
            self.rules[lead] = tuple((-x / c, p) for p, x in g.items())
            self._monomial_lengths = tuple(sorted({len(w) for w in self.rules}))
            for w in list(self.rules):
                self._overlaps(lead, w, push)
                if w != lead:
                    self._overlaps(w, lead, push)

    def _overlaps(self, left, right, push):
        """Push g·v - u·h for each overlap left·v = u·right of the leading
        words of g and h below the limit."""
        if not (self.rules[left] or self.rules[right]):
            return   # two monomials: every overlap is zero
        for k in range(1, min(len(left), len(right))):
            if left[-k:] == right[:k] and len(left) + len(right) - k < self.limit:
                u, v, s = left[:-k], right[k:], {}
                for c, p in self.rules[left]:   # g·v, less left·v
                    s[p + v] = s.get(p + v, 0) - c
                for c, p in self.rules[right]:   # -u·h, less -u·right
                    s[u + p] = s.get(u + p, 0) + c
                push({p: c for p, c in s.items() if c and len(p) < self.limit})

    def reduce(self, element):
        """The normal form of {path: coefficient}, as {normal word:
        coefficient} without zeros.  Paths are rewritten in (len(p), p)
        order: a rule only makes later paths, so each is seen once."""
        element = {p: c for p, c in element.items() if c and len(p) < self.limit}
        todo = sorted((len(p), p) for p in element)
        out = {}
        while todo:
            w = todo.pop(0)[1]
            c = element.pop(w)
            if not c:
                continue
            hit = next(((i, w[i:i + k]) for i in range(len(w)) for k in self._monomial_lengths
                        if w[i:i + k] in self.rules), None)
            if hit is None:
                out[w] = c
                continue
            i, lead = hit
            for d, t in self.rules[lead]:
                z = w[:i] + t + w[i + len(lead):]
                if len(z) >= self.limit:
                    continue
                if z not in element:
                    element[z] = 0
                    insort(todo, (len(z), z))
                element[z] += c * d
        return out

    def word(self, w):
        """The normal form of the path w, memoized."""
        if w not in self._words:
            self._words[w] = self.reduce({w: _ONE})
        return self._words[w]


def validate(a):
    """Structural report: connectivity, relation shape, admissibility bound.

    Presentations are immutable, so the report is computed once and kept.
    """
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("validation needs an AlgebraPresentation")
    if a._report is not None:
        return a._report
    q = a.quiver
    problems = []
    connected = q._connected
    if not connected:
        problems.append("quiver is not connected")
    monomial = a.is_monomial
    quadratic_monomial = monomial and a.is_quadratic

    certified = True
    if monomial:
        admissible, bound = _monomial_admissibility(a)
        if not admissible:
            problems.append("ideal is not admissible: arbitrarily long relation-free paths")
    else:   # the paths of an acyclic quiver are bounded; else ask the leading words
        admissible, bound = q._acyclicity
        if not admissible:
            cutoff = max(16, 2 * len(q.arrows) + 2)
            terms = [r.terms for r in a.relations]
            try:
                _check_homogeneous(terms, "graded scan")
                a._basis = _GroebnerBasis(q, terms, cutoff + 1)
                admissible, bound = _monomial_admissibility(a._basis)
            except QsaError as e:
                problems.append(str(e))
            if not (admissible and bound <= cutoff):
                certified, admissible, bound = False, False, 0
                a._basis = None
                problems.append("admissibility not certified for this cyclic non-monomial ideal")
    a._report = ValidationReport(connected, monomial, quadratic_monomial, admissible,
                                 certified, bound, tuple(problems))
    return a._report


# --- graphs and path bases -------------------------------------------------


def _quiver_of(a, what):
    q = a.quiver if isinstance(a, AlgebraPresentation) else a
    if not isinstance(q, Quiver):
        raise QsaError(f"{what} needs a Quiver or an AlgebraPresentation")
    return q


def underlying_graph(a):
    """(vertices, edges) of the underlying multigraph; one edge per arrow."""
    q = _quiver_of(a, "the underlying graph")
    edges = tuple(tuple(sorted((ar.source, ar.target), key=natural_key)) for ar in q.arrows)
    return q.vertices, edges


def is_tree(a):
    """True when the underlying multigraph is a tree (connected, acyclic)."""
    q = _quiver_of(a, "the tree test")
    return len(q.arrows) == len(q.vertices) - 1 and q._connected


def path_basis(a, i, j):
    """Ordered basis of relation-free paths from i to j (monomial, admissible input)."""
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("path_basis needs an AlgebraPresentation")
    if not a.is_monomial:
        raise QsaError("path_basis needs a monomial presentation")
    q = a.quiver
    if not (q.has_vertex(i) and q.has_vertex(j)):
        raise QsaError("path_basis: unknown vertex")
    rep = validate(a)
    if not rep.admissible:
        raise QsaError("path_basis needs an admissible ideal")
    out = [Path(i, j, path)
           for level in islice(_relation_free_levels(a, (i,)), rep.nilpotency_bound)
           for _, tgt, path in level if tgt == j]
    out.sort(key=lambda p: _path_sort_key(p.arrows))
    return tuple(out)


# --- isomorphism -----------------------------------------------------------


def _signature(q, v):
    loops = sum(1 for a in q.out_arrows(v) if a.target == v)
    return (len(q.out_arrows(v)), len(q.in_arrows(v)), loops)


def _parallel_counts(q):
    counts = {}
    for a in q.arrows:
        counts[(a.source, a.target)] = counts.get((a.source, a.target), 0) + 1
    return counts


def presentations_isomorphic(a, b):
    """Search for an isomorphism of presentations; returns the maps or None.

    An isomorphism is a vertex bijection plus an arrow bijection carrying the
    ideal of `a` onto the ideal of `b`; generator lists may differ as long as
    the generated ideals agree.  For each candidate the relations of `a` are
    moved onto the quiver of `b`, and the two ideals are equal when the
    generators of each reduce to zero modulo the Gröbner basis of the other,
    truncated above the longest generator: the relations must be
    length-homogeneous, so both ideals are generated below that length.
    The vertex bijections are tried one by one, so a presentation of more
    than 14 vertices is refused.
    """
    if not (isinstance(a, AlgebraPresentation) and isinstance(b, AlgebraPresentation)):
        raise QsaError("isomorphism check needs two AlgebraPresentations")
    qa, qb = a.quiver, b.quiver
    if len(qa.vertices) > 14 or len(qb.vertices) > 14:
        raise QsaError("isomorphism search bound exceeded: more than 14 vertices")
    if len(qa.vertices) != len(qb.vertices) or len(qa.arrows) != len(qb.arrows):
        return None
    if sorted(_signature(qa, v) for v in qa.vertices) != \
       sorted(_signature(qb, v) for v in qb.vertices):
        return None

    counts_a = _parallel_counts(qa)
    counts_b = _parallel_counts(qb)
    by_sig_b = {}
    for v in qb.vertices:
        by_sig_b.setdefault(_signature(qb, v), []).append(v)
    order = sorted(qa.vertices,
                   key=lambda v: (len(by_sig_b.get(_signature(qa, v), [])), natural_key(v)))
    limit = max(a.max_relation_length(), b.max_relation_length()) + 1
    terms_b = [r.terms for r in b.relations]
    _check_homogeneous(terms_b, "isomorphism check")
    basis_b = _GroebnerBasis(qb, terms_b, limit)

    def relations_match(amap):
        moved = [[(c, tuple(amap[x] for x in path)) for c, path in r.terms]
                 for r in a.relations]
        _check_homogeneous(moved, "isomorphism check")
        basis = _GroebnerBasis(qb, moved, limit)
        return not any(one.reduce({p: c for c, p in terms})
                       for one, side in ((basis_b, moved), (basis, terms_b))
                       for terms in side)

    def arrow_bijections(vmap):
        options = []
        for (u, v), n in counts_a.items():
            image = (vmap[u], vmap[v])
            la = sorted((x.name for x in qa.arrows if (x.source, x.target) == (u, v)),
                        key=natural_key)
            lb = sorted((x.name for x in qb.arrows if (x.source, x.target) == image),
                        key=natural_key)
            if len(la) > 4:
                raise QsaError("too many parallel arrows for isomorphism search")
            options.append([dict(zip(la, perm)) for perm in permutations(lb)])
        for combo in product(*options):
            amap = {}
            for piece in combo:
                amap.update(piece)
            yield amap

    assignment = {}
    used = set()

    def backtrack(k):
        if k == len(order):
            vmap = dict(assignment)
            for amap in arrow_bijections(vmap):
                if relations_match(amap):
                    return {"vertices": vmap, "arrows": amap}
            return None
        v = order[k]
        for w in by_sig_b.get(_signature(qa, v), []):
            if w in used:
                continue
            if counts_a.get((v, v), 0) != counts_b.get((w, w), 0):
                continue
            if any(counts_a.get((v, u), 0) != counts_b.get((w, img), 0)
                   or counts_a.get((u, v), 0) != counts_b.get((img, w), 0)
                   for u, img in assignment.items()):
                continue
            assignment[v] = w
            used.add(w)
            found = backtrack(k + 1)
            if found:
                return found
            del assignment[v]
            used.discard(w)
        return None

    return backtrack(0)
