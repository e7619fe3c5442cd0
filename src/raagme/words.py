"""Normal forms and parabolic-subgroup arithmetic in right-angled Artin groups.

Words are over RAAG presentations (every vertex of rank 1): elements are
words of syllables (vertex, exponent) with a non-zero integer exponent.  A
graph product with higher-rank vertex groups is handled through
``raag(expand_to_raag(p))``, since a vertex group Z^r is the RAAG over an
r-clique.  A word is reduced when no two syllables on the same
vertex can be brought together by shuffling across pairwise-commuting
syllables; reduction is performed by left-greedy piling.  Among all
shufflings of a reduced word we keep the lexicographically least (by vertex
label), which makes equality a tuple comparison.

Parabolic subgroups conjugate to a standard one are represented by canonical
handles: the conjugator is replaced by the shortlex-least representative of
its right coset modulo the normalizer of the standard subgroup, so two
handles are equal exactly when the subgroups are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graphs import perp, star
from .presentation import GraphProductPresentation


def _require_rank_one(p, v):
    if p.rank(v) != 1:
        raise InputError(
            f"words are over RAAGs, but {v!r} has rank {p.rank(v)}; "
            "use raag(expand_to_raag(p))")


def _validate_syllable(p, syl):
    v, e = syl
    if not p.graph.has_vertex(v):
        raise InputError(f"generator {v!r} not in the presentation")
    _require_rank_one(p, v)
    if not isinstance(e, int) or isinstance(e, bool) or e == 0:
        raise InputError(f"exponent of {v!r} must be a non-zero integer, got {e!r}")
    return (v, e)


def _letter_length(syllables):
    """Sum of the absolute values of the exponents of a syllable tuple."""
    return sum(abs(e) for _, e in syllables)


def _inverse(syllables):
    """Syllables of the inverse word: reversed, exponents negated."""
    return tuple((v, -e) for v, e in reversed(syllables))


def _push(adj, pile, v, e):
    """Append one syllable to a reduced pile, keeping it reduced.

    Walks back over syllables commuting with v; merges into an earlier
    syllable on v if one is reachable, dropping it when the exponent
    cancels.  Dropping cannot create new mergeable pairs: every syllable
    right of the dropped position commutes with v, so v never was the
    blocker of a pair straddling it.
    """
    i = len(pile) - 1
    while i >= 0:
        u, f = pile[i]
        if u == v:
            m = f + e
            if m == 0:
                del pile[i]
            else:
                pile[i] = (v, m)
            return
        if v not in adj[u]:
            break
        i -= 1
    pile.append((v, e))


def _reduce(adj, syllables, start=()):
    """Reduced word of ``start`` (already reduced) followed by ``syllables``."""
    pile = list(start)
    for v, e in syllables:
        _push(adj, pile, v, e)
    return pile


def _lex_order(adj, reduced):
    """Lexicographically least shuffle of a reduced word (by vertex label)."""
    rest = list(reduced)
    out = []
    while rest:
        seen = set()
        best = None
        for i, (v, _) in enumerate(rest):
            if v not in seen and seen <= adj[v]:
                if best is None or v < rest[best][0]:
                    best = i
            seen.add(v)
        out.append(rest.pop(best))
    return tuple(out)


@dataclass(frozen=True)
class NormalFormWord:
    """A group element in normal form over a fixed presentation.

    Two words over the same presentation are equal in the group if and only
    if their syllable tuples are identical.
    """

    presentation: GraphProductPresentation
    syllables: tuple

    def is_identity(self):
        return not self.syllables

    @property
    def word_length(self):
        """Total letter length: the sum of the absolute values of the exponents."""
        return _letter_length(self.syllables)

    def support(self):
        return frozenset(v for v, _ in self.syllables)

    def inverse(self):
        p = self.presentation
        return NormalFormWord(p, _lex_order(p.graph.adjacency, _inverse(self.syllables)))

    def __mul__(self, other):
        return multiply_and_normalize(self.presentation, self, other)

    def __repr__(self):
        if not self.syllables:
            return "<identity>"
        return " ".join(v if e == 1 else f"{v}^{e}" for v, e in self.syllables)


def _coerce(p, w):
    if isinstance(w, NormalFormWord):
        if w.presentation != p:
            raise InputError("word belongs to a different presentation")
        return w.syllables
    return tuple(_validate_syllable(p, s) for s in w)


def multiply_and_normalize(p, w1, w2):
    """Normal form of the product of two words over the presentation p.

    The product is the reduction of the concatenated syllables; only the
    returned word is put in lexicographic order.
    """
    adj = p.graph.adjacency
    return NormalFormWord(p, _lex_order(adj, _reduce(adj, _coerce(p, w1) + _coerce(p, w2))))


def word(p, syllables):
    """Convenience constructor for a normal-form word.

    Exponents are non-zero integers; syllables on one vertex merge across
    commuting syllables and drop out when they cancel.

    >>> from .graphs import SimpleGraph
    >>> from .presentation import raag
    >>> p = raag(SimpleGraph(["a", "b", "c"], [("a", "b")]))
    >>> word(p, [("a", 2), ("b", 1), ("a", -2), ("c", 3)])
    b c^3
    """
    return multiply_and_normalize(p, syllables, ())


def _strip_right_factor(adj, reduced, members):
    """Peel the right factor in G_members off a reduced word.

    Deletes every syllable whose vertex lies in ``members`` and commutes
    with all syllables kept after it; the remainder is the unique shortest
    element of the coset (reduced word) * G_members.  Whether a position can
    be deleted depends only on the syllables after it, so one right-to-left
    pass suffices, and a deleted syllable never blocked a merge (see _push),
    so the remainder stays reduced.  Returns the kept syllables right to
    left, and the set of their vertices (the support of the remainder).
    """
    kept = []
    after = set()
    for v, e in reversed(reduced):
        if v in members and after <= adj[v]:
            continue
        kept.append((v, e))
        after.add(v)
    return kept, after


def _strip_to_coset_rep(adj, reduced, members):
    """Minimal representative of (reduced word) * G_members, lex ordered."""
    kept, _ = _strip_right_factor(adj, reduced, members)
    return _lex_order(adj, kept[::-1])


@dataclass(frozen=True)
class ParabolicHandle:
    """Canonical representative of a parabolic subgroup g G_T g^-1.

    The conjugator is the shortlex-least word in its coset modulo the
    normalizer G_T x G_{T^perp}, so equal subgroups yield identical handles.
    """

    presentation: GraphProductPresentation
    conjugator: tuple
    type_vertices: frozenset

    @property
    def type_vertex(self):
        if len(self.type_vertices) != 1:
            raise InputError("not a cyclic parabolic handle")
        return next(iter(self.type_vertices))

    @property
    def conjugator_length(self):
        return _letter_length(self.conjugator)

    def generator_word(self):
        """The element conj * v * conj^-1 for a cyclic handle."""
        c = self.conjugator
        return multiply_and_normalize(self.presentation, c + ((self.type_vertex, 1),),
                                      _inverse(c))

    def key(self):
        return (self.conjugator, tuple(sorted(self.type_vertices)))

    def __repr__(self):
        t = ",".join(sorted(self.type_vertices))
        c = NormalFormWord(self.presentation, self.conjugator)
        return f"<{t}>" if not self.conjugator else f"{c!r}.<{t}>"


def canonical_parabolic(p, conjugator, type_vertices):
    """Canonical handle of (conjugator) G_type (conjugator)^-1."""
    type_vertices = frozenset(type_vertices)
    for v in type_vertices:
        if not p.graph.has_vertex(v):
            raise InputError(f"unknown vertex {v!r} in parabolic type")
        _require_rank_one(p, v)
    adj = p.graph.adjacency
    members = type_vertices | perp(p.graph, type_vertices)
    reduced = _reduce(adj, _coerce(p, conjugator))
    return ParabolicHandle(p, _strip_to_coset_rep(adj, reduced, members), type_vertices)


def _conjugates_commute(adj, g_inv, h, st_v, st_w):
    """Whether g<v>g^-1 and h<w>h^-1 commute, for canonical conjugators g, h
    and adjacent types v, w; g_inv is the (reduced) inverse of g.

    Let r' be the reduction of g^-1 h stripped of its right factor in
    G_st(w).  That factor commutes with w, so g^-1 h w h^-1 g = r' w r'^-1,
    and that word is reduced: a cancellation, or a merge with w, would need
    a syllable of r' that lies in st(w) and can be moved to its right end,
    and the strip removed all of those.  So its support is supp(r') plus w,
    and w lies in st(v).
    """
    return _strip_right_factor(adj, _reduce(adj, h, g_inv), st_w)[1] <= st_v


def commutation_adjacency(handles):
    """Edge sets of the commutation graph on distinct canonical cyclic handles.

    ``handles`` are canonical cyclic handles over one RAAG presentation, as
    ``enumerate_cyclic_handles`` returns them; entry i of the result is the
    set of indices j whose subgroup commutes with that of handle i.

    Nodes g<v>g^-1 and h<w>h^-1 commute exactly when g^-1 h w h^-1 g lies in
    the centralizer of v, which is G_st(v) (Servatius).  Only pairs of
    adjacent types are tested, which loses no edge:

    - if w is not in st(v), the image of g^-1 h w h^-1 g in the
      abelianization is the basis vector of w, outside that of G_st(v);
    - if w = v and x = g^-1 h v h^-1 g lies in G_st(v), the retraction
      G -> G_st(v) fixes x, so x is a conjugate of v inside
      G_st(v) = <v> x G_lk(v), which is v itself: the two subgroups
      coincide, and distinct canonical handles are distinct subgroups.

    Each pair of adjacent types is visited once, so the pass makes one test
    per pair of nodes whose types are the ends of an edge of the defining
    graph (Kim-Koberda: adjacent nodes of the extension graph have adjacent
    types).  A test pushes the syllables of h onto g^-1 and makes one
    right-to-left strip pass; g^-1 and st(v) are computed once per node.
    """
    adjacency = [set() for _ in handles]
    if not handles:
        return adjacency
    graph = handles[0].presentation.graph
    adj = graph.adjacency
    by_type = {}
    for j, h in enumerate(handles):
        by_type.setdefault(h.type_vertex, []).append(j)
    stars = {v: star(graph, v) for v in by_type}
    later = {v: [w for w in adj[v] if w > v and w in by_type] for v in by_type}
    for i, hi in enumerate(handles):
        v = hi.type_vertex
        st_v = stars[v]
        g_inv = _inverse(hi.conjugator)
        for w in later[v]:
            st_w = stars[w]
            for j in by_type[w]:
                if _conjugates_commute(adj, g_inv, handles[j].conjugator, st_v, st_w):
                    adjacency[i].add(j)
                    adjacency[j].add(i)
    return adjacency


def _letters(vertices):
    return [(v, e) for v in sorted(vertices) for e in (1, -1)]


def enumerate_cyclic_handles(p, types, letter_vertices, length_bound):
    """Canonical cyclic handles with conjugator letters from given vertices.

    Breadth-first over conjugator word length with canonical deduplication;
    every handle whose canonical conjugator is a word of length at most
    ``length_bound`` over the letter vertices appears exactly once.
    """
    letters = _letters(letter_vertices)
    handles = {}
    frontier = []
    for v in sorted(types):
        h = canonical_parabolic(p, (), {v})
        handles[h.key()] = h
        frontier.append(h)
    for _ in range(length_bound):
        nxt = []
        for h in frontier:
            for letter in letters:
                h2 = canonical_parabolic(
                    p, (letter,) + h.conjugator, h.type_vertices)
                if h2.key() not in handles:
                    handles[h2.key()] = h2
                    nxt.append(h2)
        frontier = nxt
    return [handles[k] for k in sorted(handles)]
