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

Cyclic parabolic subgroups g<v>g^-1 are represented by canonical handles:
the conjugator is replaced by the shortlex-least representative of its right
coset modulo the normalizer G_st(v) of <v>, so two handles are equal exactly
when the subgroups are.  The handles are the nodes of extension balls.  The
generator inversions and the automorphisms of the defining graph permute
the handles of a ball (``handle_symmetries``), and ``commutation_adjacency``
reads one link per orbit of those maps.

Input is validated only at the public entries; the private helpers below
them take syllables that are already valid and do no checks.  One such core,
``_canonical_conjugator``, takes a word that is already reduced, strips it to
the coset representative, stopping once the kept letters pass an optional
length bound, and puts it in lex order.  Its callers reduce first where they
must: ``canonical_parabolic`` and the breadth-first search of
``enumerate_cyclic_handles`` reduce their words, the batch
``translate_conjugators`` reduces x c once per distinct conjugator c, and
``commutation_adjacency`` hands over words g r that are reduced by
construction.

The leading letters of a reduced word are the signed generators that some
shuffle of it begins with (``leading_letters``, once per distinct
conjugator of a ball).  When c and x^-1 share none, the product x c keeps
all of its letters, which lets a separation check tell, before any word is
reduced, which translates cannot land in a ball (``extension``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from .errors import InputError, echo, require, require_integer, require_iterable
from .graphs import star
from .presentation import GraphProductPresentation


def _require_rank_one(p, v):
    if p.rank(v) != 1:
        raise InputError(
            f"words are over RAAGs, but {echo(v)} has rank {p.rank(v)}; "
            "use raag(expand_to_raag(p))")


def _check_type(p, vertex):
    """Raise InputError unless vertex is a rank-one generator of p, as a handle's type is."""
    if not p.graph.has_vertex(vertex):
        raise InputError(f"unknown vertex {echo(vertex)} in parabolic type")
    _require_rank_one(p, vertex)


def _validate_syllable(p, syl):
    v, e = syl
    if not p.graph.has_vertex(v):
        raise InputError(f"generator {echo(v)} not in the presentation")
    _require_rank_one(p, v)
    if require_integer(e, "exponent", of=v) == 0:
        raise InputError(f"exponent of {echo(v)} must be non-zero")
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


def _reduce(adj, syllables):
    pile = []
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
    try:
        return tuple(_validate_syllable(p, s) for s in w)
    except (TypeError, ValueError):
        raise InputError("a word must be a NormalFormWord or an iterable of "
                         f"(generator, exponent) pairs, got {echo(w)}") from None


def multiply_and_normalize(p, w1, w2):
    """Normal form of the product of two words over the presentation p.

    The product is the reduction of the concatenated syllables; only the
    returned word is put in lexicographic order.
    """
    require(p, GraphProductPresentation, "a presentation")
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


def _strip_to_coset_rep(adj, reduced, members, length_bound=None):
    """Minimal representative of (reduced word) * G_members, as a syllable list.

    Deletes every syllable whose vertex lies in ``members`` and commutes
    with all syllables kept after it, peeling a right factor in the standard
    subgroup; the remainder is the unique shortest element of the coset.
    Whether a position can be deleted depends only on the syllables after
    it, so one right-to-left pass suffices, and a deleted syllable never
    blocked a merge (see _push), so the remainder stays reduced.  It is not
    lex ordered.  The kept word only grows during the pass, so the result is
    None as soon as its letters pass ``length_bound``: the remainder would
    have been longer than the bound.
    """
    kept = []
    after = set()
    budget = inf if length_bound is None else length_bound
    for v, e in reversed(reduced):
        if v in members and after <= adj[v]:
            continue
        kept.append((v, e))
        after.add(v)
        budget -= abs(e)
        if budget < 0:
            return None
    kept.reverse()
    return kept


def _canonical_conjugator(adj, reduced, members, length_bound=None):
    """Canonical conjugator of (reduced word) G_members: strip, lex order.

    The unvalidated core behind the public entries.  The word must already
    be reduced; the result is None when the stripped word is longer than
    ``length_bound`` letters, found during the strip and before the lex
    order, which only permutes syllables.
    """
    kept = _strip_to_coset_rep(adj, reduced, members, length_bound)
    return None if kept is None else _lex_order(adj, kept)


@dataclass(frozen=True)
class ParabolicHandle:
    """Canonical representative of a cyclic parabolic subgroup g<v>g^-1.

    The conjugator is the shortlex-least word in its coset modulo the
    normalizer G_st(v) of <v>, so equal subgroups yield identical handles.
    ``length`` is the letter length of the conjugator.
    """

    presentation: GraphProductPresentation
    conjugator: tuple
    vertex: str
    length: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "length", _letter_length(self.conjugator))

    def generator_word(self):
        """The element conj * v * conj^-1."""
        c = self.conjugator
        return multiply_and_normalize(self.presentation, c + ((self.vertex, 1),), _inverse(c))

    def key(self):
        return (self.conjugator, self.vertex)

    def sort_key(self):
        return (self.length, self.vertex, self.conjugator)

    def __repr__(self):
        c = NormalFormWord(self.presentation, self.conjugator)
        return f"<{self.vertex}>" if not self.conjugator else f"{c!r}.<{self.vertex}>"


def canonical_parabolic(p, conjugator, vertex):
    """Canonical handle of (conjugator) <vertex> (conjugator)^-1.

    The conjugator is stripped modulo G_st(vertex), the normalizer of the
    vertex subgroup.  In the path a - b - c the generator b is central, so
    every conjugate of <b> is <b> itself:

    >>> from .graphs import path_graph
    >>> from .presentation import raag
    >>> p = raag(path_graph(["a", "b", "c"]))
    >>> canonical_parabolic(p, [("a", 1), ("c", -2)], "b").key()
    ((), 'b')
    """
    require(p, GraphProductPresentation, "a presentation")
    _check_type(p, vertex)
    adj = p.graph.adjacency
    conj = _canonical_conjugator(adj, _reduce(adj, _coerce(p, conjugator)), star(p.graph, vertex))
    return ParabolicHandle(p, conj, vertex)


def translate_conjugators(h, pairs, length_bound):
    """Canonical conjugators of the translates of cyclic handles by one generator.

    ``h`` is a cyclic handle g<v>g^-1 with generator x = g v g^-1, and
    ``pairs`` are the keys (conjugator, vertex) of cyclic handles c<t>c^-1
    over the same RAAG presentation; their conjugators are not
    re-validated.  Entry i of the result is the canonical conjugator of
    the translate (x c)<t>(x c)^-1 of pair i, or None when it is longer than
    ``length_bound`` letters.  The generator word is built once and st(t)
    found once per type; the modulus G_st(t) is the normalizer of <t>.
    The reduced word of x c does not depend on t, so it is made once per
    distinct conjugator c, by pushing c onto a copy of the reduced x; the
    strip of each pair stops as soon as it passes the length bound.
    """
    require(h, ParabolicHandle, "a cyclic handle")
    try:
        pairs = [(c, t) for c, t in pairs]
    except (TypeError, ValueError):
        raise InputError("pairs must be an iterable of (conjugator, vertex) keys, "
                         f"got {echo(pairs)}") from None
    require_integer(length_bound, "conjugator length bound")
    p = h.presentation
    adj = p.graph.adjacency
    x = h.generator_word().syllables
    stars = {}
    products = {}
    out = []
    for c, t in pairs:
        st = stars.get(t)
        if st is None:
            _require_rank_one(p, t)
            st = stars[t] = star(p.graph, t)
        xc = products.get(c)
        if xc is None:
            xc = products[c] = list(x)
            for v, e in c:
                _push(adj, xc, v, e)
        out.append(_canonical_conjugator(adj, xc, st, length_bound))
    return out


def _right_divisors(adj, words, members):
    """The right divisors in G_members of reduced words, lex ordered, as (length, word).

    The syllables that the strip modulo G_members deletes from a word, in
    their order, are its largest right divisor in G_members, and every right
    divisor in G_members divides it.  The right divisors of a word are what
    is left as its first letters are taken off one at a time; a first
    letter commutes with every syllable before it.  The lex order reads
    vertices only, and the greedy order less its first pick is the greedy
    order of the rest, so only a whole syllable dropped after the first
    needs it again.  Sorted by length, then word.
    """
    tails = set()
    for word in words:
        tail, after = [], set()
        for v, e in reversed(word):
            if v in members and after <= adj[v]:
                tail.append((v, e))
            else:
                after.add(v)
        tails.add(tuple(reversed(tail)))
    todo = [_lex_order(adj, tail) for tail in tails]
    found = set()
    while todo:
        x = todo.pop()
        if x in found:
            continue
        found.add(x)
        seen = set()
        for k, (v, e) in enumerate(x):
            if seen <= adj[v]:
                s = 1 if e > 0 else -1
                if e != s:
                    todo.append(x[:k] + ((v, e - s),) + x[k + 1:])
                else:
                    todo.append(_lex_order(adj, x[:k] + x[k + 1:]) if k else x[1:])
            seen.add(v)
    return sorted((_letter_length(x), x) for x in found)


def _leading(adj, reduced):
    """The leading letters of a reduced word, as (vertex, sign) in word order."""
    seen = set()
    lead = []
    for v, e in reduced:
        if v not in seen and seen <= adj[v]:
            lead.append((v, 1 if e > 0 else -1))
        seen.add(v)
    return tuple(lead)


def leading_letters(handles):
    """The leading letters of each handle's conjugator: one tuple of (vertex, sign) per handle.

    A leading letter of a reduced word is a signed generator that some
    shuffle of the word begins with: the sign of the first syllable on a
    vertex that commutes with every syllable before it.  When the reduced
    words c and x^-1 share no leading letter, the product x c keeps all
    |x| + |c| letters: letters cancel across the seam only where a last
    letter of x, the inverse of a leading letter of x^-1, meets a leading
    letter of c on its vertex with the opposite sign.  Computed once per
    distinct conjugator.
    """
    if not handles:
        return []
    adj = handles[0].presentation.graph.adjacency
    found = {}
    out = []
    for h in handles:
        c = h.conjugator
        lead = found.get(c)
        if lead is None:
            lead = found[c] = _leading(adj, c)
        out.append(lead)
    return out


def handle_symmetries(handles, graph_automorphisms=()):
    """Index permutations of a ball's handles under automorphisms of the group.

    ``handles`` are the canonical cyclic handles of a ball: every handle of
    conjugator length at most some bound over a set of types that the maps
    below keep.  An automorphism of G maps g<v>g^-1 to the subgroup of its
    images and keeps commuting, so it permutes the nodes of the extension
    graph and keeps its edges.  Two kinds keep every conjugator length:

    - the inversion of one generator a, which flips the sign of every
      exponent of a.  Strip and lex order read vertices only, so a
      canonical conjugator stays canonical with its signs flipped;
    - the lift of an automorphism of the defining graph (a dict of the
      vertices it moves), which relabels the type and each syllable of the
      conjugator.  Stripping commutes with the relabelling, so only the lex
      order is taken again.  Only nodes whose conjugator or type meets the
      moved vertices can move.

    Returns one map per generator inversion, in vertex order, then one per
    graph automorphism, each as a dict of the indices it moves; identity
    maps are dropped.
    """
    if not handles:
        return []
    adj = handles[0].presentation.graph.adjacency
    index = {}
    nodes = {}      # conjugator -> [(type, index)] of the handles that have it
    of_type = {}    # type -> conjugators of its handles
    holding = {}    # vertex -> the conjugators that hold it
    for i, h in enumerate(handles):
        c, v = key = h.key()
        index[key] = i
        if c not in nodes:
            nodes[c] = []
            for u in dict.fromkeys(u for u, _ in c):
                holding.setdefault(u, []).append(c)
        nodes[c].append((v, i))
        of_type.setdefault(v, []).append(c)
    maps = []
    for a in sorted(holding):
        flip = {}
        for c in holding[a]:
            image = tuple((u, -e if u == a else e) for u, e in c)
            for v, i in nodes[c]:
                flip[i] = index[(image, v)]
        maps.append(flip)
    for sigma in graph_automorphisms:
        moved = sorted(sigma)
        images = dict.fromkeys(c for x in moved for c in holding.get(x, ()))
        lift = {}
        for c in images:
            word = [(sigma.get(u, u), e) for u, e in c]
            images[c] = image = _lex_order(adj, word) if len(word) > 1 else tuple(word)
            for v, i in nodes[c]:
                lift[i] = index[(image, sigma.get(v, v))]
        for v in moved:
            for c in of_type.get(v, ()):
                if c not in images:
                    lift[index[(c, v)]] = index[(c, sigma[v])]
        maps.append({i: j for i, j in lift.items() if i != j})
    return [m for m in maps if m]


def commutation_adjacency(handles, symmetries=()):
    """Edge sets of the commutation graph on distinct canonical cyclic handles.

    ``handles`` are canonical cyclic handles over one RAAG presentation, as
    ``enumerate_cyclic_handles`` returns them; entry i of the result is the
    set of indices j whose subgroup commutes with that of handle i.
    ``symmetries`` are automorphisms of the graph on them, as dicts of the
    indices they move (``handle_symmetries``).

    The edges are read off the link of one node per orbit of the
    symmetries, and every other node of the orbit takes the image of the
    link of the node it was reached from; with no symmetries every node is
    its own orbit.  Nodes g<v>g^-1 and h<w>h^-1
    commute exactly when z = y w y^-1, y = g^-1 h, lies in the centralizer
    of v, which is G_st(v) (Servatius).  The retraction G -> G_st(v) then
    fixes z.  It kills w outside st(v), so w lies in st(v), and z equals
    y' w y'^-1 for the image y' = v^k x of y in G_st(v) = <v> x G_lk(v),
    with x in G_lk(v); v^k commutes with x w x^-1, so z = x w x^-1.  If
    w = v then z = v and the two subgroups coincide.  Otherwise w lies in
    lk(v) and the neighbour is g x<w>x^-1 g^-1 (Kim-Koberda: the link of
    g<v>g^-1 is g {x<w>x^-1 : w in lk(v), x in G_lk(v)}).

    So for each pair (v, w) of adjacent types of the nodes whose links are
    read, the candidates r are listed once, and a node g<v>g^-1 looks up
    g r<w>r^-1 g^-1 for them.  The word g r is reduced, because g is the
    minimal element of g G_st(v) and r lies in G_lk(v); stripping its right
    factor in G_st(w) gives the canonical conjugator.  That strip keeps all
    of a stripped r and keeps at least what survives the strip of g alone,
    since more syllables after a position only make it harder to delete.
    So a neighbour's conjugator ends with its r, a right divisor in G_lk(v),
    and the candidates are the right divisors in G_lk(v) of the type-w
    conjugators (``_right_divisors``); on a ball these are all the canonical
    x<w>x^-1 over the letters lk(v) up to the longest conjugator L.  Only the
    r with |r| <= L - |strip_st(w)(g)| can reach a handle of conjugator
    length at most L.  Their strips can still be longer than L; such a
    strip stops once it passes L and is looked up as None, without a lex
    order.  The words g r go to the core as they are.
    """
    adjacency = [None] * len(handles)
    if not handles:
        return adjacency
    p = handles[0].presentation
    adj = p.graph.adjacency
    index = {h.key(): i for i, h in enumerate(handles)}
    L = max(h.length for h in handles)
    of_type = {}
    for h in handles:
        of_type.setdefault(h.vertex, []).append(h.conjugator)
    types = of_type.keys()
    links = {}      # (v, w) -> [(length, conjugator)] of the x<w>x^-1 over lk(v)
    stars = {}
    for i, h in enumerate(handles):
        if adjacency[i] is not None:
            continue
        v, g = h.vertex, h.conjugator
        adjacency[i] = link = set()
        for w in adj[v] & types:
            rs = links.get((v, w))
            if rs is None:
                rs = links[v, w] = _right_divisors(adj, of_type[w], adj[v])
            st_w = stars.get(w)
            if st_w is None:
                st_w = stars[w] = adj[w] | {w}
            budget = L - _letter_length(_strip_to_coset_rep(adj, g, st_w))
            for length, r in rs:
                if length > budget:
                    break
                j = index.get((_canonical_conjugator(adj, g + r, st_w, L), w))
                if j is not None:
                    link.add(j)
        orbit = [i]
        for y in orbit:
            for sigma in symmetries:
                x = sigma.get(y, y)
                if adjacency[x] is None:
                    image = sigma.get
                    adjacency[x] = {image(z, z) for z in adjacency[y]}
                    orbit.append(x)
    return adjacency


def _letters(vertices):
    return [(v, e) for v in sorted(vertices) for e in (1, -1)]


# the most handles enumerate_cyclic_handles builds: the largest ball a test
# or CI step builds is the C5 ball at radius 5, 34,145 handles, which
# ``analyze --ball-bound 5`` fingerprints; on a 2-core Xeon with CPython 3.11
# about 90,000 handle keys are enumerated per second, so a refusal comes
# within about 0.4 s
MAX_HANDLES = 35_000


def enumerate_cyclic_handles(p, types, letter_vertices, length_bound):
    """Canonical cyclic handles with conjugator letters from given vertices.

    Breadth-first over conjugator word length with canonical deduplication;
    every handle whose canonical conjugator is a word of length at most
    ``length_bound`` over the letter vertices appears exactly once, in
    ``sort_key()`` order: by conjugator length, then type, then conjugator.
    That is the node order of an extension ball.  The search runs on the
    handles' keys, counted as they are found, and builds the handles only
    once it is done; one more than ``MAX_HANDLES`` raises InputError.
    """
    require(p, GraphProductPresentation, "a presentation")
    if require_integer(length_bound, "conjugator length bound") < 0:
        raise InputError("conjugator length bound must be >= 0")
    letter_vertices = require_iterable(letter_vertices, "letter vertices")
    keys = set()
    frontier = []
    for v in sorted(require_iterable(types, "parabolic types")):
        _check_type(p, v)
        key = ((), v)    # the empty conjugator is canonical
        keys.add(key)
        frontier.append(key)
    if length_bound > 0:  # letters are checked once, and only if a step is taken
        letters = [_validate_syllable(p, s) for s in _letters(letter_vertices)]
        stars = {t: star(p.graph, t) for _, t in frontier}
    adj = p.graph.adjacency
    for length in range(1, length_bound + 1):
        nxt = []
        for c, t in frontier:
            for letter in letters:
                key = (_canonical_conjugator(adj, _reduce(adj, (letter,) + c), stars[t]), t)
                if key not in keys:
                    keys.add(key)
                    nxt.append(key)
                    if len(keys) > MAX_HANDLES:
                        raise InputError(
                            f"the extension ball of radius {length_bound} passes the bound "
                            f"of {MAX_HANDLES} nodes: {len(keys)} handles by conjugator "
                            f"length {length}")
        frontier = nxt
    return sorted((ParabolicHandle(p, c, t) for c, t in keys), key=ParabolicHandle.sort_key)
