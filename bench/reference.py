"""Reference implementations the benchmark checks answers against.

Everything here is written from the definitions, over plain adjacency
dicts (label -> frozenset of neighbour labels), and shares no code with the
package under test.  networkx is used only to cross-check isomorphism.
"""

from __future__ import annotations

import itertools

import networkx as nx


# -- graphs as adjacency dicts -------------------------------------------------

def make_graph(vertices, edges):
    adj = {v: set() for v in vertices}
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    return {v: frozenset(ns) for v, ns in adj.items()}


def edge_list(adj):
    return sorted((u, w) for u in adj for w in adj[u] if u < w)


def relabel(adj, mapping):
    return {mapping[v]: frozenset(mapping[w] for w in ns) for v, ns in adj.items()}


def star(adj, v):
    return adj[v] | {v}


def components(adj, keep):
    keep = set(keep)
    seen, comps = set(), []
    for root in sorted(keep):
        if root in seen:
            continue
        comp, stack = {root}, [root]
        while stack:
            for w in adj[stack.pop()]:
                if w in keep and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def decode_graph6(line):
    """Vertices v1..vn and edges of a graph6 string (n <= 62)."""
    data = [ord(c) - 63 for c in line.strip()]
    n, bits = data[0], data[1:]
    verts = [f"v{i + 1}" for i in range(n)]
    edges, k = [], 0
    for j in range(1, n):
        for i in range(j):
            if bits[k // 6] >> (5 - k % 6) & 1:
                edges.append((verts[i], verts[j]))
            k += 1
    return make_graph(verts, edges)


def to_nx(adj):
    g = nx.Graph()
    g.add_nodes_from(adj)
    g.add_edges_from(edge_list(adj))
    return g


def isomorphic(a, b):
    return nx.is_isomorphic(to_nx(a), to_nx(b))


def is_isomorphism(iso, a, b):
    """iso is a bijection V(a) -> V(b) carrying edges onto edges, checked edge by edge."""
    if set(iso) != set(a) or sorted(iso.values()) != sorted(b):
        return False
    if sum(len(ns) for ns in a.values()) != sum(len(ns) for ns in b.values()):
        return False
    return all(iso[w] in b[iso[u]] for u in a for w in a[u])


# -- star gluing ---------------------------------------------------------------

def fresh_label(i, x, taken):
    """Copy label "c<i>.<x>", the separator doubled until the label is unused."""
    sep = "."
    while f"c{i}{sep}{x}" in taken:
        sep += "."
    return f"c{i}{sep}{x}"


def glue(adj, v, k):
    """k copies of the graph identified along the closed star of v.

    Copy 1 keeps its labels; an unshared vertex x of copy i >= 2 becomes
    fresh_label(i, x).  The result has k|V| - (k-1)|st(v)| vertices.
    """
    shared = star(adj, v)
    names = {}
    taken = set(adj)
    for i in range(2, k + 1):
        for x in sorted(adj):
            if x not in shared:
                names[i, x] = fresh_label(i, x, taken)
                taken.add(names[i, x])
    verts = sorted(taken)
    edges = set(edge_list(adj))
    for i in range(2, k + 1):
        for x, y in edge_list(adj):
            edges.add((names.get((i, x), x), names.get((i, y), y)))
    return make_graph(verts, edges)


def glued_size(n, st, k):
    return k * n - (k - 1) * st


def replay_chain(base, chain):
    """Apply [(vertex, k), ...] to base; None when a vertex is not in the graph."""
    g = base
    for v, k in chain:
        if v not in g or not isinstance(k, int) or k < 2:
            return None
        g = glue(g, v, k)
    return g


# -- presentations: (adj, ranks) -------------------------------------------------

def clique_reduce(adj, ranks):
    """Merge vertices with equal closed stars; keep the least label, sum ranks."""
    classes = {}
    for v in sorted(adj):
        classes.setdefault(star(adj, v), []).append(v)
    rep, rank = {}, {}
    for members in classes.values():
        rank[members[0]] = sum(ranks[v] for v in members)
        for v in members:
            rep[v] = members[0]
    edges = {tuple(sorted((rep[u], rep[w]))) for u, w in edge_list(adj) if rep[u] != rep[w]}
    return make_graph(sorted(rank), edges), rank


def expand(adj, ranks):
    """Defining graph of the graph product: a rank-r vertex becomes an r-clique."""
    names = {v: [v] if ranks[v] == 1 else [f"{v}#{i}" for i in range(1, ranks[v] + 1)]
             for v in adj}
    verts = [x for v in sorted(adj) for x in names[v]]
    edges = [pair for v in adj for pair in itertools.combinations(names[v], 2)]
    edges += [(x, y) for u, w in edge_list(adj) for x in names[u] for y in names[w]]
    return make_graph(verts, edges)


# -- Charney-Vogtmann combinatorics --------------------------------------------

def dominated(adj, v, w):
    """v <= w: lk(v) is contained in st(w)."""
    return adj[v] <= star(adj, w)


def transvections(adj):
    return [(v, w) for v in sorted(adj) for w in sorted(adj)
            if v != w and dominated(adj, v, w)]


def partial_conjugation_sites(adj):
    sites = []
    for v in sorted(adj):
        rest = set(adj) - star(adj, v)
        comps = components(adj, rest)
        if len(comps) >= 2:
            sites.extend((v, sorted(c)) for c in comps)
    return sites


def out_finite(adj):
    return not transvections(adj) and not partial_conjugation_sites(adj)


def automorphism_count(adj):
    """Backtracking count of adjacency-preserving bijections (small graphs only)."""
    verts = sorted(adj, key=lambda v: (-len(adj[v]), v))
    image = {}
    used = set()

    def extend(k):
        if k == len(verts):
            return 1
        v = verts[k]
        total = 0
        for w in verts:
            if w in used or len(adj[w]) != len(adj[v]):
                continue
            if all((u in adj[v]) == (image[u] in adj[w]) for u in verts[:k]):
                image[v] = w
                used.add(w)
                total += extend(k + 1)
                used.discard(w)
        return total

    return extend(0)


def untransvectable(adj):
    return [v for v in sorted(adj)
            if not any(w != v and dominated(adj, v, w) for w in adj)]


def nonabelian_untransvectable_class(adj):
    """Some maximal domination class has two or more pairwise non-adjacent vertices."""
    for v in adj:
        cls = [w for w in adj if dominated(adj, v, w) and dominated(adj, w, v)]
        above = [w for w in adj if dominated(adj, v, w)]
        maximal = all(dominated(adj, w, v) for w in above)
        if maximal and len(cls) >= 2 and cls[1] not in adj[cls[0]]:
            return True
    return False


def all_untransvectable_strongly(adj):
    """Each untransvectable v: every component of the complement of lk(v)
    contains an untransvectable vertex."""
    untrans = set(untransvectable(adj))
    for v in untrans:
        link = adj[v]
        complement = {x: frozenset(y for y in link if y != x and y not in adj[x])
                      for x in link}
        if any(not comp & untrans for comp in components(complement, link)):
            return False
    return True


def me_invariant_violation(adj):
    """Reason code the package must give for a not_equivalent answer, or None.

    Mirrors the documented order of the separating invariants on the
    clique-reduced graph of H when G has finite Out and at least 2 vertices.
    """
    if len(adj) == 1:
        return "amenable-mismatch"
    if nonabelian_untransvectable_class(adj):
        return "invariant-nonabelian-class"
    if not all_untransvectable_strongly(adj):
        return "invariant-strong-untransvectability"
    return None
