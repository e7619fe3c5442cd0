"""The three workloads: seeded inputs, the query stream of one pass, and answer checks.

A workload's constructor makes every input document from the seed, as
JSON or DOT text, without touching the package under test, so the same
seed gives byte-identical documents.  ``bind`` then receives the package
and the parsed inputs, and ``pass_queries`` yields the queries of one pass.
Every query carries its own check, written against ``reference`` and never
against the package.

Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os
import random

import reference as R

HERE = os.path.dirname(os.path.abspath(__file__))

# indices into atlas7.g6 (the networkx graph atlas order without the empty graph)
C5, PRISM, C7_COMPLEMENT = 37, 173, 1169
SUBGROUPS_DEFAULT = (16, 2)  # `raagme subgroups` CLI default (max_vertices, max_steps)


class CheckFailed(Exception):
    """The benchmark's check rejected an answer."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- input generation (no import of the package under test) ----------------------

def load_atlas():
    with open(os.path.join(HERE, "atlas7.g6"), encoding="ascii") as fh:
        return [R.decode_graph6(line) for line in fh if line.strip()]


def finite_out_pool(atlas):
    """The finite-Out graphs on 2..7 vertices, smallest first."""
    return [i for i, g in enumerate(atlas) if len(g) > 1 and R.out_finite(g)]


def random_labels(rng, n):
    out = set()
    while len(out) < n:
        out.add(rng.choice("abdefghjkmnpqrstuwxyz") + str(rng.randrange(10, 1000)))
    out = sorted(out)
    rng.shuffle(out)
    return out


def relabeled(rng, adj, ranks=None):
    """A copy under a seeded relabeling, with ranks carried along."""
    mapping = dict(zip(sorted(adj), random_labels(rng, len(adj))))
    new = R.relabel(adj, mapping)
    ranks = {mapping[v]: (ranks or {}).get(v, 1) for v in adj}
    return new, ranks


def to_document(rng, fmt, adj, ranks):
    """JSON or DOT text with vertex and edge order shuffled by the seed."""
    verts = sorted(adj)
    rng.shuffle(verts)
    edges = [list(e) if rng.random() < 0.5 else [e[1], e[0]] for e in R.edge_list(adj)]
    rng.shuffle(edges)
    if fmt == "json":
        return json.dumps({"vertices": [{"id": v, "rank": ranks[v]} for v in verts],
                           "edges": edges})
    lines = ["graph G {"]
    lines += [f"  {v} [rank={ranks[v]}];" if ranks[v] > 1 else f"  {v};" for v in verts]
    lines += [f"  {u} -- {w};" for u, w in edges]
    return "\n".join(lines + ["}"]) + "\n"


class Doc:
    """One input document and the reference graph it was written from."""

    def __init__(self, rng, adj, ranks=None, fmt=None):
        self.adj = adj
        self.ranks = ranks or {v: 1 for v in adj}
        self.fmt = fmt or rng.choice(("json", "dot"))
        self.text = to_document(rng, self.fmt, adj, self.ranks)


def random_graph(rng, n, accept, p=0.5, tries=20000):
    verts = [f"x{i}" for i in range(n)]
    for _ in range(tries):
        g = R.make_graph(verts, [(verts[i], verts[j]) for i in range(n)
                                 for j in range(i + 1, n) if rng.random() < p])
        if accept(g):
            return g
    raise RuntimeError(f"no random graph on {n} vertices met the condition")


def counterexample_graph():
    """The 5-cycle with v1 replaced by a cone over two isolated vertices: its
    cone vertex is untransvectable but not strongly untransvectable."""
    return R.make_graph(
        ["v0", "w1", "w2", "v2", "v3", "v4", "v5"],
        [("v0", "w1"), ("v0", "w2"), ("v0", "v2"), ("v0", "v5"), ("w1", "v2"),
         ("w1", "v5"), ("w2", "v2"), ("w2", "v5"), ("v2", "v3"), ("v3", "v4"),
         ("v4", "v5")])


def gluing_chain(rng, g, depth, k_rule, max_vertices=24):
    """Apply up to ``depth`` seeded star gluings within the vertex budget.

    Each step glues at a seeded vertex among those with the smallest star
    (so the size of the result does not depend on the seed), with the
    least or the largest k that fits.
    """
    for _ in range(depth):
        stars = {v: len(R.star(g, v)) for v in sorted(g) if len(R.star(g, v)) < len(g)}
        if not stars:
            break
        st = min(stars.values())
        ks = [k for k in range(2, max_vertices + 1)
              if R.glued_size(len(g), st, k) <= max_vertices]
        if not ks:
            break
        v = rng.choice([v for v in stars if stars[v] == st])
        g = R.glue(g, v, ks[0] if k_rule == "min" else ks[-1])
    return g


def rank_blowup(rng, adj):
    ranks = {v: rng.randint(1, 3) for v in adj}
    ranks[rng.choice(sorted(adj))] = rng.randint(2, 3)
    return ranks


def unit(adj):
    return {v: 1 for v in adj}


# -- the workload base class --------------------------------------------------------

class Query:
    """One call into the package, checked afterwards outside the timed region."""

    __slots__ = ("ident", "kind", "fn", "check", "serialize")

    def __init__(self, ident, kind, fn, check, serialize=repr):
        self.ident = ident
        self.kind = kind
        self.fn = fn
        self.check = check          # answer -> decided (bool); raises CheckFailed
        self.serialize = serialize  # answer -> str, compared across passes


class Workload:
    name = ""

    def __init__(self):
        self.docs = []

    def doc(self, rng, adj, ranks=None, fmt=None):
        d = Doc(rng, adj, ranks, fmt)
        self.docs.append(d)
        return d

    def document_texts(self):
        return [[d.fmt, d.text] for d in self.docs]

    def write_files(self, work_dir):
        """Workloads that read files write them here; the default reads none."""

    def bind(self, raagme, parsed):
        """Receive the package and the parsed presentation of each document."""
        self.lib = raagme
        for d, p in zip(self.docs, parsed):
            d.parsed = p

    def pass_queries(self, pass_no, ctx):
        raise NotImplementedError


# -- me-decide ----------------------------------------------------------------

def decision_json(d):
    return json.dumps(d.to_json(), sort_keys=True)


def check_iso_witness(iso, source, target):
    require(isinstance(iso, dict), "witness has no isomorphism")
    require(R.is_isomorphism(iso, source, target),
            "witness isomorphism fails the edge-by-edge check")


def check_me_witness(g, lam, witness):
    chain = [(c["vertex"], c["k"]) for c in witness["chain"]]
    replayed = R.replay_chain(g, chain)
    require(replayed is not None, f"witness chain {chain} does not replay")
    require(witness["index"] == math.prod(k for _, k in chain), "witness index is wrong")
    check_iso_witness(witness["isomorphism"], replayed, lam)


class MeDecide(Workload):
    """decide_oe / decide_me / enumerate_findex_graphs over the finite-Out pool."""

    name = "me-decide"

    def __init__(self, seed):
        super().__init__()
        rng = random.Random(f"{self.name}/{seed}")
        atlas = load_atlas()
        self.cases = []
        for gi in finite_out_pool(atlas):
            base = atlas[gi]
            g, _ = relabeled(rng, base)
            gdoc = self.doc(rng, g)
            expanded = R.expand(base, rank_blowup(rng, base))
            h_classes = [
                ("oe", "rank-blowup", relabeled(rng, base, rank_blowup(rng, base))),
                ("oe", "expanded-blowup", relabeled(rng, expanded)),
                ("oe", "glued", relabeled(rng, gluing_chain(rng, base, 1, "min"))),
                ("me", "rank-blowup", relabeled(rng, base, rank_blowup(rng, base))),
                ("me", "glued-d1-kmin", relabeled(rng, gluing_chain(rng, base, 1, "min"))),
                ("me", "glued-d1-kmax", relabeled(rng, gluing_chain(rng, base, 1, "max"))),
                ("me", "glued-d2", relabeled(rng, gluing_chain(rng, base, 2, "min"))),
                ("me", "glued-d3", relabeled(rng, gluing_chain(rng, base, 3, "min"))),
                ("me", "violating-counterexample", relabeled(rng, counterexample_graph())),
                ("me", "violating-random", relabeled(rng, random_graph(
                    rng, 8, lambda h: len(R.clique_reduce(h, unit(h))[0]) > 1
                    and R.me_invariant_violation(R.clique_reduce(h, unit(h))[0])))),
            ]
            for n in (9, 13):
                h_classes.append(("me", f"random-passing-{n}", relabeled(rng, random_graph(
                    rng, n, lambda h: len(R.clique_reduce(h, unit(h))[0]) == len(h)
                    and R.me_invariant_violation(h) is None))))
            queries = [("enum", "subgroups", None)]
            for op, cls, (h, ranks) in h_classes:
                queries.append((op, cls, self.doc(rng, h, ranks)))
            self.cases.append((gi, gdoc, queries))

    def pass_queries(self, pass_no, ctx):
        lib = self.lib
        for gi, gdoc, queries in self.cases:
            gamma = gdoc.parsed.graph
            for op, cls, hdoc in queries:
                ident = f"g{gi}/{op}/{cls}"
                if op == "enum":
                    yield Query(ident, "enumerate_findex_graphs",
                                lambda gamma=gamma: lib.enumerate_findex_graphs(
                                    gamma, *SUBGROUPS_DEFAULT),
                                lambda r, g=gdoc.adj: self.check_enum(g, r),
                                enum_json)
                elif op == "oe":
                    yield Query(ident, "decide_oe",
                                lambda gamma=gamma, h=hdoc.parsed: lib.decide_oe(gamma, h),
                                lambda d, g=gdoc.adj, h=hdoc: self.check_oe(g, h, d),
                                decision_json)
                else:
                    yield Query(ident, "decide_me",
                                lambda gamma=gamma, h=hdoc.parsed: lib.decide_me(gamma, h),
                                lambda d, g=gdoc.adj, h=hdoc, c=cls: self.check_me(g, h, c, d),
                                decision_json)

    @staticmethod
    def check_oe(g, hdoc, d):
        lam, _ = R.clique_reduce(hdoc.adj, hdoc.ranks)
        expected = R.isomorphic(lam, g)
        if d.verdict == "equivalent":
            require(expected, "decide_oe says equivalent; networkx finds no isomorphism")
            check_iso_witness(d.witness["isomorphism"], lam, g)
        else:
            require(d.verdict == "not_equivalent", f"decide_oe verdict {d.verdict!r}")
            require(not expected, "decide_oe says not_equivalent; networkx finds an isomorphism")
        return True

    @staticmethod
    def check_me(g, hdoc, cls, d):
        lam, _ = R.clique_reduce(hdoc.adj, hdoc.ranks)
        violation = R.me_invariant_violation(lam)
        if d.verdict == "equivalent":
            check_me_witness(g, lam, d.witness)
            return True
        if d.verdict == "not_equivalent":
            require(not (cls.startswith("glued") or cls == "rank-blowup"),
                    f"constructed-equivalent H ({cls}) answered not_equivalent")
            require(violation is not None and d.reason_code == violation,
                    f"not_equivalent by {d.reason_code!r}; reference invariant: {violation!r}")
            return True
        require(d.verdict == "unknown", f"decide_me verdict {d.verdict!r}")
        require(violation is None, f"unknown although H violates {violation!r}")
        return False

    @staticmethod
    def check_enum(g, result):
        seen = []
        for w in result.witnesses:
            replayed = R.replay_chain(g, list(w.chain))
            require(replayed is not None, f"chain {w.chain} does not replay")
            require(sorted(w.graph.vertices) == sorted(replayed)
                    and w.graph.edges() == R.edge_list(replayed),
                    f"chain {w.chain} replays to a different graph")
            require(w.index == math.prod(k for _, k in w.chain), "witness index is wrong")
            require(len(replayed) <= SUBGROUPS_DEFAULT[0], "witness exceeds the vertex budget")
            require(not any(R.isomorphic(replayed, other) for other in seen),
                    "two witnesses are isomorphic")
            seen.append(replayed)
        return not result.truncated


def enum_json(result):
    return json.dumps({"truncated": result.truncated,
                       "witnesses": [[list(w.chain), w.index, w.graph.edges()]
                                     for w in result.witnesses]})


# -- ext-ball -------------------------------------------------------------------

EXT_POOL = (("C5", C5), ("prism", PRISM), ("C7-complement", C7_COMPLEMENT))
BALL_RADIUS = 2
# One pass of ext-ball takes about a whole run, so every query runs several
# times within the pass, in rounds, so that a burst of contention on the
# host hits one round; a query's time is the median over its rounds.  The
# ball queries run in 2 rounds (first and last), the star checks, which set
# the percentiles, in CHECK_ROUNDS rounds between them.
CHECK_ROUNDS = 5


def load_ext_reference():
    with open(os.path.join(HERE, "ext_ball_reference.json"), encoding="ascii") as fh:
        return json.load(fh)


class ExtBall(Workload):
    """Radius-2 extension balls and their structural checks on three pool graphs."""

    name = "ext-ball"

    def __init__(self, seed):
        super().__init__()
        rng = random.Random(f"{self.name}/{seed}")
        atlas = load_atlas()
        self.reference = load_ext_reference()
        self.pool = [(name, self.doc(rng, relabeled(rng, atlas[i])[0])) for name, i in EXT_POOL]

    def pass_queries(self, pass_no, ctx):
        yield from self.ball_queries(ctx)
        checks = []
        for name, doc in self.pool:
            ball = ctx.get(f"{name}/build")
            if ball is not None:
                checks += self.star_checks(name, doc, ball)
        for _ in range(CHECK_ROUNDS):
            yield from checks
        yield from self.ball_queries(ctx)

    def ball_queries(self, ctx):
        lib = self.lib
        for name, doc in self.pool:
            ref = self.reference[name]
            p = doc.parsed
            key = f"{name}/build"
            ctx.pop(key, None)
            yield Query(key, "build_ext_ball", lambda: lib.build_ext_ball(p, BALL_RADIUS),
                        lambda b, ref=ref: self.check_ball(b, ref), ball_summary)
            ball = ctx.get(key)
            yield Query(f"{name}/ue-json", "ue_restriction+ball_json",
                        lambda: lib.extension.ball_json(lib.ue_restriction(ball)),
                        lambda doc, ref=ref: self.check_ue_json(doc, ref),
                        lambda doc: json.dumps(doc, sort_keys=True))
            yield Query(f"{name}/invariants", "invariant_report",
                        lambda: lib.invariant_report(p, ball_bound=BALL_RADIUS),
                        lambda r, d=doc, ref=ref: self.check_report(r, d, ref),
                        lambda r: json.dumps(r.to_json(), sort_keys=True))

    def star_checks(self, name, doc, ball):
        lib = self.lib
        checks = [Query(f"{name}/separation/{i}", "star_separation_check",
                        lambda i=i: lib.star_separation_check(ball, i), check_separation)
                  for i in sorted(ball.interior())]
        for v in sorted(doc.adj):
            i = ball.standard_node(v)
            for removed in ({i}, {i, min(ball.adjacency[i])}):
                checks.append(Query(
                    f"{name}/connectivity/{i}/{len(removed)}",
                    "star_complement_connectivity_check",
                    lambda i=i, x=removed: lib.star_complement_connectivity_check(ball, i, x),
                    check_connectivity))
        return checks

    @staticmethod
    def check_ball(b, ref):
        require((b.n_nodes, b.n_edges) == (ref["ball_nodes"], ref["ball_edges"]),
                f"ball has {b.n_nodes} nodes / {b.n_edges} edges; reference "
                f"{ref['ball_nodes']} / {ref['ball_edges']}")
        require(len(b.interior()) == ref["interior_nodes"], "interior node count differs")
        require(all(n.length <= BALL_RADIUS for n in b.nodes), "node beyond the radius")
        return True

    @staticmethod
    def check_ue_json(doc, ref):
        require((doc["node_count"], doc["edge_count"]) == (ref["ue_nodes"], ref["ue_edges"]),
                "untransvectable ball size differs from the reference")
        require(len(doc["nodes"]) == doc["node_count"]
                and len(doc["edges"]) == doc["edge_count"], "ball_json counts disagree")
        require(all(0 <= i < j < doc["node_count"] for i, j in doc["edges"]),
                "ball_json edge out of range")
        return True

    @staticmethod
    def check_report(r, doc, ref):
        fingerprints = [h for _, h in r.ue_ball_fingerprints]
        require(fingerprints == ref["ue_fingerprints"],
                "UE ball fingerprints differ from the reference (label dependence?)")
        require(r.out_finite and not r.nonabelian_untransvectable_class
                and r.all_untransvectable_strongly, "invariant flags of a finite-Out graph")
        require(list(r.untransvectable) == R.untransvectable(doc.adj),
                "untransvectable vertices differ from the reference")
        return True


def ball_summary(b):
    return json.dumps([b.n_nodes, b.n_edges, [n.sort_key() for n in b.nodes],
                       [sorted(a) for a in b.adjacency]])


def check_separation(rep):
    require(rep.violations == (), f"star separation violated at node {rep.center}")
    require(rep.component_count >= 2 and rep.entries, "star removal separated nothing")
    return True


def check_connectivity(rep):
    require(rep.interior_connected, f"interior disconnected after removing node {rep.center}")
    return True


# -- cli-batch ----------------------------------------------------------------------

def clique_union_automorphisms(adj):
    """|Aut| of a disjoint union of complete graphs, by formula."""
    comps = R.components(adj, adj)
    require(all(len(adj[v]) == len(c) - 1 for c in comps for v in c), "not a clique union")
    sizes = sorted(len(c) for c in comps)
    count = math.prod(math.factorial(s) for s in sizes)
    for s in set(sizes):
        count *= math.factorial(sizes.count(s))
    return count


def clique_union(size, count):
    verts = [f"v{i}" for i in range(1, size * count + 1)]
    return R.make_graph(verts, [(verts[b * size + i], verts[b * size + j])
                                for b in range(count) for i in range(size)
                                for j in range(i + 1, size)])


SYMMETRIC = (("edgeless-8", 1, 8), ("edgeless-9", 1, 9), ("complete-8", 8, 1),
             ("complete-9", 9, 1), ("triangles-3", 3, 3), ("matching-4", 2, 4))


def cli_answer_json(answer):
    return json.dumps(list(answer))


class CliBatch(Workload):
    """In-process `raagme ... --format json` over the n <= 7 atlas."""

    name = "cli-batch"

    def __init__(self, seed):
        super().__init__()
        rng = random.Random(f"{self.name}/{seed}")
        atlas = load_atlas()
        self.graphs = []
        for i, base in enumerate(atlas):
            ranks = unit(base)
            ranks[rng.choice(sorted(base))] = 2
            adj, ranks = relabeled(rng, base, ranks)
            first = rng.choice(("json", "dot"))
            pair = {fmt: self.doc(rng, adj, ranks, fmt) for fmt in ("json", "dot")}
            self.graphs.append((f"g{i:04d}", pair, first))
        pool = finite_out_pool(atlas)
        infinite = [i for i, g in enumerate(atlas) if len(g) >= 3 and not R.out_finite(g)]
        self.oe = []
        for i in pool:
            g = self.doc(rng, relabeled(rng, atlas[i])[0])
            h = self.doc(rng, *relabeled(rng, atlas[i], rank_blowup(rng, atlas[i])))
            self.oe.append((f"oe-finite-{i}", g, h, True))
        for i in rng.sample(infinite, len(pool)):
            g = self.doc(rng, relabeled(rng, atlas[i])[0])
            h = self.doc(rng, relabeled(rng, atlas[i])[0])
            self.oe.append((f"oe-infinite-{i}", g, h, False))
        self.symmetric = [(name, self.doc(rng, relabeled(rng, clique_union(size, count))[0]))
                          for name, size, count in SYMMETRIC]
        self.hash_classes = {}

    def write_files(self, work_dir):
        for n, d in enumerate(self.docs):
            d.path = os.path.join(work_dir, f"d{n:05d}.{d.fmt}")
            with open(d.path, "w", encoding="utf-8") as fh:
                fh.write(d.text)

    def pass_queries(self, pass_no, ctx):
        run = self.lib.cli.run_command
        flip = {"json": "dot", "dot": "json"}
        for name, pair, first in self.graphs:
            d = pair[first if pass_no % 2 == 0 else flip[first]]
            for cmd in (["reduce"], ["out"], ["analyze", "--ball-bound", "0"]):
                argv = cmd + [d.path, "--format", "json"]
                yield Query(f"{name}/{cmd[0]}", f"cli {cmd[0]}", lambda argv=argv: run(argv),
                            lambda a, d=d, c=cmd[0]: self.check_graph_command(c, d, a),
                            cli_answer_json)
        for name, g, h, finite in self.oe:
            argv = ["oe", g.path, h.path, "--format", "json"]
            yield Query(name, "cli oe", lambda argv=argv: run(argv),
                        lambda a, g=g, h=h, f=finite: check_cli_oe(g, h, f, a), cli_answer_json)
        for name, d in self.symmetric:
            argv = ["out", d.path, "--format", "json"]
            yield Query(f"{name}/out", "cli out", lambda argv=argv: run(argv),
                        lambda a, d=d: check_out(d.adj, clique_union_automorphisms(d.adj), a),
                        cli_answer_json)

    def check_graph_command(self, cmd, d, answer):
        code, text = answer
        require(code == 0, f"{cmd} exited {code}: {text.strip()}")
        doc = json.loads(text)
        if cmd == "reduce":
            require(doc == reduced_json(d.adj, d.ranks), "reduced form differs from the reference")
        elif cmd == "out":
            expanded = R.expand(d.adj, d.ranks)
            check_out(expanded, R.automorphism_count(expanded), answer)
        else:
            self.check_analyze(d, doc)
        return True

    def check_analyze(self, d, doc):
        lam, ranks = R.clique_reduce(d.adj, d.ranks)
        untrans = R.untransvectable(lam)
        nonabelian = R.nonabelian_untransvectable_class(lam)
        strong = R.all_untransvectable_strongly(lam)
        expected = {
            "clique_reduced": reduced_json(d.adj, d.ranks),
            "out_finite": R.out_finite(lam),
            "nonabelian_untransvectable_class": nonabelian,
            "all_untransvectable_strongly": strong,
            "untransvectable_vertices": untrans,
            "rigidity_hypotheses": {"no_nonabelian_untransvectable_class": not nonabelian,
                                    "every_untransvectable_vertex_strong": strong,
                                    "both_hold": not nonabelian and strong},
        }
        got = {k: v for k, v in doc.items() if k != "ue_ball_fingerprints"}
        require(got == expected, "analyze report differs from the reference")
        fps = doc["ue_ball_fingerprints"]
        require([f["L"] for f in fps] == [0], "analyze fingerprinted other radii than 0")
        # the radius-0 untransvectable ball is the subgraph induced on the
        # untransvectable vertices: equal hashes must mean isomorphic graphs
        ue = R.make_graph(untrans, [e for e in R.edge_list(lam)
                                    if e[0] in untrans and e[1] in untrans])
        self.check_hash_class(fps[0]["hash"], ue)

    def check_hash_class(self, digest, graph):
        if digest in self.hash_classes:
            require(R.isomorphic(graph, self.hash_classes[digest]),
                    "one fingerprint for two non-isomorphic graphs")
            return
        shape = (len(graph), sorted(len(ns) for ns in graph.values()))
        for other in self.hash_classes.values():
            if (len(other), sorted(len(ns) for ns in other.values())) == shape:
                require(not R.isomorphic(graph, other),
                        "isomorphic graphs got different fingerprints")
        self.hash_classes[digest] = graph


def reduced_json(adj, ranks):
    lam, lam_ranks = R.clique_reduce(adj, ranks)
    return {"vertices": [{"id": v, "rank": lam_ranks[v]} for v in sorted(lam)],
            "edges": [list(e) for e in R.edge_list(lam)]}


def check_out(adj, automorphisms, answer):
    code, text = answer
    require(code == 0, f"out exited {code}: {text.strip()}")
    trans = R.transvections(adj)
    sites = R.partial_conjugation_sites(adj)
    expected = {
        "vertices": len(adj),
        "edges": len(R.edge_list(adj)),
        "transvections": [list(t) for t in trans],
        "partial_conjugation_sites": [{"vertex": v, "component": c} for v, c in sites],
        "inversions": sorted(adj),
        "graph_automorphisms": automorphisms,
        "out_finite": not trans and not sites,
    }
    require(json.loads(text) == expected, "out inventory differs from the brute-force reference")
    return True


def check_cli_oe(g, h, finite, answer):
    code, text = answer
    if not finite:
        require(code == 2 and text.startswith("error: hypothesis violated: Out(G) must be finite"),
                "oe with an infinite-Out G was not rejected")
        return True
    require(code == 0, f"oe exited {code}: {text.strip()}")
    doc = json.loads(text)
    require(doc["verdict"] == "equivalent", "a rank blow-up of G is orbit equivalent to G")
    lam, _ = R.clique_reduce(h.adj, h.ranks)
    check_iso_witness(doc["witness"]["isomorphism"], lam, g.adj)
    return True


WORKLOADS = {w.name: w for w in (MeDecide, ExtBall, CliBatch)}
