"""Command-line front end.

Commands::

    raagme analyze FILE [--ball-bound N]
    raagme reduce FILE
    raagme out FILE
    raagme oe G_FILE H_FILE [--exit-status]
    raagme me G_FILE H_FILE [--exit-status]
    raagme extball FILE -L N [--ue]
    raagme subgroups FILE [--max-vertices N] [--max-steps N]

Every command accepts ``--format {text,json}``.  The decision commands (oe,
me) also accept ``--exit-status``, which maps their verdict to the exit code:
0 equivalent, 1 not_equivalent, 3 unknown; exit code 2 is reserved for usage,
validation and hypothesis errors.  Without the flag, a successful report
exits 0.  ``me`` has no budget: it unglues H's clique-reduced graph
(``subgroups.unglue``), so its ``unknown`` means that graph is no iterated
star gluing of G's, searched exhaustively; ``subgroups`` lists the classes of
the forward gluing search within its vertex and step budgets.
``out`` and ``extball`` expand the ranks of their input; they count the
edges of the expanded graph first and refuse more than
``MAX_DEFINING_EDGES`` (exit 2).  ``extball`` and ``analyze`` refuse a ball
of more than ``words.MAX_HANDLES`` nodes while they enumerate it (exit 2).
Reports are byte-deterministic for identical inputs and flags.  Every JSON
report is written by one private emitter, ``_json_dump``, which gives the same
bytes as ``json.dumps(doc, indent=2)`` followed by a newline.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .errors import InputError, RaagmeError
from .classify import decide_me, decide_oe, invariant_report
from .combinatorics import out_inventory
from .extension import ball_json, build_ext_ball
from .formats import load_presentation, presentation_to_json_dict
from .presentation import GraphProductPresentation, clique_reduce, expand_to_raag, raag
from .subgroups import enumerate_findex_graphs

VERDICT_EXIT = {"equivalent": 0, "not_equivalent": 1, "unknown": 3}


_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_dump(doc):
    """doc as ``json.dumps(doc, indent=2) + "\\n"`` writes it, byte for byte.

    CPython's C encoder does not indent, and its Python encoder yields every
    piece up through each level of nesting; here the pieces go into one list,
    joined once.  doc holds dicts with str keys, lists, tuples, str, int, bool
    and None; any other value, or key, raises TypeError.
    """
    pieces = []
    _emit(doc, "\n", pieces)
    pieces.append("\n")
    return "".join(pieces)


def _emit(value, newline, pieces):
    """Append the pieces of value; newline starts each line of its enclosing level."""
    kind = type(value)
    if kind is str:
        pieces.append(encode_basestring_ascii(value))
    elif kind is int:
        pieces.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            pieces.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            pieces.append(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _emit(item, inner, pieces)
        pieces.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            pieces.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            pieces.append(sep)
            sep = "," + inner
            _emit(item, inner, pieces)
        pieces.append(newline + "]")
    elif kind is bool or value is None:
        pieces.append(_CONSTANTS[value])
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# out and extball refuse a larger defining graph: out on the largest C5
# expansion within it, v1 of rank 445 (449 vertices, 99,683 edges), takes
# about 4 s on a 2-core Xeon with CPython 3.11 and prints 8.6 MB of JSON
MAX_DEFINING_EDGES = 100_000


def _defining_graph(p):
    """Defining graph of the group presented by p (expand non-unit ranks)."""
    return p.graph if p.is_unit_rank() else expand_to_raag(p)


def _bounded_defining_graph(p):
    """_defining_graph of p for out and extball, its size counted from the ranks first.

    A vertex of rank r expands to an r-clique, and an edge uw to r_u * r_w
    edges, so a file of a few bytes can ask for 2^31 edges.  A count above
    MAX_DEFINING_EDGES raises InputError before anything is expanded.
    """
    ranks = p.ranks
    n_edges = (sum(r * (r - 1) // 2 for r in ranks.values())
               + sum(ranks[u] * ranks[w] for u, w in p.graph.edges()))
    if n_edges > MAX_DEFINING_EDGES:
        raise InputError(
            f"the defining graph would have {sum(ranks.values())} vertices and {n_edges} "
            f"edges, above the bound of {MAX_DEFINING_EDGES} edges")
    return _defining_graph(p)


def _finite_out_graph(p):
    """_defining_graph of p with every rank capped at 2, for the finite-Out commands.

    A rank of 2 or more expands to twins, hence a transvection, so the capped
    graph has finite Out exactly when the full one has, at a fixed size.
    """
    return _defining_graph(GraphProductPresentation(
        p.graph, {v: min(r, 2) for v, r in p.ranks.items()}))


def _cmd_analyze(args):
    p = load_presentation(args.file)
    report = invariant_report(p, ball_bound=args.ball_bound)
    if args.format == "json":
        return 0, _json_dump(report.to_json())
    rg = report.clique_reduced_form
    lines = [
        f"input: {p.graph.n_vertices} vertices, {p.graph.n_edges} edges",
        f"clique-reduced form: {rg.graph.n_vertices} vertices, "
        f"{rg.graph.n_edges} edges, ranks "
        + " ".join(f"{v}:{rg.rank(v)}" for v in rg.graph.sorted_vertices()),
        f"Out finite (reduced graph): {_yn(report.out_finite)}",
        f"untransvectable vertices: {', '.join(report.untransvectable) or '(none)'}",
        f"untransvectable non-abelian class: {_yn(report.nonabelian_untransvectable_class)}",
        f"all untransvectable vertices strongly untransvectable: "
        f"{_yn(report.all_untransvectable_strongly)}",
        "rigidity hypotheses hold: " + _yn(report.rigidity_hypotheses_hold),
    ]
    for L, digest in report.ue_ball_fingerprints:
        lines.append(f"untransvectable ball fingerprint L={L}: {digest[:16]}")
    return 0, "\n".join(lines) + "\n"


def _cmd_reduce(args):
    p = load_presentation(args.file)
    reduced = clique_reduce(p)
    if args.format == "json":
        return 0, _json_dump(presentation_to_json_dict(reduced))
    g = reduced.graph
    lines = [f"clique-reduced form: {g.n_vertices} vertices, {g.n_edges} edges"]
    lines += [f"  {v}  rank {reduced.rank(v)}" for v in g.sorted_vertices()]
    lines += [f"  {u} -- {w}" for u, w in g.edges()]
    return 0, "\n".join(lines) + "\n"


def _yn(b):
    return "yes" if b else "no"


def _cmd_out(args):
    p = load_presentation(args.file)
    g = _bounded_defining_graph(p)
    inv = out_inventory(g)
    if args.format == "json":
        return 0, _json_dump({
            "vertices": g.n_vertices,
            "edges": g.n_edges,
            "transvections": [[v, w] for v, w in inv.transvections],
            "partial_conjugation_sites": [
                {"vertex": v, "component": sorted(c)}
                for v, c in inv.partial_conjugation_sites],
            "inversions": list(inv.inversions),
            "graph_automorphisms": inv.graph_automorphism_count,
            "out_finite": inv.out_finite,
        })
    lines = [f"defining graph: {g.n_vertices} vertices, {g.n_edges} edges"]
    if inv.transvections:
        pairs = ", ".join(f"({v},{w})" for v, w in inv.transvections)
        lines.append(f"transvections (lk(v) <= st(w)): {pairs}")
    else:
        lines.append("transvections (lk(v) <= st(w)): none")
    if inv.partial_conjugation_sites:
        sites = ", ".join(f"({v} | {{{','.join(sorted(c))}}})"
                          for v, c in inv.partial_conjugation_sites)
        lines.append(f"partial conjugation sites (star cuts): {sites}")
    else:
        lines.append("partial conjugation sites (star cuts): none")
    lines.append(f"inversions: {', '.join(inv.inversions)}")
    lines.append(f"graph automorphisms: {inv.graph_automorphism_count}")
    lines.append("Out(G) finite: " + _yn(inv.out_finite))
    return 0, "\n".join(lines) + "\n"


def _decision_output(args, decision, rule):
    code = VERDICT_EXIT[decision.verdict] if args.exit_status else 0
    if args.format == "json":
        return code, _json_dump(decision.to_json())
    lines = [f"verdict: {decision.verdict}", f"rule: {rule}",
             f"reason [{decision.reason_code}]: {decision.reason}"]
    if decision.witness is not None:
        lines.append("witness: " + json.dumps(decision.witness, sort_keys=True))
    return code, "\n".join(lines) + "\n"


OE_RULE = ("orbit equivalent iff H is a graph product of free abelian groups "
           "over the defining graph of G (G with finite Out)")
ME_RULE = ("measure equivalent iff H is a graph product of free abelian groups "
           "over the defining graph of a finite-index RAAG subgroup of G "
           "(G with finite Out)")


def _cmd_oe(args):
    pg = load_presentation(args.g_file)
    h = load_presentation(args.h_file)
    decision = decide_oe(_finite_out_graph(pg), h)
    return _decision_output(args, decision, OE_RULE)


def _cmd_me(args):
    pg = load_presentation(args.g_file)
    h = load_presentation(args.h_file)
    decision = decide_me(_finite_out_graph(pg), h)
    return _decision_output(args, decision, ME_RULE)


def _cmd_extball(args):
    p = load_presentation(args.file)
    ball = build_ext_ball(raag(_bounded_defining_graph(p)), args.L, ue=args.ue)
    if args.format == "json":
        return 0, _json_dump(ball_json(ball))
    kind = "untransvectable extension ball" if args.ue else "extension ball"
    lines = [f"{kind} at L={args.L}: {ball.n_nodes} nodes, {ball.n_edges} edges"]
    untrans = ball.untransvectable
    for i, node in enumerate(ball.nodes):
        conj = " ".join(f"{v}^{e}" for v, e in node.conjugator) or "-"
        flag = "u" if node.vertex in untrans else " "
        lines.append(f"  [{i:3d}] {flag} len {node.length}  <{node.vertex}>  conj {conj}")
    return 0, "\n".join(lines) + "\n"


def _cmd_subgroups(args):
    p = load_presentation(args.file)
    g = _finite_out_graph(p)
    result = enumerate_findex_graphs(g, args.max_vertices, args.max_steps)
    if args.format == "json":
        return 0, _json_dump({
            "truncated": result.truncated,
            "witnesses": [{"index": w.index, "chain": w.chain_json(),
                           **presentation_to_json_dict(raag(w.graph))}
                          for w in result.witnesses],
        })
    lines = [f"finite-index defining graphs within {args.max_vertices} vertices, "
             f"{args.max_steps} gluing steps (classes up to isomorphism)"]
    for w in result.witnesses:
        chain = ", ".join(f"({v},{k})" for v, k in w.chain) or "-"
        lines.append(f"  index {w.index}: {w.graph.n_vertices} vertices, "
                     f"{w.graph.n_edges} edges, chain {chain}")
    lines.append(f"search truncated: {_yn(result.truncated)}")
    return 0, "\n".join(lines) + "\n"


def build_parser():
    """The parser of the whole command line."""
    return _parsers()[0]


@functools.cache
def _parsers():
    """The parser of the whole command line and each command's own, by name."""
    parser = argparse.ArgumentParser(
        prog="raagme",
        description="Equivalence analysis of right-angled Artin groups and "
                    "graph products of free abelian groups over finite graphs.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    decision = argparse.ArgumentParser(add_help=False, parents=[common])
    decision.add_argument("--exit-status", action="store_true",
                          help="map decision verdicts to exit codes "
                               "(0 equivalent, 1 not_equivalent, 3 unknown)")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add_command(name, **kwargs):
        commands[name] = sub.add_parser(name, **kwargs)
        return commands[name]

    sp = add_command("analyze", parents=[common],
                    help="equivalence invariants of a presentation")
    sp.add_argument("file")
    sp.add_argument("--ball-bound", type=int, default=1,
                    help="largest extension-ball radius to fingerprint (default 1)")
    sp.set_defaults(func=_cmd_analyze)

    sp = add_command("reduce", parents=[common],
                    help="canonical clique-reduced form")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_reduce)

    sp = add_command("out", parents=[common],
                    help="outer automorphism generator inventory")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_out)

    sp = add_command("oe", parents=[decision], help="decide orbit equivalence")
    sp.add_argument("g_file")
    sp.add_argument("h_file")
    sp.set_defaults(func=_cmd_oe)

    sp = add_command("me", parents=[decision], help="decide measure equivalence")
    sp.add_argument("g_file")
    sp.add_argument("h_file")
    sp.set_defaults(func=_cmd_me)

    sp = add_command("extball", parents=[common],
                    help="finite ball of the extension graph")
    sp.add_argument("file")
    sp.add_argument("-L", type=int, required=True, help="conjugator length bound")
    sp.add_argument("--ue", action="store_true",
                    help="restrict to untransvectable nodes")
    sp.set_defaults(func=_cmd_extball)

    sp = add_command("subgroups", parents=[common],
                    help="finite-index defining graphs by star gluing")
    sp.add_argument("file")
    sp.add_argument("--max-vertices", type=int, default=16,
                    help="vertex budget (default 16)")
    sp.add_argument("--max-steps", type=int, default=2,
                    help="composition depth (default 2)")
    sp.set_defaults(func=_cmd_subgroups)
    return parser, commands


def run_command(argv):
    """Run one CLI invocation; returns (exit status, report text).

    The report goes to stdout on success; error text (status 2) goes to
    stderr in main().
    """
    try:
        args = _parse(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize its exit code to 2
        raise _UsageExit(2 if exc.code else 0) from exc
    try:
        return args.func(args)
    except RaagmeError as exc:
        return 2, f"error: {exc}\n"


def _parse(argv):
    """``build_parser().parse_args(argv)``, by the named command's own parser when it can.

    The full parser hands everything after the command to that command's
    parser and then reports what it left over, so the command's parser
    alone gives the same namespace whenever nothing is left over; otherwise,
    and for an unknown command, the full parser parses again and reports.
    """
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


class _UsageExit(Exception):
    def __init__(self, code):
        self.code = code


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        code, text = run_command(argv)
    except _UsageExit as exc:
        return exc.code
    stream = sys.stderr if code == 2 else sys.stdout
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
