"""Reading and writing presentations as JSON or a small undirected DOT subset.

JSON schema::

    {"vertices": [{"id": "a", "rank": 2}, {"id": "b"}], "edges": [["a", "b"]]}

Ranks default to 1.  The DOT subset accepts node and edge statements only
(``a;``, ``a [rank=2];``, ``a -- b;``, chains ``a -- b -- c;``), ``//``, ``#``
and ``/* */`` comments, and an optional ``graph NAME { ... }`` wrapper.
Duplicate edges are collapsed; self-loops and duplicate ids are rejected.
"""

from __future__ import annotations

import json
import re

from .errors import ParseError
from .graphs import SimpleGraph
from .presentation import GraphProductPresentation


def presentation_to_json_dict(p):
    g = p.graph
    return {
        "vertices": [{"id": v, "rank": p.rank(v)} for v in g.sorted_vertices()],
        "edges": [[u, w] for u, w in g.edges()],
    }


def _presentation_from_parts(names, ranks, edges):
    try:
        graph = SimpleGraph(names, sorted(set(edges)))
        return GraphProductPresentation(graph, ranks)
    except Exception as exc:
        raise ParseError(str(exc)) from exc


def parse_json_presentation(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list):
        raise ParseError('missing or invalid "vertices" list')
    names, ranks = [], {}
    for item in raw_vertices:
        if isinstance(item, str):
            vid, rank = item, 1
        elif isinstance(item, dict):
            vid = item.get("id")
            rank = item.get("rank", 1)
            unknown = set(item) - {"id", "rank"}
            if unknown:
                raise ParseError(f"unknown vertex field {sorted(unknown)[0]!r}")
        else:
            raise ParseError(f"vertex entries must be objects or strings, got {item!r}")
        if not isinstance(vid, str) or not vid:
            raise ParseError(f"vertex id must be a non-empty string, got {vid!r}")
        if vid in ranks:
            raise ParseError(f"duplicate vertex id {vid!r}")
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise ParseError(f"rank of {vid!r} must be an integer >= 1, got {rank!r}")
        names.append(vid)
        ranks[vid] = rank
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be a list of pairs')
    edges = []
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) == 2
                and all(isinstance(x, str) for x in e)):
            raise ParseError(f"edges must be pairs of vertex ids, got {e!r}")
        edges.append((min(e), max(e)))
    unknown = set(doc) - {"vertices", "edges"}
    if unknown:
        raise ParseError(f"unknown top-level field {sorted(unknown)[0]!r}")
    return _presentation_from_parts(names, ranks, edges)


_DOT_NAME = r'(?:[A-Za-z_][A-Za-z0-9_.]*|[0-9]+|"(?:[^"\\]|\\.)*")'
_DOT_TOKEN = re.compile(
    r'\s+|//[^\n]*|\#[^\n]*|/\*.*?\*/'
    rf'|(?P<name>{_DOT_NAME})'
    r'|(?P<op>--|\{|\}|\[|\]|=|;|,)',
    re.DOTALL,
)


def _dot_tokens(text):
    pos = 0
    line = 1
    out = []
    while pos < len(text):
        m = _DOT_TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line=line)
        chunk = m.group(0)
        if m.lastgroup == "name":
            name = chunk
            if name.startswith('"'):
                name = re.sub(r'\\(.)', r'\1', name[1:-1])
            out.append((name, "name", line))
        elif m.lastgroup == "op":
            out.append((chunk, "op", line))
        line += chunk.count("\n")
        pos = m.end()
    return out


def parse_dot_presentation(text):
    tokens = _dot_tokens(text)
    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else (None, "eof", tokens[-1][2] if tokens else 1)

    def take(expect=None):
        nonlocal i
        tok, kind, line = peek()
        if tok is None:
            raise ParseError("unexpected end of input", line=line)
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, got {tok!r}", line=line)
        i += 1
        return tok, kind, line

    tok, kind, line = peek()
    if tok == "digraph":
        raise ParseError("directed graphs are not supported", line=line)
    if kind == "name" and tok in ("graph", "strict"):
        take()
        tok, kind, _ = peek()
        if kind == "name":
            take()  # optional graph name
    take("{")

    names, ranks = [], {}
    edges = []

    def declare(v, line):
        if v in ("graph", "node", "edge", "digraph", "subgraph", "strict"):
            raise ParseError(f"unsupported DOT keyword {v!r}; only node and edge "
                             "statements are accepted", line=line)
        if v not in ranks:
            names.append(v)
            ranks[v] = 1

    def read_attrs(v):
        take("[")
        while True:
            tok, kind, line = take()
            if tok == "]":
                break
            if kind != "name":
                raise ParseError(f"expected attribute name, got {tok!r}", line=line)
            if tok != "rank":
                raise ParseError(f"unsupported attribute {tok!r}; only rank=n is "
                                 "accepted", line=line)
            take("=")
            val, _, vline = take()
            if not val.isdigit() or int(val) < 1:
                raise ParseError(f"rank of {v!r} must be an integer >= 1, got {val!r}",
                                 line=vline)
            ranks[v] = int(val)
            tok, _, _ = peek()
            if tok == ",":
                take(",")

    while True:
        tok, kind, line = peek()
        if tok == "}":
            take("}")
            break
        if kind != "name":
            raise ParseError(f"expected a node or edge statement, got {tok!r}", line=line)
        v, _, vline = take()
        declare(v, vline)
        tok, _, _ = peek()
        chain = [v]
        while tok == "--":
            take("--")
            w, wkind, wline = take()
            if wkind != "name":
                raise ParseError(f"expected a vertex name after '--', got {w!r}",
                                 line=wline)
            declare(w, wline)
            if w == chain[-1]:
                raise ParseError(f"loop edge at {w!r} not allowed", line=wline)
            edges.append((min(chain[-1], w), max(chain[-1], w)))
            chain.append(w)
            tok, _, _ = peek()
        if tok == "[":
            if len(chain) > 1:
                raise ParseError("edge attributes are not supported", line=line)
            read_attrs(v)
            tok, _, _ = peek()
        if tok == ";":
            take(";")
        elif tok == "}":
            continue
        else:
            raise ParseError(f"expected ';' or '}}', got {tok!r}", line=line)
    tok, kind, line = peek()
    if tok is not None:
        raise ParseError(f"trailing content {tok!r} after closing brace", line=line)
    return _presentation_from_parts(names, ranks, edges)


def parse_presentation(text, fmt):
    if fmt == "json":
        return parse_json_presentation(text)
    if fmt == "dot":
        return parse_dot_presentation(text)
    raise ParseError(f"unknown input format {fmt!r} (expected json or dot)")


def sniff_format(path, text):
    lower = str(path).lower()
    if lower.endswith(".json"):
        return "json"
    if lower.endswith((".dot", ".gv")):
        return "dot"
    head = text.lstrip()[:1]
    return "json" if head in ("{", "[") else "dot"


def load_presentation(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 (byte {exc.start})") from exc
    return parse_presentation(text, sniff_format(path, text))
