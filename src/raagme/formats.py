"""Reading and writing presentations as JSON or a small undirected DOT subset.

JSON schema::

    {"vertices": [{"id": "a", "rank": 2}, {"id": "b"}], "edges": [["a", "b"]]}

Ranks default to 1.  The DOT subset accepts node and edge statements only
(``a;``, ``a [rank=2];``, ``a -- b;``, chains ``a -- b -- c;``), ``//``, ``#``
and ``/* */`` comments, and an optional ``graph NAME { ... }`` or
``strict graph NAME { ... }`` wrapper.  A DOT syntax error names its line.
Duplicate edges are collapsed; self-loops and duplicate ids are rejected.
"""

from __future__ import annotations

import json
import re

from .errors import InputError, ParseError, echo
from .graphs import SimpleGraph
from .presentation import MAX_RANK, GraphProductPresentation


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
    except InputError as exc:
        raise ParseError(str(exc)) from exc


def parse_json_presentation(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer past the int-to-str digit limit
        raise ParseError("invalid JSON: number too long") from exc
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
                raise ParseError(f"unknown vertex field {echo(sorted(unknown)[0])}")
        else:
            raise ParseError(f"vertex entries must be objects or strings, got {echo(item)}")
        if not isinstance(vid, str) or not vid:
            raise ParseError(f"vertex id must be a non-empty string, got {echo(vid)}")
        if vid in ranks:
            raise ParseError(f"duplicate vertex id {echo(vid)}")
        names.append(vid)
        ranks[vid] = rank
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be a list of pairs')
    edges = []
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) == 2
                and all(isinstance(x, str) for x in e)):
            raise ParseError(f"edges must be pairs of vertex ids, got {echo(e)}")
        edges.append((min(e), max(e)))
    unknown = set(doc) - {"vertices", "edges"}
    if unknown:
        raise ParseError(f"unknown top-level field {echo(sorted(unknown)[0])}")
    return _presentation_from_parts(names, ranks, edges)


_DOT_NAME = r'(?:[A-Za-z_][A-Za-z0-9_.]*|[0-9]+|"(?:[^"\\]|\\.)*")'
_DOT_TOKEN = re.compile(
    r'\s+|//[^\n]*|\#[^\n]*|/\*.*?\*/'
    rf'|(?P<name>{_DOT_NAME})'
    r'|(?P<op>--|\{|\}|\[|\]|=|;|,)'
    r'|(?P<bad>.)',
    re.DOTALL,
)


def parse_dot_presentation(text):
    def fail(message, offset):
        return ParseError(message, line=text.count("\n", 0, offset) + 1)

    # every token is scanned before parsing, so a bad character anywhere wins
    # over an earlier syntax error; the end of input is a token of its own,
    # at the offset of the last token
    tokens = []
    for m in _DOT_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        tok = m.group()
        if kind == "bad":
            raise fail(f"unexpected character {echo(tok)}", m.start())
        if tok[0] == '"':
            tok = re.sub(r'\\(.)', r'\1', tok[1:-1])
        tokens.append((tok, kind, m.start()))
    tokens.append((None, "eof", tokens[-1][2] if tokens else 0))
    i = 0

    def take(expect=None):
        nonlocal i
        tok, kind, offset = tokens[i]
        if tok is None:
            raise fail("unexpected end of input", offset)
        if expect is not None and tok != expect:
            raise fail(f"expected {echo(expect)}, got {echo(tok)}", offset)
        i += 1
        return tok, kind, offset

    tok, kind, offset = tokens[0]
    if tok == "digraph":
        raise fail("directed graphs are not supported", offset)
    if kind == "name" and tok in ("graph", "strict"):
        i = 2 if tokens[1][1] == "name" else 1    # an optional graph name
    take("{")

    names, ranks, edges = [], {}, []
    while tokens[i][0] != "}":
        tok, kind, start = tokens[i]
        if kind != "name":
            raise fail(f"expected a node or edge statement, got {echo(tok)}", start)
        # the names of a node statement, or of an edge chain joined by '--'
        prev = None
        while True:
            v, kind, offset = take()
            if kind != "name":
                raise fail(f"expected a vertex name after '--', got {echo(v)}", offset)
            if v in ("graph", "node", "edge", "digraph", "subgraph", "strict"):
                raise fail(f"unsupported DOT keyword {echo(v)}; only node and edge "
                           "statements are accepted", offset)
            if v not in ranks:
                names.append(v)
                ranks[v] = 1
            if prev is not None:
                if v == prev:
                    raise fail(f"loop edge at {echo(v)} not allowed", offset)
                edges.append((min(prev, v), max(prev, v)))
            if tokens[i][0] != "--":
                break
            i += 1
            prev = v
        tok = tokens[i][0]
        if tok == "[":
            if prev is not None:
                raise fail("edge attributes are not supported", start)
            i += 1
            while True:
                key, kind, offset = take()
                if key == "]":
                    break
                if kind != "name":
                    raise fail(f"expected attribute name, got {echo(key)}", offset)
                if key != "rank":
                    raise fail(f"unsupported attribute {echo(key)}; only rank=n is "
                               "accepted", offset)
                take("=")
                val, _, offset = take()
                digits = val.lstrip("0")
                if not (val.isascii() and val.isdigit()) or not digits:
                    raise fail(f"rank of {echo(v)} must be an integer >= 1, got {echo(val)}",
                               offset)
                # the length test keeps int() from reading an over-long rank
                if len(digits) > len(str(MAX_RANK)) or int(digits) > MAX_RANK:
                    raise fail(f"rank of {echo(v)} exceeds the supported bound {MAX_RANK}",
                               offset)
                ranks[v] = int(val)
                if tokens[i][0] == ",":
                    i += 1
            tok = tokens[i][0]
        if tok == ";":
            i += 1
        elif tok != "}":
            raise fail(f"expected ';' or '}}', got {echo(tok)}", start)
    tok, _, offset = tokens[i + 1]
    if tok is not None:
        raise fail(f"trailing content {echo(tok)} after closing brace", offset)
    return _presentation_from_parts(names, ranks, edges)


def parse_presentation(text, fmt):
    if fmt == "json":
        return parse_json_presentation(text)
    if fmt == "dot":
        return parse_dot_presentation(text)
    raise ParseError(f"unknown input format {echo(fmt)} (expected json or dot)")


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
