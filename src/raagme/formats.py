"""Reading and writing presentations as JSON or a small undirected DOT subset.

JSON schema::

    {"vertices": [{"id": "a", "rank": 2}, {"id": "b"}], "edges": [["a", "b"]]}

Ranks default to 1.  The DOT subset accepts node and edge statements only
(``a;``, ``a [rank=2];``, ``a -- b;``, chains ``a -- b -- c;``), ``//``, ``#``
and ``/* */`` comments, and an optional ``graph NAME { ... }`` or
``strict graph NAME { ... }`` wrapper.  Only bare names are keywords or
operators: a quoted name such as ``"node"`` or ``"--"`` is always a name.
Duplicate edges are collapsed; self-loops and duplicate ids are rejected.

A DOT document is tokenized in one regex pass into a flat list of token
texts, and the statements are walked by index.  Every DOT error names its
line; the line is computed only when an error is raised, by scanning the text
again.  A character that starts no token is reported before any other error
in the document.
"""

from __future__ import annotations

import json
import re
import string

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
    # dict.fromkeys keeps the document's order, which is often nearly sorted
    # and sorts faster than the order of a set
    try:
        graph = SimpleGraph(names, sorted(dict.fromkeys(edges)))
        return GraphProductPresentation(graph, ranks)
    except InputError as exc:
        raise ParseError(str(exc)) from exc


_VERTEX_FIELDS = frozenset(("id", "rank"))
_DOCUMENT_FIELDS = frozenset(("vertices", "edges"))


def parse_json_presentation(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer past the int-to-str digit limit
        raise ParseError("invalid JSON: number too long") from exc
    # json.loads makes exact dicts, lists and strs only, so type() is tested
    if type(doc) is not dict:
        raise ParseError("top-level JSON value must be an object")
    raw_vertices = doc.get("vertices")
    if type(raw_vertices) is not list:
        raise ParseError('missing or invalid "vertices" list')
    names, ranks = [], {}
    for item in raw_vertices:
        if type(item) is str:
            vid, rank = item, 1
        elif type(item) is dict:
            vid = item.get("id")
            rank = item.get("rank", 1)
            if not item.keys() <= _VERTEX_FIELDS:
                unknown = sorted(item.keys() - _VERTEX_FIELDS)[0]
                raise ParseError(f"unknown vertex field {echo(unknown)}")
        else:
            raise ParseError(f"vertex entries must be objects or strings, got {echo(item)}")
        if type(vid) is not str or not vid:
            raise ParseError(f"vertex id must be a non-empty string, got {echo(vid)}")
        if vid in ranks:
            raise ParseError(f"duplicate vertex id {echo(vid)}")
        names.append(vid)
        ranks[vid] = rank
    raw_edges = doc.get("edges", [])
    if type(raw_edges) is not list:
        raise ParseError('"edges" must be a list of pairs')
    edges = []
    for e in raw_edges:
        if type(e) is not list or len(e) != 2 or type(e[0]) is not str or type(e[1]) is not str:
            raise ParseError(f"edges must be pairs of vertex ids, got {echo(e)}")
        u, w = e
        edges.append((u, w) if u < w else (w, u))
    if not doc.keys() <= _DOCUMENT_FIELDS:
        unknown = sorted(doc.keys() - _DOCUMENT_FIELDS)[0]
        raise ParseError(f"unknown top-level field {echo(unknown)}")
    return _presentation_from_parts(names, ranks, edges)


# One match per token, with the whitespace and comments before it; group 1 is
# the token.  A character that starts no token is a token of its own, and so is
# an unclosed comment or quote, up to the end of the text (nothing after it is
# scanned twice).  The end of input matches as an empty token, twice after
# trailing whitespace; as the token part always matches, the loop over
# whitespace and comments never backtracks.
_DOT_QUOTED = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_DOT_TOKEN = re.compile(
    r'\s*(?:(?://[^\n]*|\#[^\n]*|/\*.*?\*/)\s*)*'
    rf'(?:([A-Za-z_][A-Za-z0-9_.]*|[0-9]+|{_DOT_QUOTED}|--|[{{}}\[\]=;,]|/\*.*|".*|\S)|\Z)',
    re.DOTALL,
)
_DOT_OPERATORS = frozenset(("--", "{", "}", "[", "]", "=", ";", ","))
_DOT_NAME_START = frozenset(string.ascii_letters + string.digits + '_"')
_DOT_KEYWORDS = frozenset(("graph", "node", "edge", "digraph", "subgraph", "strict"))
_DOT_ESCAPE = re.compile(r'\\(.)')


def _dot_name(token):
    """The text a token stands for: a quoted name unquoted and unescaped."""
    if token[:1] != '"':
        return token
    token = token[1:-1]
    return _DOT_ESCAPE.sub(r"\1", token) if "\\" in token else token


def _dot_bad(token):
    """Whether a token is a character that starts no token (or an unclosed
    comment or quote)."""
    if not token or token in _DOT_OPERATORS:
        return False
    if token[0] == '"':
        return re.fullmatch(_DOT_QUOTED, token, re.DOTALL) is None
    return token[0] not in _DOT_NAME_START


def _dot_error(text, tokens, index, message):
    """The ParseError for token ``index`` of text, unless a bad character comes
    anywhere in it: that error wins.  The line is found by scanning the text
    again; the end of input counts at the line of the last token, or line 1."""
    for j, token in enumerate(tokens):
        if _dot_bad(token):
            index, message = j, f"unexpected character {echo(token[0])}"
            break
    offset = 0
    for j, m in enumerate(_DOT_TOKEN.finditer(text)):
        if m.lastindex is None:
            break
        offset = m.start(1)
        if j == index:
            break
    return ParseError(message, line=text.count("\n", 0, offset) + 1)


def parse_dot_presentation(text):
    # Every token the walk takes is checked to be an operator or to start as a
    # name does, and a document is accepted only if the walk takes every token
    # up to the end of input.  So a bad character never reaches an accepted
    # document, and the error path looks for one first.
    tokens = _DOT_TOKEN.findall(text)

    def fail(i, message):
        return _dot_error(text, tokens, i, message)

    def shown(i):
        return echo(_dot_name(tokens[i]) if tokens[i] else None)

    def unexpected(i, expected):
        if not tokens[i]:
            return fail(i, "unexpected end of input")
        return fail(i, f"{expected}, got {shown(i)}")

    # the header is [strict] graph [NAME]; only bare names are keywords: a
    # quoted name is always a name
    i = 1 if tokens[0] == "strict" else 0
    if tokens[i] == "digraph":
        raise fail(i, "directed graphs are not supported")
    if tokens[i] == "graph":
        i += 2 if tokens[i + 1][:1] in _DOT_NAME_START else 1    # an optional graph name
    elif i:
        raise unexpected(i, "expected 'graph'")
    if tokens[i] != "{":
        raise unexpected(i, "expected '{'")
    i += 1

    vertices, ranks, edges = [], {}, []
    while tokens[i] != "}":
        start = i
        if tokens[i][:1] not in _DOT_NAME_START:
            raise fail(i, f"expected a node or edge statement, got {shown(i)}")
        # the names of a node statement, or of an edge chain joined by '--'
        prev = None
        while True:
            v = tokens[i]
            if v in _DOT_KEYWORDS:
                raise fail(i, f"unsupported DOT keyword {echo(v)}; only node and edge "
                              "statements are accepted")
            if v[0] == '"':
                v = _dot_name(v)
                if not v:
                    raise fail(i, "vertex label must be a non-empty string, got ''")
            if v not in ranks:
                vertices.append(v)
                ranks[v] = 1
            if prev is not None:
                if v == prev:
                    raise fail(i, f"loop edge at {echo(v)} not allowed")
                edges.append((prev, v) if prev < v else (v, prev))
            i += 1
            if tokens[i] != "--":
                break
            i += 1
            if tokens[i][:1] not in _DOT_NAME_START:
                raise unexpected(i, "expected a vertex name after '--'")
            prev = v
        if tokens[i] == "[":
            if prev is not None:
                raise fail(start, "edge attributes are not supported")
            i += 1
            while tokens[i] != "]":
                if tokens[i][:1] not in _DOT_NAME_START:
                    raise unexpected(i, "expected attribute name")
                if _dot_name(tokens[i]) != "rank":
                    raise fail(i, f"unsupported attribute {shown(i)}; only rank=n is accepted")
                if tokens[i + 1] != "=":
                    raise unexpected(i + 1, "expected '='")
                i += 2
                if not tokens[i]:
                    raise fail(i, "unexpected end of input")
                val = _dot_name(tokens[i])
                digits = val.lstrip("0")
                if not (val.isascii() and val.isdigit()) or not digits:
                    raise fail(i, f"rank of {echo(v)} must be an integer >= 1, got {echo(val)}")
                # the length test keeps int() from reading an over-long rank
                if len(digits) > len(str(MAX_RANK)) or int(digits) > MAX_RANK:
                    raise fail(i, f"rank of {echo(v)} exceeds the supported bound {MAX_RANK}")
                ranks[v] = int(val)
                i += 1
                if tokens[i] == ",":
                    i += 1
            i += 1
        if tokens[i] == ";":
            i += 1
        elif tokens[i] != "}":
            raise fail(start, f"expected ';' or '}}', got {shown(i)}")
    if tokens[i + 1]:
        raise fail(i + 1, f"trailing content {shown(i + 1)} after closing brace")
    return _presentation_from_parts(vertices, ranks, edges)


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
