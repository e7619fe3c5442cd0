import inspect
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_DOT_TOKEN, parse_dot_by_match_objects, parse_json_by_isinstance

import raagme
from raagme.combinatorics import (cv_classification, has_finite_out, is_collapsible,
                                  is_strongly_untransvectable, is_transvectable_vertex,
                                  out_inventory, untransvectable_vertices)
from raagme.errors import InputError, ParseError, RaagmeError
from raagme.extension import (ball_graph, ball_json, ball_prefix, build_ext_ball,
                              star_complement_connectivity_check, star_separation_check,
                              star_swaps, ue_restriction)
from raagme.formats import (load_presentation, parse_dot_presentation,
                            parse_json_presentation, parse_presentation,
                            presentation_to_json_dict, sniff_format)
from raagme.graphs import (SimpleGraph, connected_components, cycle_graph, full_subgraph, link,
                           opposite_graph, path_graph, perp, star)
from raagme.presentation import (MAX_RANK, GraphProductPresentation, clique_reduce,
                                 expand_to_raag, raag)
from raagme.subgroups import star_gluing_kernel
from raagme.words import (canonical_parabolic, enumerate_cyclic_handles,
                          multiply_and_normalize, translate_conjugators, word)


C5_JSON = """{
  "vertices": [{"id": "v1"}, {"id": "v2"}, {"id": "v3"}, {"id": "v4"}, {"id": "v5"}],
  "edges": [["v1","v2"], ["v2","v3"], ["v3","v4"], ["v4","v5"], ["v5","v1"]]
}"""


class TestJson:
    def test_c5(self, c5):
        p = parse_json_presentation(C5_JSON)
        assert p.graph == c5 and p.is_unit_rank()

    def test_string_vertices_accepted(self):
        p = parse_json_presentation('{"vertices": ["a", "b"], "edges": [["a", "b"]]}')
        assert p.graph.n_edges == 1

    def test_ranks(self):
        p = parse_json_presentation(
            '{"vertices": [{"id": "a", "rank": 3}], "edges": []}')
        assert p.rank("a") == 3

    def test_rank_zero_rejected(self):
        with pytest.raises(ParseError, match="rank"):
            parse_json_presentation('{"vertices": [{"id": "a", "rank": 0}], "edges": []}')

    @pytest.mark.parametrize("rank", ["true", "false", "2.0", '"2"', "null", "-1", "0", "65537"])
    def test_bad_rank_names_its_vertex(self, rank):
        # ranks are checked once, by the presentation; the parser passes the
        # error on as a ParseError
        with pytest.raises(ParseError) as info:
            parse_json_presentation('{"vertices": ["a", {"id": "v7", "rank": %s}]}' % rank)
        assert "rank of 'v7'" in str(info.value)

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_json_presentation('{"vertices": ["a", "a"], "edges": []}')

    def test_loop_rejected(self):
        with pytest.raises(ParseError, match="loop"):
            parse_json_presentation('{"vertices": ["a"], "edges": [["a", "a"]]}')

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ParseError, match="unknown vertex"):
            parse_json_presentation('{"vertices": ["a"], "edges": [["a", "b"]]}')

    def test_syntax_error_carries_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_json_presentation('{"vertices": [,]}')

    def test_duplicate_edges_collapse(self):
        p = parse_json_presentation(
            '{"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}')
        assert p.graph.n_edges == 1

    def test_deep_nesting_rejected(self):
        deep = '{"vertices": ' + "[" * 50000 + "]" * 50000 + "}"
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_json_presentation(deep)

    def test_huge_number_rejected(self):
        with pytest.raises(ParseError, match="number too long"):
            parse_json_presentation('{"vertices": [{"id": "a", "rank": 1' + "0" * 5000 + "}]}")

    def test_error_messages_bounded(self):
        # a huge or deeply nested offending entry is echoed in short form
        vertex = '{"vertices": [' + "[" * 400 + "]" * 400 + "]}"
        long_id = json.dumps({"vertices": [{"id": "x" * 5000, "rank": 0}]})
        edge = '{"vertices": ["a"], "edges": [' + "[" * 400 + "]" * 400 + "]}"
        unknown_end = json.dumps({"vertices": ["a"], "edges": [["a", "z" * 5000]]})
        loop = json.dumps({"vertices": ["y" * 5000], "edges": [["y" * 5000] * 2]})
        big_rank = json.dumps({"vertices": [{"id": "w" * 5000, "rank": 70000}]})
        for doc, kind in [(vertex, "vertex entries"), (long_id, "rank of 'xxx"),
                          (edge, "edges must be pairs"), (unknown_end, "unknown vertex 'zzz"),
                          (loop, "loop edge at 'yyy"), (big_rank, "rank of 'www")]:
            with pytest.raises(ParseError) as info:
                parse_json_presentation(doc)
            assert kind in str(info.value) and len(str(info.value)) < 200
        # two adjacent vertices with equal stars merge into one rank past the bound
        merged = parse_json_presentation(json.dumps(
            {"vertices": [{"id": "m" * 5000, "rank": 40000}, {"id": "n" * 5000, "rank": 40000}],
             "edges": [["m" * 5000, "n" * 5000]]}))
        with pytest.raises(InputError) as info:
            clique_reduce(merged)
        assert "merged rank 80000 at 'mmm" in str(info.value) and len(str(info.value)) < 200
        for doc, message in [
                ('{"vertices": [{"id": "a", "rank": 0}]}',
                 "rank of 'a' must be a positive integer, got 0"),
                ('{"vertices": ["a"], "edges": [["b", "a"]]}',
                 "unknown vertex 'b' in edge ('a', 'b')"),
                ('{"vertices": ["a"], "edges": [["a", "a"]]}',
                 "loop edge at 'a' not allowed in a simple graph")]:
            with pytest.raises(ParseError) as info:
                parse_json_presentation(doc)
            assert str(info.value) == message

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_bytes(b'{"vertices": ["\xff"], "edges": []}')
        with pytest.raises(ParseError, match="not UTF-8"):
            load_presentation(str(path))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ParseError, match="unknown"):
            parse_json_presentation('{"vertices": [], "edges": [], "extra": 1}')


class TestDot:
    def test_path(self):
        p = parse_dot_presentation("graph { a -- b; b -- c; }")
        assert p.graph.edges() == [("a", "b"), ("b", "c")]

    def test_rank_attribute(self):
        p = parse_dot_presentation('graph G { a [rank=2]; a -- b; }')
        assert p.rank("a") == 2 and p.rank("b") == 1

    def test_isolated_nodes_and_comments(self):
        p = parse_dot_presentation(
            "// free group\ngraph { a; b; /* no edges */ }")
        assert p.graph.n_vertices == 2 and p.graph.n_edges == 0

    def test_edge_chain(self):
        p = parse_dot_presentation("graph { a -- b -- c; }")
        assert p.graph.edges() == [("a", "b"), ("b", "c")]

    def test_quoted_names(self):
        p = parse_dot_presentation('graph { "x 1" -- "y"; }')
        assert p.graph.edges() == [("x 1", "y")]

    def test_loop_rejected(self):
        with pytest.raises(ParseError, match="loop"):
            parse_dot_presentation("graph { a -- a; }")

    def test_digraph_rejected(self):
        with pytest.raises(ParseError, match="directed"):
            parse_dot_presentation("digraph { a; }")

    def test_unsupported_attribute(self):
        with pytest.raises(ParseError, match="rank"):
            parse_dot_presentation("graph { a [color=red]; }")

    def test_bad_rank(self):
        with pytest.raises(ParseError, match="rank"):
            parse_dot_presentation("graph { a [rank=0]; }")
        # only ASCII digits are a rank: a superscript two and an Arabic-Indic
        # three pass str.isdigit but are refused
        for digit in ("\u00b2", "\u0663"):
            with pytest.raises(ParseError, match="line 2: rank of 'a' must be an integer"):
                parse_dot_presentation(f'graph {{\n a [rank="{digit}"]; }}')
        # an over-long rank is refused before int() reads it, with its line
        with pytest.raises(ParseError, match="line 3: rank of 'a' exceeds the supported bound"):
            parse_dot_presentation("graph {\n b;\n a [rank=" + "9" * 5000 + "]; }")
        # so is a rank of as many digits as the bound but above it
        with pytest.raises(ParseError, match="line 3: rank of 'b' exceeds the supported bound"):
            parse_dot_presentation("graph {\n a;\n b [rank=70000]; }")
        assert parse_dot_presentation(f"graph {{ a [rank={MAX_RANK}]; }}").rank("a") == MAX_RANK

    def test_syntax_error_carries_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_dot_presentation("graph {\n a -- ; \n}")

    def test_quoted_names_are_never_keywords(self):
        # only bare names are keywords; quotes make any text a name
        assert parse_dot_presentation('graph { "node" -- b; }').graph.edges() == [("b", "node")]
        assert parse_dot_presentation('graph { a -- "strict"; }').graph.edges() == [("a", "strict")]
        with pytest.raises(ParseError) as info:
            parse_dot_presentation('"digraph" { a; }')
        assert str(info.value) == "line 1: expected '{', got 'digraph'"
        # nor operators: a quoted '--' is a name, not an edge
        with pytest.raises(ParseError) as info:
            parse_dot_presentation('graph { a "--" b; }')
        assert str(info.value) == "line 1: expected ';' or '}', got '--'"


# (DOT text, its exact ParseError message)
DOT_ERRORS = {
    # the end of input counts at the line of the last token, or line 1
    "eof-statement": ("graph {\n a;\n\n", "line 2: expected a node or edge statement, got None"),
    "eof-edge": ("graph {\n a -- \n\n", "line 2: unexpected end of input"),
    "eof-attributes": ("graph {\n a [rank=2,\n\n", "line 2: unexpected end of input"),
    "eof-empty": ("", "line 1: unexpected end of input"),
    "eof-blank": ("  \n\n", "line 1: unexpected end of input"),
    "eof-quoted-newline": ('graph "G\n1"\n', "line 1: unexpected end of input"),
    # every character is scanned before parsing: the '@' wins over the ';'
    "bad-character-first": ("graph { a -- ;\n @ }", "line 2: unexpected character '@'"),
    "unclosed-comment": ("graph\n{ /* a\n }", "line 2: unexpected character '/'"),
    "unclosed-quote": ('graph {\n a -- "b;\n}', "line 2: unexpected character '\"'"),
    "bad-graph-name": ("graph @ { a; }", "line 1: unexpected character '@'"),
    # the header is [strict] graph [NAME]: one name at most
    "strict-graph-name": ("strict graph G H { a; }", "line 1: expected '{', got 'H'"),
    "strict-digraph": ("strict digraph { a -- b; }", "line 1: directed graphs are not supported"),
    "strict-without-graph": ("strict G { a; }", "line 1: expected 'graph', got 'G'"),
    # newlines inside comments and quoted names count
    "comment-newlines": ("graph {\n/* one\ntwo */ a -- @ }", "line 3: unexpected character '@'"),
    "quoted-newlines": ('graph { /* a\n*/ "p\nq" -- ;\n}',
                        "line 3: expected a vertex name after '--', got ';'"),
    # these carry the line of the statement's first token
    "edge-attributes": ("graph {\n a -- b\n [rank=2]; }",
                        "line 2: edge attributes are not supported"),
    "no-separator": ("graph {\n a\n [rank=2] b }", "line 2: expected ';' or '}', got 'b'"),
    "trailing": ("graph {\n a; } b", "line 2: trailing content 'b' after closing brace"),
    # an empty quoted name is refused at its token
    "empty-name": ('graph {\n a;\n "" -- b;\n}',
                   "line 3: vertex label must be a non-empty string, got ''"),
}


@pytest.mark.parametrize("case", sorted(DOT_ERRORS))
def test_dot_error_message_and_line(case):
    text, message = DOT_ERRORS[case]
    with pytest.raises(ParseError) as info:
        parse_dot_presentation(text)
    assert str(info.value) == message


def test_dot_accepts_strict_and_escapes():
    assert parse_dot_presentation("strict graph { a; }").graph.sorted_vertices() == ["a"]
    assert parse_dot_presentation("strict graph G { a; }").graph.sorted_vertices() == ["a"]
    assert parse_dot_presentation('graph { "q\\"z"; }').graph.sorted_vertices() == ['q"z']


def test_graph_construction_errors_pass_through(monkeypatch):
    # only an InputError of the graph becomes a ParseError
    import raagme.formats

    def broken(*args):
        raise RuntimeError("broken constructor")

    monkeypatch.setattr(raagme.formats, "SimpleGraph", broken)
    with pytest.raises(RuntimeError, match="broken constructor"):
        parse_dot_presentation("graph { a; }")
    with pytest.raises(RuntimeError, match="broken constructor"):
        parse_json_presentation('{"vertices": ["a"]}')


def _outcome(parse, text):
    """What a parser makes of text: a presentation, or its ParseError message."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


_DOT_WORDS = {"graph", "node", "edge", "digraph", "subgraph", "strict",
              "--", "{", "}", "[", "]", "=", ";", ","}
_MARK = "§"    # never generated: the oracle's prefix for a name


def _quoted_tokens(text):
    """(name, offset, line) of each quoted name the reference scanner reads
    before a bad character, the name unescaped as the reference reads it."""
    for m in REFERENCE_DOT_TOKEN.finditer(text):
        if m.lastgroup == "bad":
            return
        if m.group()[0] == '"':
            yield (re.sub(r"\\(.)", r"\1", m.group()[1:-1]), m.start(),
                   text.count("\n", 0, m.start()) + 1)


def _reference_dot_outcome(text):
    """The reference parser's outcome with quoted keywords and operators read
    as names: each such name is prefixed with _MARK for the reference and the
    mark is dropped from what it returns."""
    starts = [start + 1 for name, start, _ in _quoted_tokens(text) if name in _DOT_WORDS]
    for start in reversed(starts):
        text = text[:start] + _MARK + text[start:]
    got = _outcome(parse_dot_by_match_objects, text)
    if isinstance(got, str):
        return got.replace(_MARK, "")
    unmark = {v: v.replace(_MARK, "") for v in got.graph.vertices}
    return GraphProductPresentation(
        SimpleGraph([unmark[v] for v in got.graph.sorted_vertices()],
                    [(unmark[u], unmark[w]) for u, w in got.graph.edges()]),
        {unmark[v]: r for v, r in got.ranks.items()})


_BARE = r"[A-Za-z_][A-Za-z0-9_.]*|[0-9]+"
_LABELS = st.one_of(st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,3}|[0-9]{1,3}", fullmatch=True),
                    st.text(st.sampled_from('ab 1#/*"\\\n;-{}[]=,'), max_size=4),
                    st.sampled_from(sorted(_DOT_WORDS)))
_GAPS = st.sampled_from([" ", " ", "\n", "\t  ", "", "// c\n", "# q\"\n", "/* \"*/ ",
                         "/*\n# */", "//*\n", "\r\n"])
_RANKS = st.sampled_from(["1", "2", "3", "007", '"2"', "0", "65536", "65537", "x", "-1", ""])


@st.composite
def _written_name(draw, label):
    """label as a DOT name: bare when it can be, or quoted, with each '"' and
    '\\' escaped and other characters escaped at random."""
    if re.fullmatch(_BARE, label) and draw(st.booleans()):
        return label
    escaped = "".join("\\" + c if c in '"\\' or c != "\n" and draw(st.integers(0, 5)) == 0
                      else c for c in label)
    return f'"{escaped}"'


@st.composite
def _dot_documents(draw):
    """DOT text for a random graph on at most 8 vertices with ranks, written
    with chains, attribute lists, comments and whitespace at random."""
    n = draw(st.sampled_from(range(1, 9)))
    labels = draw(st.lists(_LABELS, min_size=n, max_size=n, unique=True))
    tokens = draw(st.sampled_from([[], ["graph"], ["graph", "G"], ["strict", "graph"],
                                   ["strict", "graph", "G"], ["graph", '"a b"'], ["digraph"],
                                   ["strict", "digraph"], ["strict"], ["strict", "G"]]))
    tokens = tokens + ["{"]
    # node statements, edge chains on distinct vertices, and now and then a
    # chain that may repeat a vertex
    vertex = st.integers(0, n - 1)
    statements = [[i] for i in draw(st.lists(vertex, min_size=1, max_size=n))]
    if n > 1:
        chain = st.tuples(st.permutations(range(n)), st.integers(2, 4)).map(lambda c: c[0][:c[1]])
        statements += draw(st.lists(chain, min_size=n // 2, max_size=10))
    if draw(st.integers(0, 9)) == 7:
        statements.append(draw(st.lists(vertex, min_size=2, max_size=3)))
    statements = draw(st.permutations(statements))
    for k, chain in enumerate(statements):
        for j, i in enumerate(chain):
            if j:
                tokens.append("--")
            tokens.append(draw(_written_name(labels[i])))
        if len(chain) == 1 and draw(st.integers(0, 2)) == 0:
            attributes = draw(st.lists(st.tuples(st.sampled_from(["rank", '"rank"', "color"]),
                                                 _RANKS), max_size=2))
            tokens.append("[")
            for key, value in attributes:
                tokens += [key, "=", value]
                if draw(st.booleans()):
                    tokens.append(",")
            tokens.append("]")
        if k + 1 < len(statements) or draw(st.booleans()):
            tokens.append(";")
    tokens.append("}")
    return "".join(draw(_GAPS) + token for token in tokens) + draw(_GAPS)


@st.composite
def _edited(draw, documents, alphabet):
    """A document, or the document with one character inserted or deleted."""
    text = draw(documents)
    edit = draw(st.sampled_from(["insert", "delete", "none"]))
    if edit == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(alphabet)) + text[at:]
    elif edit == "delete" and text:
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + text[at + 1:]
    return text


@settings(max_examples=400, deadline=None)
@given(_edited(_dot_documents(), list('"\\/*#-[]{}=;,\n a0@é')))
def test_dot_parser_matches_reference(text):
    # the reference reads quoted keywords and operators as names here; an
    # empty quoted name is refused at its own token, where the reference
    # refused it unlined after the whole parse, or met a later error first
    # (but never a bad character, which both report before parsing)
    got = _outcome(parse_dot_presentation, text)
    want = _reference_dot_outcome(text)
    empty = isinstance(got, str) and re.fullmatch(
        r"line (\d+): vertex label must be a non-empty string, got ''", got)
    if empty:
        assert isinstance(want, str) and "unexpected character" not in want
        assert int(empty.group(1)) in {line for name, _, line in _quoted_tokens(text) if not name}
    else:
        assert got == want


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70000) | st.floats(allow_nan=False)
    | st.text("ab", max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=2), inner,
                                                                max_size=2),
    max_leaves=4)


@st.composite
def _json_documents(draw):
    """JSON text for a random graph on at most 8 vertices with ranks, with
    wrong types, unknown fields and bad edges mixed in at random."""
    labels = draw(st.lists(st.text("ab#", min_size=1, max_size=3), max_size=8, unique=True))
    odd = st.integers(0, 19).map(lambda k: k == 7)    # one entry in 20 is malformed
    vertices = []
    for label in labels:
        if draw(odd):
            vertices.append(draw(st.one_of(_JSON_VALUES, st.dictionaries(
                st.sampled_from(["id", "rank", "x"]), _JSON_VALUES, max_size=3))))
        elif draw(st.booleans()):
            vertices.append(label)
        else:
            entry = {"id": label}
            if draw(st.booleans()):
                entry["rank"] = draw(_JSON_VALUES) if draw(odd) else draw(st.integers(1, 4))
            vertices.append(entry)
    ends = st.sampled_from(labels) if labels else st.text("ab", max_size=1)
    edges = []
    for _ in range(draw(st.integers(0, 10))):
        edges.append(draw(st.one_of(st.lists(ends, max_size=3), _JSON_VALUES)) if draw(odd)
                     else draw(st.lists(ends, min_size=2, max_size=2)))
    doc = {"vertices": vertices, "edges": edges}
    if draw(odd):
        doc = draw(st.one_of(st.dictionaries(st.sampled_from(["vertices", "edges", "name"]),
                                             _JSON_VALUES, max_size=3), st.just(vertices)))
    elif draw(odd):
        doc["extra"] = 1
    return json.dumps(doc, indent=draw(st.sampled_from([None, 1])))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_json_documents(), _edited(_json_documents(), list('"[]{},:1a \n'))))
def test_json_parser_matches_reference(text):
    assert _outcome(parse_json_presentation, text) == _outcome(parse_json_by_isinstance, text)


class TestRoundTrip:
    def test_json_round_trip(self, c5):
        p = GraphProductPresentation(
            c5, {"v1": 3, "v2": 1, "v3": 1, "v4": 1, "v5": 1})
        text = json.dumps(presentation_to_json_dict(p), indent=2) + "\n"
        again = parse_presentation(text, "json")
        assert again == p

    def test_sniffing(self):
        assert sniff_format("x.json", "") == "json"
        assert sniff_format("x.dot", "") == "dot"
        assert sniff_format("x.gv", "") == "dot"
        assert sniff_format("data", "  {\"vertices\": []}") == "json"
        assert sniff_format("data", "graph { }") == "dot"


_C5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])


def _rank_two(x):
    return GraphProductPresentation(SimpleGraph([x]), {x: 2})


def _c5_ball():
    return build_ext_ball(raag(_C5), 0)

# (entry point called with one offending id x, its message for x = "zz")
ECHO_CASES = {
    "neighbors": (lambda x: _C5.neighbors(x), "unknown vertex 'zz'"),
    "has_edge": (lambda x: _C5.has_edge(x, "v1"), "unknown vertex 'zz'"),
    "full_subgraph": (lambda x: full_subgraph(_C5, {x}), "unknown vertex 'zz'"),
    "perp": (lambda x: perp(_C5, {x}), "unknown vertex 'zz'"),
    "rank": (lambda x: raag(_C5).rank(x), "unknown vertex 'zz'"),
    "is_transvectable_vertex": (lambda x: is_transvectable_vertex(_C5, x),
                                "unknown vertex 'zz'"),
    "is_collapsible": (lambda x: is_collapsible(_C5, {"v1", x}), "unknown vertex 'zz'"),
    "is_strongly_untransvectable": (lambda x: is_strongly_untransvectable(_C5, x),
                                    "unknown vertex 'zz'"),
    "star_gluing_kernel-vertex": (lambda x: star_gluing_kernel(_C5, x, 2),
                                  "unknown vertex 'zz'"),
    "star_gluing_kernel-k": (lambda x: star_gluing_kernel(_C5, "v1", x),
                             "gluing multiplicity must be an integer, got 'zz'"),
    "word-generator": (lambda x: word(raag(_C5), [(x, 1)]),
                       "generator 'zz' not in the presentation"),
    "word-exponent": (lambda x: word(raag(_C5), [("v1", x)]),
                      "exponent of 'v1' must be an integer, got 'zz'"),
    "word-rank": (lambda x: word(_rank_two(x), [(x, 1)]),
                  "words are over RAAGs, but 'zz' has rank 2; use raag(expand_to_raag(p))"),
    "canonical_parabolic": (lambda x: canonical_parabolic(raag(_C5), (), x),
                            "unknown vertex 'zz' in parabolic type"),
    "node_index-vertex": (lambda x: _c5_ball().node_index((), x),
                          "no node () . <'zz'> in this ball"),
    "node_index-conjugator": (lambda x: _c5_ball().node_index(((x, 1),), "v1"),
                              "no node (('zz', 1),) . <'v1'> in this ball"),
}


@pytest.mark.parametrize("case", sorted(ECHO_CASES))
def test_library_errors_echo_bounded(case):
    # an offending id is echoed through errors.echo: a 5,000-character id
    # gives a short message, and a short id is echoed whole
    call, short = ECHO_CASES[case]
    with pytest.raises(InputError) as info:
        call("x" * 5000)
    assert "'xxx" in str(info.value) and len(str(info.value)) < 200
    with pytest.raises(InputError) as info:
        call("zz")
    assert str(info.value) == short


_PATH = path_graph(["a", "b", "c"])
_UNHASHABLE = "vertex id must be hashable, got ['a']"

# (call with the unhashable id ["a"], its message)
UNHASHABLE_CASES = {
    "neighbors": (lambda: _PATH.neighbors(["a"]), _UNHASHABLE),
    "has_vertex": (lambda: _PATH.has_vertex(["a"]), _UNHASHABLE),
    "has_edge": (lambda: _PATH.has_edge("b", ["a"]), _UNHASHABLE),
    "full_subgraph": (lambda: full_subgraph(_PATH, [["a"]]), _UNHASHABLE),
    "rank": (lambda: raag(_PATH).rank(["a"]), _UNHASHABLE),
    "is_collapsible": (lambda: is_collapsible(_PATH, [["a"]]), _UNHASHABLE),
    "node_index": (lambda: build_ext_ball(raag(_PATH), 0).node_index((), ["a"]), _UNHASHABLE),
    "canonical_parabolic": (lambda: canonical_parabolic(raag(_PATH), (), ["a"]), _UNHASHABLE),
    "edge": (lambda: SimpleGraph(["a", "b"], [(["a"], "b")]),
             "unknown vertex ['a'] in edge (['a'], 'b')"),
}


@pytest.mark.parametrize("case", sorted(UNHASHABLE_CASES))
def test_unhashable_id_is_an_input_error(case):
    call, message = UNHASHABLE_CASES[case]
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


_C5P = raag(_C5)

# (call with an argument of the wrong type, the start of its message): each
# entry point checks its arguments once, before it reads them
WRONG_TYPE_CASES = {
    **{f.__name__: (lambda f=f: f(_C5P), "expected a graph (SimpleGraph)")
       for f in (opposite_graph, connected_components, cv_classification, has_finite_out,
                 out_inventory, untransvectable_vertices)},
    "link": (lambda: link(_C5P, "v1"), "expected a graph (SimpleGraph)"),
    "full_subgraph": (lambda: full_subgraph(_C5P, ["v1"]), "expected a graph (SimpleGraph)"),
    "is_transvectable_vertex": (lambda: is_transvectable_vertex(_C5P, "v1"),
                                "expected a graph (SimpleGraph)"),
    "is_collapsible": (lambda: is_collapsible(_C5P, ["v1"]), "expected a graph (SimpleGraph)"),
    "is_strongly_untransvectable": (lambda: is_strongly_untransvectable(_C5P, "v1"),
                                    "expected a graph (SimpleGraph)"),
    "star_gluing_kernel": (lambda: star_gluing_kernel(_C5P, "v1", 2),
                           "expected a graph (SimpleGraph)"),
    "clique_reduce": (lambda: clique_reduce(_C5), "expected a presentation"),
    "expand_to_raag": (lambda: expand_to_raag(_C5), "expected a presentation"),
    "build_ext_ball": (lambda: build_ext_ball(_C5, 1), "expected a presentation"),
    "canonical_parabolic": (lambda: canonical_parabolic(_C5, (), "v1"),
                            "expected a presentation"),
    "multiply_and_normalize": (lambda: multiply_and_normalize(_C5, (), ()),
                               "expected a presentation"),
    **{f.__name__: (lambda f=f: f(_C5P), "expected an extension ball (ExtBall)")
       for f in (ue_restriction, ball_json, ball_graph, star_swaps)},
    "ball_prefix": (lambda: ball_prefix(_C5P, 0), "expected an extension ball (ExtBall)"),
    "star_separation_check": (lambda: star_separation_check(_C5P, 0),
                              "expected an extension ball (ExtBall)"),
    "star_complement_connectivity_check": (
        lambda: star_complement_connectivity_check(_C5P, 0, ()),
        "expected an extension ball (ExtBall)"),
    "full_subgraph-None": (lambda: full_subgraph(_C5, None),
                           "a vertex set must be iterable, got None"),
    "star": (lambda: star(_C5P, "v1"), "expected a graph (SimpleGraph)"),
    "SimpleGraph-vertices": (lambda: SimpleGraph(5), "vertices must be iterable, got 5"),
    "SimpleGraph-edges": (lambda: SimpleGraph(["a"], 5), "edges must be iterable, got 5"),
    "GraphProductPresentation-graph": (lambda: GraphProductPresentation(_C5P),
                                       "expected a graph (SimpleGraph)"),
    "GraphProductPresentation-ranks": (lambda: GraphProductPresentation(_C5, 5),
                                       "expected ranks (Mapping), got 5"),
    "is_collapsible-int": (lambda: is_collapsible(_C5, 5), "a vertex set must be iterable, got 5"),
    **{f"word-{name}": (lambda w=w: word(_C5P, w), "a word must be a NormalFormWord or")
       for name, w in (("None", None), ("int", 5), ("int-syllable", [5]))},
    "canonical_parabolic-str": (lambda: canonical_parabolic(_C5P, "ab", "v1"),
                                "a word must be a NormalFormWord or"),
    "canonical_parabolic-triple": (lambda: canonical_parabolic(_C5P, [("v1", 1, 2)], "v3"),
                                   "a word must be a NormalFormWord or"),
    "translate_conjugators": (lambda: translate_conjugators(_C5P, [], 1),
                              "expected a cyclic handle (ParabolicHandle)"),
    **{f"translate_conjugators-{name}": (
        lambda pairs=pairs: translate_conjugators(canonical_parabolic(_C5P, (), "v1"), pairs, 1),
        "pairs must be an iterable of (conjugator, vertex) keys")
       for name, pairs in (("int", 5), ("int-pair", [5]), ("triple", [((), "v1", 1)]))},
    "translate_conjugators-bound": (
        lambda: translate_conjugators(canonical_parabolic(_C5P, (), "v1"), [((), "v3")], "1"),
        "conjugator length bound must be an integer"),
    "enumerate_cyclic_handles": (lambda: enumerate_cyclic_handles(_C5, ["v1"], ["v2"], 1),
                                 "expected a presentation"),
    "enumerate_cyclic_handles-bound": (
        lambda: enumerate_cyclic_handles(_C5P, ["v1"], ["v2"], 1.0),
        "conjugator length bound must be an integer"),
    **{f"enumerate_cyclic_handles-{name}": (
        lambda args=args: enumerate_cyclic_handles(_C5P, *args, 1), message)
       for name, args, message in (
           ("types", (None, ["v2"]), "parabolic types must be iterable"),
           ("letters", (["v1"], 5), "letter vertices must be iterable"))},
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPE_CASES))
def test_wrong_argument_type_is_an_input_error(case):
    call, message = WRONG_TYPE_CASES[case]
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value).startswith(message)


def _exported_functions():
    return sorted(name for name in raagme.__all__ if inspect.isfunction(getattr(raagme, name)))


@pytest.mark.parametrize("bad", [5, None])
@pytest.mark.parametrize("name", _exported_functions())
def test_exported_functions_reject_a_wrong_first_argument(name, bad):
    # every other required argument is "v1"; the call may fail for any
    # reason the package names, but never with a raw TypeError or
    # AttributeError from inside it
    f = getattr(raagme, name)
    required = [q for q in inspect.signature(f).parameters.values() if q.default is q.empty]
    with pytest.raises(RaagmeError):
        f(bad, *["v1"] * (len(required) - 1))
