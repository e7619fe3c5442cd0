import json

import pytest

from raagme.errors import ParseError
from raagme.formats import (load_presentation, parse_dot_presentation,
                            parse_json_presentation, parse_presentation,
                            presentation_to_json_dict, sniff_format)
from raagme.presentation import GraphProductPresentation


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

    def test_syntax_error_carries_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_dot_presentation("graph {\n a -- ; \n}")


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
