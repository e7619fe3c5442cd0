import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the tests that run `python -m raagme.cli` in a child process import the
# package from this checkout's src/, as the tests themselves do
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]))

from helpers import ATLAS_SIZES, graph_atlas  # noqa: E402

from raagme.graphs import SimpleGraph, cycle_graph, edgeless_graph, path_graph  # noqa: E402


@pytest.fixture(scope="session")
def atlas6():
    atlas = graph_atlas(6)
    assert [len(atlas[n]) for n in range(1, 7)] == ATLAS_SIZES[:6]
    return atlas


@pytest.fixture(scope="session")
def atlas7(atlas6):
    full = dict(atlas6)
    full.update({7: graph_atlas(7)[7]})
    assert len(full[7]) == ATLAS_SIZES[6]
    return full


@pytest.fixture(scope="session")
def c5():
    return cycle_graph(["v1", "v2", "v3", "v4", "v5"])


@pytest.fixture(scope="session")
def p3():
    return path_graph(["a", "b", "c"])


@pytest.fixture(scope="session")
def f2_graph():
    return edgeless_graph(["a", "b"])


@pytest.fixture(scope="session")
def f3_graph():
    return edgeless_graph(["a", "b", "c"])


@pytest.fixture(scope="session")
def counterexample_graph():
    """A 5-cycle whose vertex v1 is replaced by a cone v0 over two isolated
    vertices (vertex group Z x F2), the replacement joined to v1's old
    neighbors; its cone vertex is untransvectable but not strongly so."""
    return SimpleGraph(
        ["v0", "w1", "w2", "v2", "v3", "v4", "v5"],
        [("v0", "w1"), ("v0", "w2"),
         ("v0", "v2"), ("v0", "v5"), ("w1", "v2"), ("w1", "v5"),
         ("w2", "v2"), ("w2", "v5"),
         ("v2", "v3"), ("v3", "v4"), ("v4", "v5")])
