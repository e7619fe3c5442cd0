"""Right-angled Artin groups: defining-graph combinatorics and equivalence decisions.

The package turns the classification of graph products of free abelian
groups up to measure and orbit equivalence into executable procedures over
finite defining graphs, together with the supporting machinery: graph
operations and isomorphism, the Charney-Vogtmann domination order and the
automorphism inventory, clique reduction, normal forms for graph products,
finite extension-graph balls, and star-gluing finite-index subgroups.
"""

from .errors import DomainError, InputError, ParseError, RaagmeError
from .graphs import (SimpleGraph, complete_graph, connected_components, cycle_graph,
                     edgeless_graph, full_subgraph, link, opposite_graph, path_graph, perp,
                     star)
from .isomorphism import (automorphism_count, canonical_form, canonical_hash,
                          find_isomorphism)
from .presentation import GraphProductPresentation, clique_reduce, expand_to_raag, raag
from .combinatorics import (CvClassification, OutInventory, cv_classification, has_finite_out,
                            is_collapsible, is_strongly_untransvectable,
                            is_transvectable_vertex, out_inventory, untransvectable_vertices)
from .words import (NormalFormWord, ParabolicHandle, canonical_parabolic,
                    multiply_and_normalize, word)
from .extension import (ExtBall, build_ext_ball, star_complement_connectivity_check,
                        star_separation_check, ue_restriction)
from .subgroups import FiniteIndexWitness, enumerate_findex_graphs, star_gluing_kernel
from .classify import Decision, InvariantReport, decide_me, decide_oe, invariant_report

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
