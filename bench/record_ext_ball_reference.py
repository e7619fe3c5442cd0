"""Write ext_ball_reference.json: what every relabeled ext-ball run must reproduce.

    python3 bench/record_ext_ball_reference.py     (from the repository root)

For each pool graph, under its atlas labels v1..vn: node and edge counts of
the radius-2 extension ball and of its untransvectable restriction, the
number of interior nodes, and the untransvectable-ball fingerprints of
invariant_report for radii 0..2.  Counts and fingerprints do not depend on
vertex labels, so a relabeled run that differs has a defect.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference as R  # noqa: E402
import workloads  # noqa: E402


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import raagme
    atlas = workloads.load_atlas()
    record = {}
    for name, index in workloads.EXT_POOL:
        adj = atlas[index]
        p = raagme.raag(raagme.SimpleGraph(sorted(adj), R.edge_list(adj)))
        ball = raagme.build_ext_ball(p, workloads.BALL_RADIUS)
        ue = raagme.ue_restriction(ball)
        report = raagme.invariant_report(p, ball_bound=workloads.BALL_RADIUS)
        record[name] = {
            "atlas_index": index,
            "vertices": len(adj),
            "edges": len(R.edge_list(adj)),
            "ball_nodes": ball.n_nodes,
            "ball_edges": ball.n_edges,
            "ue_nodes": ue.n_nodes,
            "ue_edges": ue.n_edges,
            "interior_nodes": len(ball.interior()),
            "ue_fingerprints": [h for _, h in report.ue_ball_fingerprints],
        }
    with open(os.path.join(HERE, "ext_ball_reference.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
