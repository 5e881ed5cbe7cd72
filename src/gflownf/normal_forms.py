"""Focusing transformations, input-promotion rewrites, and the defect bound.

``focus`` eliminates non-output correctors through a reverse-order sweep;
the two promotions turn an off-axis measured non-input into an input,
trading one unit of input defect.
"""

from __future__ import annotations

from dataclasses import dataclass

from .opengraph import ExtendedOpenGraph, Graph, Plane
from .gflow import (
    Gflow,
    _check_sigma,
    _nf_excess,
    _off_sigma,
    _valid,
    check_normal_form,
)
from .search import find_gflow


@dataclass(frozen=True)
class PromotionResult:
    rewritten: ExtendedOpenGraph
    gflow: Gflow
    promoted_vertex: int
    added_vertex: int | None


def focus(eog: ExtendedOpenGraph, g: Gflow, sigma: str) -> Gflow:
    """Rewrite g so the sigma-specific corrector set stays in {u} + outputs.

    Requires a valid gflow g and sigma in the plane of every measured
    non-input, and raises ValueError otherwise; the sweep runs from the
    latest layer down so each substituted set is already final. The result
    is a valid sigma-NF gflow extensive under g's own order.
    """
    _check_sigma(sigma)
    off = _off_sigma(eog, sigma)
    if off:
        raise ValueError(
            f"vertex {off[0]} is measured in the {eog.planes[off[0]].value} plane, "
            f"which does not contain {sigma}"
        )
    masks, order = _valid(eog, g)
    graph = eog.graph
    out_mask = graph.mask(eog.outputs)
    refocused: dict[int, int] = {}
    for i in sorted(masks, key=lambda i: (-order.layers[graph.ids[i]], i)):
        k, odd = masks[i]
        pool = _nf_excess(sigma, i, k, odd, out_mask)
        while pool:
            b = pool & -pool
            pool ^= b
            k ^= refocused[b.bit_length() - 1]
        refocused[i] = k
    return Gflow({graph.ids[i]: graph.members(k) for i, k in refocused.items()})


def _check_promotion_pre(eog, g, u0, sigma):
    _valid(eog, g)
    if not check_normal_form(eog, g, sigma):
        raise ValueError(f"promotion requires a {sigma}-NF gflow")
    if u0 not in eog.measured_non_inputs:
        raise ValueError(f"vertex {u0} is not a measured non-input")
    if eog.planes[u0].contains(sigma):
        raise ValueError(
            f"vertex {u0} is measured in a plane containing {sigma}; "
            f"nothing to promote"
        )


def _redirect_through(g: Gflow, u0: int, measured) -> dict[int, frozenset[int]]:
    # After this, u0 appears in no corrector set but its own.
    gu0 = g[u0]
    return {
        u: g[u] if u == u0 or u0 not in g[u] else g[u] ^ gu0 for u in measured
    }


def promote_input_z(eog: ExtendedOpenGraph, g: Gflow, u0: int) -> PromotionResult:
    """Turn an XY-measured non-input into an input, keeping a Z-NF gflow."""
    _check_promotion_pre(eog, g, u0, "Z")
    gp = _redirect_through(g, u0, eog.measured)
    rewritten = ExtendedOpenGraph(
        eog.graph, eog.inputs | {u0}, eog.outputs, dict(eog.planes)
    )
    return PromotionResult(rewritten, Gflow(gp), u0, None)


def promote_input_y(eog: ExtendedOpenGraph, g: Gflow, u0: int) -> PromotionResult:
    """Turn an XZ-measured non-input into an input, keeping a Y-NF gflow.

    A fresh degree-one vertex hangs off the promoted vertex; the promoted
    vertex switches to the XY plane and the new vertex is measured YZ.
    """
    _check_promotion_pre(eog, g, u0, "Y")
    for v in sorted(eog.graph.neighbours(u0) - eog.outputs):
        if not eog.planes[v].contains("Y"):
            raise ValueError(
                f"cannot promote vertex {u0}: its neighbour {v} is measured "
                f"in the {eog.planes[v].value} plane, so the spurious parity "
                f"it picks up cannot be cancelled"
            )
    gp = _redirect_through(g, u0, eog.measured)
    u1 = max(eog.vertices) + 1
    graph2 = Graph(eog.graph.vertices | {u1}, eog.graph.edges | {(u0, u1)})
    planes2 = dict(eog.planes)
    planes2[u0] = Plane.XY
    planes2[u1] = Plane.YZ
    # Corrector for the promoted vertex: start from its old set minus
    # itself, then cancel the spurious odd-parity it casts on each
    # non-output neighbour by folding in that neighbour's (redirected)
    # set.  Each fold removes exactly one non-output vertex from the
    # symmetric difference and cannot reintroduce u0, so the result
    # satisfies the XY condition at u0 and the Y-NF inclusion.
    s = gp[u0] ^ {u0}
    for v in eog.graph.neighbours(u0) - eog.outputs:
        s ^= gp[v]
    g2 = dict(gp)
    g2[u0] = s
    g2[u1] = s | {u1}
    rewritten = ExtendedOpenGraph(graph2, eog.inputs | {u0}, eog.outputs, planes2)
    return PromotionResult(rewritten, Gflow(g2), u0, u1)


def promote_all(eog: ExtendedOpenGraph, g: Gflow, sigma: str):
    """Promote eligible vertices in ascending id order until none remain.

    Returns (rewritten instance, gflow, list of promotion steps). Each step
    calls the rewrite by its module name, so a wrapper set there sees it.
    """
    _check_sigma(sigma, ("Y", "Z"))
    steps = []
    while True:
        eligible = _off_sigma(eog, sigma)
        if not eligible:
            return eog, g, steps
        promote = promote_input_y if sigma == "Y" else promote_input_z
        step = promote(eog, g, eligible[0])
        steps.append(step)
        eog, g = step.rewritten, step.gflow


def check_defect_bound(eog: ExtendedOpenGraph, sigma: str):
    """(off-sigma count, input defect, count <= defect) for sigma in {Y, Z}.

    For Z the comparison is a necessary condition: a Z-NF gflow can only
    exist when the count of XY-measured non-inputs stays within the input
    defect.  For Y the numbers are reported but the comparison is *not* a
    sound rejection — a complete 3-vertex graph with one output and both
    measured vertices in XZ has a Y-NF gflow with count 2 > defect 1.
    """
    _check_sigma(sigma, ("Y", "Z"))
    count = len(_off_sigma(eog, sigma))
    defect = eog.input_defect
    return count, defect, count <= defect


def check_balanced_nf(eog: ExtendedOpenGraph, sigma: str) -> bool:
    """Equal-input-output decision: sigma-NF existence reduces to the planes.

    For an instance with a gflow and |I| = |O|, a sigma-NF gflow
    (sigma in {Y, Z}) exists exactly when every measured non-input plane
    contains sigma.
    """
    _check_sigma(sigma, ("Y", "Z"))
    if len(eog.inputs) != len(eog.outputs):
        raise ValueError("the equivalence requires as many inputs as outputs")
    if find_gflow(eog) is None:
        raise ValueError("instance has no gflow")
    return not _off_sigma(eog, sigma)
