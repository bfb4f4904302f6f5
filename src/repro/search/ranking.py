"""The ranking heuristic (Section 3.2).

Jungloids are ordered by:

1. **cost** — length (widening-free) plus 2 per reference-typed free
   variable (the paper's empirically tuned estimate);
2. **package boundary crossings** — jungloids that wander across many
   packages (the Lucene ``HTMLParser`` detour) are less likely intended
   than ones that stay near the endpoint packages;
3. **generality of the true output type** — a jungloid whose final
   non-widening step returns ``XMLEditor`` ranks below one returning the
   requested ``IEditorPart`` itself: if the user wanted the subclass they
   would have asked for it;
4. a deterministic textual tie-break so results are stable run to run.

When the static viability analysis is available (see
:mod:`repro.analysis`), ranking can wrap the paper's key in a
:class:`ViabilityRankKey` whose *leading* component demotes jungloids
with an ``INVIABLE``-verdict downcast below everything else; among
non-demoted jungloids the paper's order is untouched, so Table-1 answers
are byte-identical whenever verdicts don't differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..jungloids import CostModel, DEFAULT_COST_MODEL, Jungloid
from ..typesystem import JavaType, TypeRegistry, VOID, generality_key, package_distance, type_package


def true_output_type(jungloid: Jungloid) -> JavaType:
    """Declared type produced by the last non-widening step.

    Trailing widening steps only exist to reach the requested node; the
    generality tie-break looks through them.
    """
    for step in reversed(jungloid.steps):
        if not step.is_widening:
            return step.output_type
    return jungloid.output_type


def step_crossings(step) -> int:
    """Package-tree distance walked by one step (see :func:`package_crossings`)."""
    if step.is_widening:
        return 0
    in_pkg = type_package(step.input_type) if step.input_type != VOID else None
    out_pkg = type_package(step.output_type)
    owner = getattr(step.member, "owner", None)
    if owner is None:
        return package_distance(in_pkg, out_pkg) if in_pkg is not None else 0
    owner_pkg = type_package(owner)
    crossings = package_distance(owner_pkg, out_pkg)
    if in_pkg is not None:
        crossings += package_distance(in_pkg, owner_pkg)
    return crossings


def package_crossings(jungloid: Jungloid) -> int:
    """Total package-tree distance walked by the jungloid.

    For each non-widening step we charge the distance from the current
    object's package to the member's declaring package (finding the member
    is a navigation step for the programmer too) and from there to the
    output type's package. Casts charge input→output directly. ``void``
    inputs charge nothing on the input side.
    """
    return sum(step_crossings(step) for step in jungloid.steps)


#: ``(cost, crossings, generality, demotion)`` of one step; generality is
#: ``None`` for a widening step, which the generality tie-break looks
#: through.
StepRankParts = Tuple[int, int, Optional[int], int]
#: ``(demotion, cost, crossings, generality)`` of a whole jungloid: the
#: rank key without its textual tie-break, in sort order.
PathRankParts = Tuple[int, int, int, int]


def step_rank_parts(
    step,
    registry: TypeRegistry,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    verdicts=None,
) -> StepRankParts:
    """The rank-key contribution of one elementary jungloid.

    Every part of the key except the tie-break text is a function of
    single steps: cost and crossings add up along a jungloid, demotion is
    their maximum, and generality is that of the last non-widening step.
    The search kernel evaluates this once per graph edge; the public keys
    below combine the same parts, so the two cannot drift apart.
    """
    return (
        cost_model.step_total(step),
        step_crossings(step),
        None if step.is_widening else generality_key(registry, step.output_type),
        verdicts.step_demotion(step) if verdicts is not None else 0,
    )


def path_rank_parts(
    parts: Iterable[StepRankParts], registry: TypeRegistry, output_type: JavaType
) -> PathRankParts:
    """Combine per-step parts along a jungloid producing ``output_type``."""
    cost = crossings = demotion = 0
    generality = None
    for step_cost, step_crossed, step_generality, step_demotion in parts:
        cost += step_cost
        crossings += step_crossed
        if step_generality is not None:
            generality = step_generality
        if step_demotion > demotion:
            demotion = step_demotion
    if generality is None:  # all widening: the output type itself
        generality = generality_key(registry, output_type)
    return demotion, cost, crossings, generality


def jungloid_rank_parts(
    registry: TypeRegistry,
    jungloid: Jungloid,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    verdicts=None,
) -> PathRankParts:
    """:func:`path_rank_parts` of a jungloid, evaluated step by step."""
    return path_rank_parts(
        (step_rank_parts(step, registry, cost_model, verdicts) for step in jungloid.steps),
        registry,
        jungloid.output_type,
    )


@dataclass(frozen=True, order=True)
class RankKey:
    """Sort key: smaller ranks first."""

    cost: int
    crossings: int
    generality: int
    text: str


def rank_key(
    registry: TypeRegistry, jungloid: Jungloid, cost_model: CostModel = DEFAULT_COST_MODEL
) -> RankKey:
    return viability_rank_key(registry, jungloid, None, cost_model).base


@dataclass(frozen=True, order=True)
class ViabilityRankKey:
    """The paper's key behind a leading analysis-demotion bucket.

    ``demotion`` is 0 for ``JUSTIFIED``/``PLAUSIBLE`` jungloids and 1
    when any downcast step carries an ``INVIABLE`` verdict, so demoted
    jungloids sort after every non-demoted one regardless of cost.
    """

    demotion: int
    base: RankKey


def viability_rank_key(
    registry: TypeRegistry,
    jungloid: Jungloid,
    verdicts,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ViabilityRankKey:
    """Rank key demoting statically inviable jungloids.

    ``verdicts`` is a :class:`~repro.analysis.verdicts.CastVerdictIndex`
    (or ``None``, in which case nothing is demoted).
    """
    demotion, cost, crossings, generality = jungloid_rank_parts(
        registry, jungloid, cost_model, verdicts
    )
    base = RankKey(cost, crossings, generality, jungloid.render_expression("x"))
    return ViabilityRankKey(demotion=demotion, base=base)


def rank(
    registry: TypeRegistry,
    jungloids: Sequence[Jungloid],
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> List[Jungloid]:
    """Return ``jungloids`` sorted best-first by the paper's heuristic."""
    return sorted(jungloids, key=lambda j: rank_key(registry, j, cost_model))
