"""Domain coarsening before TP (the Section 5.6 preprocessing hybrid).

Section 5.6 observes that TP degrades when QI domains are large (most tuples
end up with unique QI vectors) and suggests pre-coarsening the domains with
any single-dimensional generalization before running TP: fewer stars, at the
price of less precise non-star values.  This module implements that
preprocessing as an explicit, auditable transformation:

* :func:`coarsen` maps a table onto taxonomy nodes at a chosen depth per
  attribute, producing a smaller-domain table plus the information needed to
  decode published values back to sub-domains;
* :func:`anonymize_with_coarsening` runs TP (or TP+) on the coarsened table
  and re-expresses the published table over the original schema, with
  non-star cells becoming sub-domain cells (frozensets of original codes).

The trade-off it exposes — number of stars versus the width of the non-star
cells — is exactly the tuning knob discussed in the paper, and the ablation
benchmark sweeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.hierarchy import Taxonomy
from repro.core import hybrid as hybrid_module
from repro.core import three_phase
from repro.dataset.generalized import STAR, GeneralizedTable
from repro.dataset.table import Attribute, Schema, Table

__all__ = ["CoarsenedTable", "coarsen", "anonymize_with_coarsening", "PreprocessedResult"]


@dataclass(frozen=True)
class CoarsenedTable:
    """A table whose QI values are taxonomy nodes at a fixed depth."""

    #: The coarsened table (QI codes index into ``node_ids`` per attribute).
    table: Table
    #: The original table the coarsening was derived from.
    original: Table
    #: Per attribute: the taxonomy used.
    taxonomies: tuple[Taxonomy, ...]
    #: Per attribute: the taxonomy node backing each coarsened code.
    node_ids: tuple[tuple[int, ...], ...]

    def decode_cell(self, position: int, code: int) -> frozenset[int] | int:
        """Original-domain cell for a coarsened code: exact code or sub-domain."""
        taxonomy = self.taxonomies[position]
        node_id = self.node_ids[position][code]
        codes = taxonomy.codes_under(node_id)
        if len(codes) == 1:
            return codes[0]
        return frozenset(codes)


def coarsen(
    table: Table,
    depth: int,
    taxonomies: tuple[Taxonomy, ...] | None = None,
    fanout: int = 3,
) -> CoarsenedTable:
    """Coarsen every QI attribute to the taxonomy nodes at ``depth``.

    ``depth = 0`` collapses every attribute to its root (a single value);
    depths at or beyond an attribute's height leave it untouched.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if taxonomies is None:
        taxonomies = tuple(
            Taxonomy.for_attribute(attribute, fanout=fanout) for attribute in table.schema.qi
        )
    if len(taxonomies) != table.dimension:
        raise ValueError(f"expected {table.dimension} taxonomies, got {len(taxonomies)}")

    node_ids: list[tuple[int, ...]] = []
    code_maps: list[list[int]] = []
    attributes: list[Attribute] = []
    for position, (attribute, taxonomy) in enumerate(zip(table.schema.qi, taxonomies)):
        del position
        nodes = _nodes_at_depth(taxonomy, depth)
        node_for_code = [0] * attribute.size
        for new_code, node_id in enumerate(nodes):
            for code in taxonomy.codes_under(node_id):
                node_for_code[code] = new_code
        node_ids.append(tuple(nodes))
        code_maps.append(node_for_code)
        labels = tuple(
            f"{attribute.name}[{taxonomy.node(node_id).lo}:{taxonomy.node(node_id).hi}]"
            for node_id in nodes
        )
        attributes.append(Attribute(attribute.name, labels))

    schema = Schema(qi=tuple(attributes), sensitive=table.schema.sensitive)
    # Remap every column through its code map with one gather per attribute.
    columns = table.qi_columns
    coarse_columns = np.empty_like(columns)
    for position, code_map in enumerate(code_maps):
        coarse_columns[:, position] = np.asarray(code_map, dtype=np.int32)[
            columns[:, position]
        ]
    coarse = Table.from_arrays(schema, coarse_columns, table.sa_array)
    return CoarsenedTable(
        table=coarse,
        original=table,
        taxonomies=tuple(taxonomies),
        node_ids=tuple(node_ids),
    )


def _nodes_at_depth(taxonomy: Taxonomy, depth: int) -> list[int]:
    """The frontier of the taxonomy at ``depth`` (leaves stop early)."""
    frontier: list[int] = []

    def walk(node_id: int, level: int) -> None:
        if level == depth or taxonomy.is_leaf(node_id):
            frontier.append(node_id)
            return
        for child_id in taxonomy.children(node_id):
            walk(child_id, level + 1)

    walk(taxonomy.root_id, 0)
    return frontier


@dataclass(frozen=True)
class PreprocessedResult:
    """Outcome of TP / TP+ run after domain coarsening."""

    coarsened: CoarsenedTable
    #: The published table over the *original* schema: exact values where the
    #: coarsened cell was a single original code, sub-domains otherwise, and
    #: stars where TP suppressed.
    generalized: GeneralizedTable
    #: Stars in the published table (same count as on the coarsened table).
    star_count: int
    l: int

    @property
    def subdomain_cell_count(self) -> int:
        """Non-star cells that became sub-domains due to the coarsening."""
        return self.generalized.generalized_cell_count() - self.star_count


def anonymize_with_coarsening(
    table: Table,
    l: int,
    depth: int,
    use_hybrid: bool = True,
    fanout: int = 3,
) -> PreprocessedResult:
    """Coarsen the QI domains, run TP(+) on the result, decode to the original schema."""
    coarsened = coarsen(table, depth, fanout=fanout)
    if use_hybrid:
        published = hybrid_module.anonymize(coarsened.table, l).generalized
    else:
        published = three_phase.anonymize(coarsened.table, l).generalized

    cells = []
    cell_cache: list[dict[int, object]] = [dict() for _ in range(table.dimension)]
    for row in range(len(table)):
        row_cells = []
        for position in range(table.dimension):
            cell = published.cell(row, position)
            if cell is STAR:
                row_cells.append(STAR)
                continue
            cache = cell_cache[position]
            if cell not in cache:
                cache[cell] = coarsened.decode_cell(position, cell)
            row_cells.append(cache[cell])
        cells.append(tuple(row_cells))
    generalized = GeneralizedTable(
        table.schema, cells, list(table.sa_values), list(published.group_ids)
    )
    return PreprocessedResult(
        coarsened=coarsened,
        generalized=generalized,
        star_count=generalized.star_count(),
        l=l,
    )
