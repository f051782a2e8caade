"""Vectorized, encoding-aware SELECT execution over column blocks.

This is MiniColumn's compressed-domain query path.  The storage layer
(:meth:`repro.databases.minicolumn.ColumnTable.scan_vector_blocks`)
yields each surviving block's zone entries and one
:class:`~repro.databases.colcodec.ColumnVector` per column, *keeping
encoded forms* and decoding a column only when it is first touched.
Every operator runs a whole block at a time, leaving the per-row loops
to C (``map``, ``itertools.compress`` and builtin reductions):

* **selection** — each ``column op literal`` conjunct is one list test
  (``map(operator.ge, values, repeat(bound))``) over the fewest values
  that decide the block: every value of a plain or delta block, one
  per RLE run, one per dictionary entry.  The verdicts AND into a
  selection vector that starts from the deletion-mask complement.  A
  conjunct on an INT column whose zone entry proves it for every row
  of the block is skipped, and its column is not decoded for it;
* **grouped aggregation** — a block's selected positions are
  partitioned by group key once (with no GROUP BY they all form the
  single ``()`` group, and no key is built per row), then each
  (group, aggregate) pair is reduced with ``len``/``min``/``max`` and
  ``sum`` (REAL sums fold left to right, as the row interpreter adds).

The entry point :func:`try_run_select_vectorized` returns ``None`` for
query shapes it does not support — joins, WHERE clauses that are not
AND-trees of ``column op literal``, aggregate arguments that are not a
column or ``*`` — and the caller falls back to the row interpreter in
:mod:`repro.databases.sql_executor`, which stays the semantic
reference.  Both paths share the aggregate result semantics
(``_Accumulator.result``), projection naming, ORDER BY, and LIMIT code,
so their outputs are identical wherever both apply: groups in
first-appearance order, a group's first selected row as its sample,
NULLs skipped by every aggregate but ``count(*)``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import reduce
from itertools import chain, compress, repeat
from operator import add, and_, eq, ge, gt, le, lt, ne, not_
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional

from repro.databases.sql_executor import (
    _Accumulator,
    _collect_aggregates,
    _evaluate_with_aggregates,
    _expr_label,
    _item_name,
    apply_order_limit,
    contains_aggregate,
    run_select,
)
from repro.databases.sql_parser import (
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    Literal,
    Select,
    Star,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.databases.minicolumn import BlockVectors, ColumnTable, Zone

_OPERATORS = {"=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


def _conjuncts(where: Optional[Expr]) -> Optional[list[tuple[str, str, object]]]:
    """Flatten an AND-tree of ``column op literal`` comparisons.

    Returns ``None`` when any conjunct has another shape (OR, NOT,
    arithmetic, column-vs-column) — those queries take the row path.
    """
    if where is None:
        return []
    if isinstance(where, BinaryOp) and where.op == "AND":
        left = _conjuncts(where.left)
        right = _conjuncts(where.right)
        if left is None or right is None:
            return None
        return left + right
    if (
        isinstance(where, BinaryOp)
        and where.op in _OPERATORS
        and isinstance(where.left, Column)
        and isinstance(where.right, Literal)
    ):
        return [(where.left.name, where.op, where.right.value)]
    return None


#: Zone bounds are stored as floats; INT bounds beyond this magnitude
#: may be rounded, so they cannot prove a predicate for every row.
_EXACT_FLOAT_INT = 2**53

Test = Callable[[list], list]


def _vector_test(op: str, bound: object) -> Test:
    """``column op bound`` over a whole value list at C speed, with the
    row interpreter's NULL semantics: ``=``/``!=`` are plain equality,
    ordered comparisons with NULL on either side are false."""
    compare = _OPERATORS[op]
    if op in ("=", "!="):
        return lambda values: list(map(compare, values, repeat(bound)))
    if bound is None:
        return lambda values: [False] * len(values)

    def test(values: list) -> list:
        if None in values:
            return [value is not None and compare(value, bound) for value in values]
        return list(map(compare, values, repeat(bound)))

    return test


def _zone_covers(op: str, bound: object, zone: Optional["Zone"]) -> bool:
    """Whether an INT column's zone entry proves ``column op bound``
    for every row of the block (no NULLs, all values in range)."""
    if zone is None or not isinstance(bound, (int, float)):
        return False
    low, high, has_null = zone
    if has_null or low < -_EXACT_FLOAT_INT or high > _EXACT_FLOAT_INT:
        return False
    if op == ">=":
        return low >= bound
    if op == ">":
        return low > bound
    if op == "<=":
        return high <= bound
    if op == "<":
        return high < bound
    if op == "=":
        return low == high == bound
    return bound < low or bound > high  # "!="


class _Predicate(NamedTuple):
    column: str
    op: str
    bound: object
    test: Test
    zoned: bool  # an INT column: its zone entry may cover the predicate


def _block_selection(
    mask: bytes,
    zones: dict[str, "Zone"],
    vectors: "BlockVectors",
    predicates: list[_Predicate],
) -> Optional[list[bool]]:
    """Selection vector for one block: live under the deletion mask AND
    every predicate, evaluated on the encoded vectors directly.

    ``None`` means every row is selected.  A predicate the block's zone
    entry covers is skipped, and its column is not decoded for it.
    """
    selected = list(map(not_, mask)) if any(mask) else None
    for predicate in predicates:
        if predicate.zoned and _zone_covers(
            predicate.op, predicate.bound, zones.get(predicate.column)
        ):
            continue
        hits = vectors[predicate.column].select(predicate.test)
        selected = hits if selected is None else list(map(and_, selected, hits))
        if True not in selected:
            break
    return selected


def _referenced(select: Select) -> tuple[set[str], set[str], bool]:
    """``(required, ordering, star)`` column references.

    ``required`` columns (projection, WHERE, GROUP BY) must exist in the
    table; ``ordering`` columns may instead be projection aliases (e.g.
    ``ORDER BY avg_cnt``), which the shared ORDER BY code resolves
    against the output rows."""
    from repro.databases.minicolumn import _columns_of

    required: set[str] = set()
    star = False
    for item in select.items:
        if isinstance(item.expr, Star):
            star = True
        else:
            required |= _columns_of(item.expr)
    if select.where is not None:
        required |= _columns_of(select.where)
    for column in select.group_by:
        required.add(column.name)
    ordering: set[str] = set()
    for order in select.order_by:
        ordering |= _columns_of(order.expr)
    return required, ordering, star


def try_run_select_vectorized(
    select: Select, table: "ColumnTable"
) -> Optional[list[dict[str, object]]]:
    """Run a SELECT through the vectorized path, or return ``None``
    when its shape is unsupported (the caller falls back to rows)."""
    from repro.databases.minicolumn import _range_constraints

    if select.join is not None:
        return None
    conjuncts = _conjuncts(select.where)
    if conjuncts is None:
        return None
    required, ordering, star = _referenced(select)
    if not required.issubset(table.column_names):
        return None  # unknown column: the row path raises the error
    if star:
        names = list(table.column_names)
    else:
        # Scan exactly what the row path would: ORDER BY references that
        # are not table columns are projection aliases, resolved later.
        referenced = required | ordering
        names = [name for name in table.column_names if name in referenced]
        if not names:
            names = list(table.column_names[:1])

    types = dict(table.columns)
    predicates = [
        _Predicate(name, op, bound, _vector_test(op, bound), types[name] == "INT")
        for name, op, bound in conjuncts
    ]
    grouped = bool(select.group_by) or any(
        contains_aggregate(item.expr) for item in select.items
    )
    blocks = table.scan_vector_blocks(names, _range_constraints(select.where))
    if not grouped:
        rows: list[dict[str, object]] = []
        for __, __, mask, zones, vectors in blocks:
            selected = _block_selection(mask, zones, vectors, predicates)
            if selected is not None and True not in selected:
                continue
            columns = [vectors[name].materialize() for name in names]
            if selected is not None:
                columns = [list(compress(values, selected)) for values in columns]
            rows.extend(map(dict, map(zip, repeat(names), zip(*columns))))
        # The WHERE is already applied; share projection / order / limit.
        return run_select(replace(select, where=None), rows)

    return _run_grouped_vectorized(select, table, names, blocks, predicates)


def _fold(accumulator: _Accumulator, values: list, type_name: str) -> None:
    """Fold one group's non-NULL argument values from one block into
    ``accumulator``, exactly as row-at-a-time ``_Accumulator.add``
    would: REAL sums add left to right in row order (never builtin
    ``sum``, which compensates float sums on Python 3.12), TEXT never
    sums, and ``min``/``max`` keep the first of equal values."""
    if not values:
        return
    accumulator.count += len(values)
    name = accumulator.func.name
    if name in ("sum", "avg"):
        if type_name == "INT":
            accumulator.total += sum(values)
        elif type_name == "REAL":
            accumulator.total = reduce(add, values, accumulator.total)
    elif name == "min":
        # Folding through the running value keeps ``add``'s exact
        # comparison sequence (it matters for unordered values: NaN).
        running = accumulator.minimum
        accumulator.minimum = min(values if running is None else chain((running,), values))
    elif name == "max":
        running = accumulator.maximum
        accumulator.maximum = max(values if running is None else chain((running,), values))


def _partition(keys: Iterable, positions: Iterable[int]) -> dict[object, list[int]]:
    """Positions bucketed by key, buckets in first-appearance order."""
    buckets: dict[object, list[int]] = {}
    for key, position in zip(keys, positions):
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [position]
        else:
            bucket.append(position)
    return buckets


def _run_grouped_vectorized(
    select: Select,
    table: "ColumnTable",
    names: list[str],
    blocks,
    predicates: list[_Predicate],
) -> Optional[list[dict[str, object]]]:
    """GROUP BY / aggregates block-at-a-time.

    Each block's selected positions are partitioned by group key once
    (with no GROUP BY they all fall in the single ``()`` group, and no
    key is built per row), then every (group, aggregate) pair is
    reduced over its values with builtins.  Groups keep
    first-appearance order, and a group's sample row — for
    non-aggregate projections — is its first selected row, both as in
    the row interpreter.
    """
    from repro.databases.minicolumn import _columns_of

    if any(isinstance(item.expr, Star) for item in select.items):
        return None  # the row path raises "* is not valid..."
    aggregates: dict[FuncCall, _Accumulator] = {}
    for item in select.items:
        _collect_aggregates(item.expr, aggregates)
    for order in select.order_by:
        _collect_aggregates(order.expr, aggregates)
    types = dict(table.columns)
    # (argument column, its type) per aggregate; None for count(*).
    plan: list[Optional[tuple[str, str]]] = []
    for func in aggregates:
        if isinstance(func.argument, Star):
            if func.name != "count":
                return None  # row path raises the aggregate error
            plan.append(None)
        elif isinstance(func.argument, Column):
            plan.append((func.argument.name, types[func.argument.name]))
        else:
            return None  # e.g. sum(a + b): row path handles it

    group_columns = [column.name for column in select.group_by]
    sampled: set[str] = set()
    for expr in [item.expr for item in select.items] + [o.expr for o in select.order_by]:
        sampled |= _columns_of(expr)
    sample_columns = [name for name in names if name in sampled]
    groups: dict[tuple, tuple[dict[str, object], list[_Accumulator]]] = {}
    for __, count, mask, zones, vectors in blocks:
        selected = _block_selection(mask, zones, vectors, predicates)
        if selected is not None and True not in selected:
            continue
        materialized: dict[str, list] = {}

        def column(name: str) -> list:
            values = materialized.get(name)
            if values is None:
                values = materialized[name] = vectors[name].materialize()
            return values

        partitions: Iterable[tuple[tuple, Optional[list[int]]]]
        if group_columns:
            # One GROUP BY column buckets raw values: no per-row tuples.
            single = len(group_columns) == 1
            keys: Iterable = (
                column(group_columns[0]) if single else zip(*map(column, group_columns))
            )
            positions: Iterable[int] = range(count)
            if selected is not None:
                keys, positions = compress(keys, selected), compress(positions, selected)
            buckets = _partition(keys, positions)
            if single:
                partitions = (((key,), bucket) for key, bucket in buckets.items())
            else:
                partitions = buckets.items()  # type: ignore[assignment]
        else:
            partitions = [((), None)]  # every selected row, one group

        for key, bucket in partitions:
            state = groups.get(key)
            if state is None:
                if bucket is not None:
                    first = bucket[0]
                else:
                    first = 0 if selected is None else selected.index(True)
                sample = {name: column(name)[first] for name in sample_columns}
                state = groups[key] = (sample, [_Accumulator(func) for func in aggregates])
            picked: dict[str, list] = {}
            for argument, accumulator in zip(plan, state[1]):
                if argument is None:  # count(*)
                    if bucket is not None:
                        accumulator.count += len(bucket)
                    else:
                        accumulator.count += (
                            count if selected is None else selected.count(True)
                        )
                    continue
                name, type_name = argument
                values = picked.get(name)
                if values is None:
                    values = column(name)
                    if bucket is not None:
                        values = list(map(values.__getitem__, bucket))
                    elif selected is not None:
                        values = list(compress(values, selected))
                    if None in values:  # SQL aggregates skip NULLs
                        values = [value for value in values if value is not None]
                    picked[name] = values
                _fold(accumulator, values, type_name)

    if not groups and not group_columns:
        # Aggregate over an empty input still yields one row.
        groups[()] = ({}, [_Accumulator(func) for func in aggregates])

    output: list[dict[str, object]] = []
    for key, (sample, accumulators) in groups.items():
        results = {acc.func: acc.result() for acc in accumulators}
        projected: dict[str, object] = {}
        for index, item in enumerate(select.items):
            projected[_item_name(item, index)] = _evaluate_with_aggregates(
                item.expr, sample, results
            )
        for name, value in zip(group_columns, key):
            projected.setdefault(name, value)
        for order in select.order_by:
            if contains_aggregate(order.expr):
                value = _evaluate_with_aggregates(order.expr, sample, results)
                projected.setdefault(_expr_label(order.expr), value)
        output.append(projected)
    return apply_order_limit(select, output)
