"""Type canonicalisation (Sec. 3.2).

Semantically equivalent MPI datatypes translate to different Types; four
transformations, applied repeatedly until none of them changes the chain,
reduce them to a canonical form:

Dense folding (``_fold_dense``)
    A stream whose stride equals its dense child's extent is a single larger
    dense run (Alg. 2, Fig. 3).
Stream elision (``_elide_unit_streams``)
    A stream of one element adds no structure and is removed (Alg. 3,
    Fig. 4); its offset moves down to the level below.  This makes e.g.
    ``vector(1, n, 1, T)`` and ``contiguous(n, T)`` canonicalise identically.
Stream flattening (``_flatten_streams``)
    Nested streams whose strides chain exactly (parent stride equals child
    count × child stride) collapse into one longer stream (Alg. 4, Fig. 5).
Sorting (``_sort_streams``)
    Stream levels are ordered by decreasing stride so that row-of-column and
    column-of-row constructions agree (Sec. 3.2.4).

A Type is stored flat (:mod:`repro.tempi.ir`): stream rows over one dense
base.  :func:`simplify` copies them once into a list of ``[offset, stride,
count]`` rows, outermost first, over an ``[offset, extent]`` leaf; each rule
rewrites that list in place and reports whether it changed anything, and the
canonical Type is made once, at the fixed point.

All rules preserve the set of bytes the type describes; the property-based
tests check exactly that invariant against the MPI type map.
"""

from __future__ import annotations

from operator import itemgetter

from repro.tempi.ir import Type

#: Safety bound on the fixed-point iteration; in practice a handful of passes
#: suffice (each pass strictly reduces depth or orders the chain).
MAX_PASSES = 64

Rows = list[list[int]]
_STRIDE = itemgetter(1)


# --------------------------------------------------------------------------- #
# The four rules.  Each rewrites (rows, leaf) in place and returns changed.
# --------------------------------------------------------------------------- #

def _fold_dense(rows: Rows, leaf: list[int]) -> bool:
    """Bottom-up, fold the innermost stream into the leaf while its stride is the extent."""
    changed = False
    while rows and rows[-1][1] == leaf[1]:
        offset, stride, count = rows[-1]
        del rows[-1]
        leaf[0] += offset
        leaf[1] = count * stride
        changed = True
    return changed


def _elide_unit_streams(rows: Rows, leaf: list[int]) -> bool:
    """Drop streams of one element, adding each offset to the next level kept below."""
    below = leaf
    changed = False
    for row in reversed(rows):
        if row[2] == 1:
            below[0] += row[0]
            changed = True
        else:
            below = row
    if changed:
        rows[:] = [row for row in rows if row[2] != 1]
    return changed


def _flatten_streams(rows: Rows, leaf: list[int]) -> bool:
    """Bottom-up, merge each stream with the one below it once when their strides chain."""
    changed = False
    i = len(rows) - 2
    while i >= 0:
        upper, lower = rows[i], rows[i + 1]
        if upper[1] == lower[2] * lower[1]:
            upper[0] += lower[0]
            upper[1] = lower[1]
            upper[2] *= lower[2]
            del rows[i + 1]
            changed = True
        i -= 1
    return changed


def _sort_streams(rows: Rows, leaf: list[int]) -> bool:
    """Stable sort of the streams by decreasing stride."""
    for upper, lower in zip(rows, rows[1:]):
        if lower[1] > upper[1]:
            rows.sort(key=_STRIDE, reverse=True)
            return True
    return False


# --------------------------------------------------------------------------- #
# Fixed point
# --------------------------------------------------------------------------- #

def simplify(ty: Type) -> Type:
    """Apply the four transformations until none changes the chain (Alg. 1).

    The input is not modified; a new canonical Type is returned, after
    checking that each of its levels is self-consistent.
    """
    rows, leaf = list(map(list, ty.rows)), [*ty.base]
    for _ in range(MAX_PASSES):
        changed = _fold_dense(rows, leaf)
        changed |= _elide_unit_streams(rows, leaf)
        changed |= _flatten_streams(rows, leaf)
        changed |= _sort_streams(rows, leaf)
        if not changed:
            break
    else:  # pragma: no cover - defensive: the rules always reach a fixed point
        raise RuntimeError("canonicalisation did not converge")
    node = Type(tuple(map(tuple, rows)), (leaf[0], leaf[1]))
    node.validate()
    return node


#: Alias used throughout the package and the paper's terminology.
canonicalize = simplify
