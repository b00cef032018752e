"""Plain-Python answer oracle.

Expected answers are computed from the Wisconsin generator's tuples with
list comprehensions and dicts, never through the simulator, and always
outside the timed regions.  A result is compared by its tuple count and an
order-independent checksum of its tuples, so no sort of a large result is
needed.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable

from repro.workloads import generate_tuples
from repro.workloads.wisconsin import INT_ATTRS

_MASK = (1 << 64) - 1


def position(attr: str) -> int:
    return INT_ATTRS.index(attr)


def wisconsin(n: int, seed: int) -> list[tuple]:
    """The tuples ``load_wisconsin(name, n, seed=seed)`` loads."""
    return list(generate_tuples(n, seed=seed))


def digest(records: Iterable[tuple]) -> tuple[int, int]:
    """(count, checksum) of a multiset of tuples, independent of order.

    ``hash`` of a tuple of ints and strings is stable within one process,
    which is all a comparison of an expected and an actual answer in the
    same run needs.
    """
    count = 0
    total = 0
    for record in records:
        count += 1
        total += hash(record)
    return count, total & _MASK


def select(records: list[tuple], attr: str, low: int, high: int) -> list[tuple]:
    pos = position(attr)
    return [r for r in records if low <= r[pos] <= high]


def join(build: list[tuple], probe: list[tuple], attr: str) -> list[tuple]:
    """``build ⋈ probe`` on ``attr``, each result tuple being the build
    tuple followed by the probe tuple (both machines' output layout)."""
    pos = position(attr)
    by_key: dict[int, list[tuple]] = {}
    for record in build:
        by_key.setdefault(record[pos], []).append(record)
    return [
        b + p for p in probe for b in by_key.get(p[pos], ())
    ]


def replay(
    records: list[tuple], updates: list[tuple[str, int, Any]]
) -> Counter:
    """The relation after applying ``updates`` in order, as a multiset.

    Each update is ``("append", _, record)``, ``("delete", unique1, None)``
    or ``("modify", unique1, (attr_pos, value))``.
    """
    rows: dict[int, list[tuple]] = {}
    for record in records:
        rows.setdefault(record[0], []).append(record)
    for kind, key, payload in updates:
        if kind == "append":
            rows.setdefault(payload[0], []).append(payload)
        elif kind == "delete":
            rows.pop(key, None)
        else:
            pos, value = payload
            rows[key] = [
                r[:pos] + (value,) + r[pos + 1:] for r in rows.get(key, ())
            ]
    return Counter(r for group in rows.values() for r in group)
