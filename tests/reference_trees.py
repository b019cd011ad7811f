"""The direct tree enumerator, kept as the reference for ``tree_ids_upto``.

It builds every rooted labeled tree of each size from the trees of smaller
sizes, with no universal model involved, and interns them in the shared pool.
"""

from eliq import Role
from eliq.model import intern_tree


def _combos(attachments: list, budget: int) -> list[tuple]:
    """Every multiset of (subtree size, edge, tid) attachments whose sizes sum
    to ``budget``, as a sorted child tuple, in the order of ``attachments``."""
    combos: list[tuple] = []

    def rec(remaining: int, start: int, acc: list) -> None:
        if remaining == 0:
            combos.append(tuple(sorted(acc)))
            return
        for i in range(start, len(attachments)):
            s, e, t = attachments[i]
            if s > remaining:
                break
            acc.append((e, t))
            rec(remaining - s, i, acc)
            acc.pop()

    rec(budget, 0, [])
    return combos


def reference_tree_ids(names, roles, max_vars: int) -> list[int]:
    """All rooted labeled trees with at most ``max_vars`` nodes, one id per
    isomorphism class, ordered by size."""
    sorted_names = sorted(names)
    labels = [
        frozenset(n for i, n in enumerate(sorted_names) if mask >> i & 1)
        for mask in range(1 << len(sorted_names))
    ]
    labels.sort(key=sorted)
    edges = sorted(Role(r, inv) for r in sorted(roles) for inv in (False, True))
    out: list[int] = []
    attachments: list = []  # (subtree size, edge, tid), sorted
    for size in range(1, max_vars + 1):
        combos = [()] if size == 1 else _combos(attachments, size - 1)
        ids = [intern_tree(lab, kids) for lab in labels for kids in combos]
        out.extend(ids)
        attachments.extend((size, e, t) for t in ids for e in edges)
        attachments.sort()
    return out
