"""Finite groups as validated Cayley tables, plus endomorphism search.

Everything downstream consumes a ``GroupTable``: a square table of indices
with a verified identity, verified inverses and verified associativity.  The
catalog covers the cyclic groups through order 8 and the three named
non-abelian staples.
"""
from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BoundExceeded, InvalidAction, InvalidGroupTable, UnknownGroup, _echo


class GroupTable:
    """A finite group: ``table[i][j]`` is the index of the product ``g_i g_j``."""

    __slots__ = ("order", "table", "names", "identity", "inverse")

    def __init__(self, table: Sequence[Sequence[int]],
                 names: Optional[Sequence[str]] = None):
        n = len(table)
        rows = tuple(tuple(r) for r in table)
        for r in rows:
            if len(r) != n or any(not (0 <= v < n) for v in r):
                raise InvalidGroupTable("table is not square over 0..n-1")
        ident = None
        for e in range(n):
            if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise InvalidGroupTable("no identity element")
        inverse = [None] * n
        for x in range(n):
            for y in range(n):
                if rows[x][y] == ident and rows[y][x] == ident:
                    inverse[x] = y
                    break
            if inverse[x] is None:
                raise InvalidGroupTable(f"element {x} has no inverse")
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if rows[rows[x][y]][z] != rows[x][rows[y][z]]:
                        raise InvalidGroupTable(
                            f"associativity fails at ({x},{y},{z})")
        self.order = n
        self.table = rows
        self.identity = ident
        self.inverse = tuple(inverse)
        self.names = tuple(names) if names is not None else tuple(
            f"g{i}" for i in range(n))
        if len(self.names) != n:
            raise InvalidGroupTable("names do not match the order")

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def __repr__(self):
        return f"GroupTable(order={self.order})"


def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise InvalidGroupTable("cyclic groups need order >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return GroupTable(table, [f"r{i}" for i in range(n)])


def symmetric3() -> GroupTable:
    """Permutations of {0,1,2} in lexicographic order; composition applies
    the right factor first."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(3))] for q in perms]
             for p in perms]
    names = ["".join(str(v) for v in p) for p in perms]
    return GroupTable(table, names)


def dihedral4() -> GroupTable:
    """Order 8: rotations ``r^i`` then reflections ``s r^i``."""
    def mul(a, b):
        j1, i1 = divmod(a, 4)
        j2, i2 = divmod(b, 4)
        # (s^j1 r^i1)(s^j2 r^i2) = s^(j1+j2) r^(i1*(-1)^j2 + i2)
        return ((j1 + j2) % 2) * 4 + ((i1 * (-1) ** j2 + i2) % 4)
    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    names = ["e", "r", "r2", "r3", "s", "sr", "sr2", "sr3"]
    return GroupTable(table, names)


def quaternion8() -> GroupTable:
    """Unit quaternions; products computed from the Hamilton rules."""
    units = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
             (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]
    index = {u: k for k, u in enumerate(units)}

    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    table = [[index[hamilton(p, q)] for q in units] for p in units]
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return GroupTable(table, names)


def semidirect_group(normal: GroupTable, acting: GroupTable,
                     action: Dict[int, Sequence[int]]) -> GroupTable:
    """``normal x| acting`` for a homomorphism from ``acting`` into the
    automorphisms of ``normal`` given as index permutations.

    Element ``(x, y)`` sits at index ``x * acting.order + y``; the product is
    ``(x1 . act[y1](x2), y1 y2)``.
    """
    na, nh = normal.order, acting.order
    perms = {}
    for y in range(nh):
        if y not in action:
            raise InvalidAction(f"no automorphism supplied for element {y}")
        p = tuple(action[y])
        if sorted(p) != list(range(na)):
            raise InvalidAction(f"action of {y} is not a permutation")
        for u in range(na):
            for v in range(na):
                if p[normal.table[u][v]] != normal.table[p[u]][p[v]]:
                    raise InvalidAction(f"action of {y} is not an automorphism")
        perms[y] = p
    for y1 in range(nh):
        for y2 in range(nh):
            comp = tuple(perms[y1][perms[y2][u]] for u in range(na))
            if comp != perms[acting.table[y1][y2]]:
                raise InvalidAction("action is not a homomorphism")
    if perms[acting.identity] != tuple(range(na)):
        raise InvalidAction("identity must act trivially")

    def mul(a, b):
        x1, y1 = divmod(a, nh)
        x2, y2 = divmod(b, nh)
        return normal.table[x1][perms[y1][x2]] * nh + acting.table[y1][y2]

    n = na * nh
    table = [[mul(a, b) for b in range(n)] for a in range(n)]
    names = [f"({normal.names[a // nh]},{acting.names[a % nh]})"
             for a in range(n)]
    return GroupTable(table, names)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _catalog() -> Dict[str, GroupTable]:
    groups = {f"C{n}": cyclic(n) for n in range(1, 9)}
    groups["S3"] = symmetric3()
    groups["D4"] = dihedral4()
    groups["Q8"] = quaternion8()
    return groups


GROUPS: Dict[str, GroupTable] = _catalog()


def group_by_name(name: str) -> GroupTable:
    try:
        return GROUPS[name]
    except KeyError:
        known = ", ".join(sorted(GROUPS))
        raise UnknownGroup(f"unknown group {_echo(name)} (catalog: {known})") from None


# ---------------------------------------------------------------------------
# idempotent endomorphism search
# ---------------------------------------------------------------------------


def _generating_set(g: GroupTable) -> List[int]:
    gens: List[int] = []
    seen = {g.identity}
    for x in range(g.order):
        if x not in seen:
            gens.append(x)
            frontier = list(seen)
            while frontier:
                a = frontier.pop()
                for s in gens:
                    for b in (g.table[a][s], g.table[s][a]):
                        if b not in seen:
                            seen.add(b)
                            frontier.append(b)
    return gens


def _bfs_words(g: GroupTable, gens: Sequence[int]) -> List[Tuple[int, int, int]]:
    """(element, parent, generator-slot) triples with element = parent * gen,
    in an order where parents always precede children."""
    reached = {g.identity}
    out = []
    frontier = [g.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for k, s in enumerate(gens):
                b = g.table[a][s]
                if b not in reached:
                    reached.add(b)
                    out.append((b, a, k))
                    nxt.append(b)
        frontier = nxt
    if len(reached) != g.order:
        raise InvalidGroupTable("generators do not generate")  # unreachable
    return out


def idempotent_endos(g: GroupTable, bound: int = 24) -> List[Tuple[int, ...]]:
    """All maps with ``f(xy) = f(x)f(y)`` and ``f . f = f``, as image tuples.

    Candidates are generated from images of a generating set and closed by
    words, then verified on every pair, so the enumeration is exhaustive
    without ranging over all ``n^n`` maps.
    """
    n = g.order
    if n > bound:
        raise BoundExceeded(
            f"group order {n} exceeds the search bound {bound}")
    gens = _generating_set(g)
    words = _bfs_words(g, gens)
    table = g.table
    found = set()
    for imgs in itertools.product(range(n), repeat=len(gens)):
        f = [None] * n
        f[g.identity] = g.identity
        for elem, parent, k in words:
            f[elem] = table[f[parent]][imgs[k]]
        if any(f[f[x]] != f[x] for x in range(n)):
            continue
        good = True
        for x in range(n):
            fx = f[x]
            row = table[x]
            for y in range(n):
                if f[row[y]] != table[fx][f[y]]:
                    good = False
                    break
            if not good:
                break
        if good:
            found.add(tuple(f))
    return sorted(found)
