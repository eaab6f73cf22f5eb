"""Finite-group machinery for groups of order <= 16.

Groups are built by closure from generators (matrices, permutations, or
any hashable elements with an associative product; `collector` gives the
product of a group stated by sign relations), stored as an element list
plus a full Cayley table.  Construction verifies the Latin square
property and associativity on whole table rows.  On top of the table
sit: order profiles, regular representations, one-sided closures through
generator rows, subgroup/center/quotient computations, direct products,
semidirect products of two subgroups of one group under conjugation,
short exact sequences with exhaustive splitting search, and isomorphism
search by backtracking over the images of `generators`.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter, deque
from functools import cache, cached_property
from typing import (Callable, Hashable, Iterable, NamedTuple, Optional,
                    Sequence)


class Permutation:
    """A bijection of {1..n}, displayed in cycle notation."""

    __slots__ = ("images", "_text")    # _text: cycle_string, once computed

    def __init__(self, images: Sequence[int]) -> None:
        # images[i] is the (0-based) image of point i
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a bijection: {imgs}")
        self.images = imgs

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, text: str, n: int) -> "Permutation":
        """Parse 1-based cycle notation like "(1 2 3)(4 5)", "()" for the
        identity; raises ValueError unless the whole text is parenthesized
        cycles of points in 1..n, each point listed once."""
        if not re.fullmatch(r"(\s*\([\d\s]*\))+\s*", text):
            raise ValueError(f"not a cycle listing: {text!r}")
        cycles = [[int(tok) - 1 for tok in cyc.split()]
                  for cyc in re.findall(r"\(([^()]*)\)", text)]
        pts = [p for cyc in cycles for p in cyc]
        if len(set(pts)) != len(pts) or any(not 0 <= p < n for p in pts):
            raise ValueError(f"point repeated or out of range in {text!r}")
        images = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition with the right factor applied first."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        p = object.__new__(Permutation)    # bijections compose to one
        p.images = tuple(map(self.images.__getitem__, other.images))
        return p

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles (1-based), each starting at its smallest
        point, ordered by smallest moved point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                continue
            cyc = []
            p = start
            while not seen[p]:
                seen[p] = True
                cyc.append(p + 1)
                p = self.images[p]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        try:
            return self._text
        except AttributeError:
            self._text = "".join("(" + " ".join(map(str, c)) + ")"
                                 for c in self.cycles()) or "()"
            return self._text

    def moves_every_point(self) -> bool:
        return all(self.images[i] != i for i in range(self.degree))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation<{self.cycle_string()}>"


class GroupError(Exception):
    pass


class ClosureCapExceeded(GroupError):
    pass


class FiniteGroup:
    """A finite group as an element list plus a verified Cayley table.  Its
    orders, order profile, inverses, generators and regular representation
    are computed once, on first use, and kept.  `letters` names elements by
    one character each, "1" the identity, for `word` to read."""

    def __init__(self, elements: Sequence[Hashable],
                 mul: Callable[[Hashable, Hashable], Hashable],
                 labels: Optional[Sequence[str]] = None) -> None:
        self.elements = list(elements)
        n = len(self.elements)
        index = {}
        for i, e in enumerate(self.elements):
            if e in index:
                raise GroupError("duplicate element")
            index[e] = i
        self.index = index
        try:
            self.table = [[index[mul(a, b)] for b in self.elements]
                          for a in self.elements]
        except KeyError as exc:
            raise GroupError(f"not closed under product: {exc}") from exc
        self._check_table()
        self.letters = {"1": self.identity}
        self.labels = list(labels) if labels is not None else [
            str(e) for e in self.elements]
        if len(self.labels) != n:
            raise GroupError("label count mismatch")

    def _check_table(self) -> None:
        """Latin rows, then columns, a two-sided identity, then each row
        ij as row j read through row i: t[t[i][j]][k] = t[i][t[j][k]]."""
        t, ids = self.table, list(range(self.order))
        if any(sorted(row) != ids for row in t):
            raise GroupError("Cayley table is not a Latin square (row)")
        if any(sorted(col) != ids for col in zip(*t)):
            raise GroupError("Cayley table is not a Latin square (col)")
        ident = [i for i in ids
                 if t[i] == ids and [row[i] for row in t] == ids]
        if len(ident) != 1:
            raise GroupError("no two-sided identity")
        self.identity = ident[0]
        for ti in t:
            if any(t[tij] != list(map(ti.__getitem__, tj))
                   for tij, tj in zip(ti, t)):
                raise GroupError("product is not associative")

    # -- basic queries -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _inverses(self) -> tuple[int, ...]:
        return tuple(row.index(self.identity) for row in self.table)

    @cached_property
    def _orders(self) -> tuple[int, ...]:
        orders = []
        for i in range(self.order):
            k, cur = 1, i
            while cur != self.identity:
                cur = self.table[cur][i]
                k += 1
            orders.append(k)
        return tuple(orders)

    @cached_property
    def _profile(self) -> Counter:
        return Counter(self._orders)

    def word(self, text: str) -> int:
        """The index of the product of a word's letters, left to right;
        raises KeyError on a character that is not one of `letters`."""
        idx = self.identity
        for ch in text:
            idx = self.table[idx][self.letters[ch]]
        return idx

    def inv(self, i: int) -> int:
        return self._inverses[i]

    def element_order(self, i: int) -> int:
        return self._orders[i]

    def order_profile(self) -> dict[int, int]:
        """The number of elements of each order, as a new dict."""
        return dict(self._profile)

    # -- structure ----------------------------------------------------------

    def closure_of(self, seed: Iterable[int]) -> frozenset[int]:
        """The subgroup the seed generates, closed on one side through the
        seed's rows: in a finite group, the monoid a set generates."""
        rows = [self.table[g] for g in set(seed)]
        found = frontier = {self.identity}
        while frontier:
            frontier = {row[x] for x in frontier for row in rows} - found
            found = found | frontier
        return frozenset(found)

    def is_subgroup(self, subset: frozenset[int]) -> bool:
        return (self.identity in subset
                and all(self.table[a][b] in subset
                        for a in subset for b in subset))

    def is_normal(self, subset: frozenset[int]) -> bool:
        return all(self.table[self.table[g][h]][self.inv(g)] in subset
                   for g in range(self.order) for h in subset)

    def center(self) -> frozenset[int]:
        return frozenset(i for i, row in enumerate(self.table)
                         if row == [r[i] for r in self.table])

    def quotient(self, normal: frozenset[int]) -> "FiniteGroup":
        """Quotient by a normal subgroup; elements are cosets."""
        if not self.is_subgroup(normal):
            raise GroupError("not a subgroup")
        if not self.is_normal(normal):
            raise GroupError("subgroup is not normal")
        # m lies in iN exactly when mN = iN
        assigned = {i: frozenset(row[h] for h in normal)
                    for i, row in enumerate(self.table)}
        cosets = list(dict.fromkeys(assigned.values()))

        def cmul(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
            return assigned[self.table[min(a)][min(b)]]

        labels = ["{" + ",".join(self.labels[m] for m in sorted(c)) + "}"
                  for c in cosets]
        return FiniteGroup(cosets, cmul, labels)

    def subgroup(self, subset: Iterable[int]) -> "FiniteGroup":
        """The members as a group in index order, keeping their letters."""
        members = sorted(set(subset))
        elems = [self.elements[i] for i in members]
        back = {e: i for e, i in zip(elems, members)}

        def smul(a, b):
            return self.elements[self.table[back[a]][back[b]]]

        sub = FiniteGroup(elems, smul, [self.labels[i] for i in members])
        pos = {i: k for k, i in enumerate(members)}
        sub.letters = {ch: pos[i] for ch, i in self.letters.items()
                       if i in pos}
        return sub

    @cached_property
    def _regular(self) -> tuple[Permutation, ...]:
        return tuple(map(Permutation, self.table))

    def regular_representation(self) -> list[Permutation]:
        """Left multiplication on the element list, as permutations of the
        element positions (a faithful embedding into S_n)."""
        return list(self._regular)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A smallest generating set, elements of higher order tried first:
        the first combination, by size, whose closure is the group.  A
        combination whose last member lies in the closure of the rest
        spans what a smaller one spanned, and every smaller one failed, so
        the breadth-first search extends only the others."""
        if self.order == 1:
            return ()
        candidates = sorted(range(self.order), key=lambda i: -self._orders[i])
        queue = deque([((), 0, frozenset({self.identity}))])
        while True:    # (combination, next candidate, closure)
            combo, start, span = queue.popleft()
            for k, g in enumerate(candidates[start:], start):
                if g not in span:
                    closed = self.closure_of(combo + (g,))
                    if len(closed) == self.order:
                        return combo + (g,)
                    queue.append((combo + (g,), k + 1, closed))


# the most elements `_closure` finds before giving up
CLOSURE_CAP = 256


def _closure(generators: Iterable[Hashable],
             mul: Callable[[Hashable, Hashable], Hashable],
             identity: Hashable) -> list[Hashable]:
    """Breadth-first closure of a generator set under the product, from the
    identity through each new product of a found element with a generator,
    on either side; raises ClosureCapExceeded past `CLOSURE_CAP` elements."""
    elements, seen, frontier = [identity], {identity}, [identity]
    gens = list(generators)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                for prod in (mul(a, g), mul(g, a)):
                    if prod not in seen:
                        seen.add(prod)
                        elements.append(prod)
                        nxt.append(prod)
                        if len(elements) > CLOSURE_CAP:
                            raise ClosureCapExceeded(
                                f"closure exceeded cap {CLOSURE_CAP}")
        frontier = nxt
    return elements


def generate_closure(generators: Sequence[Hashable],
                     mul: Callable[[Hashable, Hashable], Hashable],
                     identity: Hashable,
                     labeler: Optional[Callable[[Hashable], str]] = None
                     ) -> FiniteGroup:
    """The group generated by `generators`, its elements in the
    breadth-first order of `_closure`."""
    elements = _closure(generators, mul, identity)
    labels = [labeler(e) for e in elements] if labeler else None
    return FiniteGroup(elements, mul, labels)


def permutation_group(generators: dict[str, str],
                      degree: int) -> FiniteGroup:
    """The group generated by cycle listings, each keyed by the letter that
    names it in the group's `letters`."""
    gens = {ch: Permutation.from_cycles(s, degree)
            for ch, s in generators.items()}
    group = generate_closure(list(gens.values()), lambda a, b: a * b,
                             Permutation.identity(degree),
                             labeler=lambda p: p.cycle_string())
    group.letters.update((ch, group.index[g]) for ch, g in gens.items())
    return group


def collector(squares: Sequence[int], kappa: Sequence[int]
              ) -> Callable[[tuple, tuple], tuple]:
    """The product on normal forms (s, e_1, ..., e_n) = s·g_1^e_1···g_n^e_n,
    each e_k 0 or 1 and s = ±1 central, where g_k² is the k-th sign in
    `squares` and g_k·g_j = κ·g_j·g_k for j < k, with the signs κ listed in
    `kappa` in the pair order (1, 2), (1, 3), ..., (2, 3), ...  Collecting
    a·b moves each g_j of b left past the g_k of a with k > j, then merges
    equal generators."""
    pairs = list(zip(itertools.combinations(range(len(squares)), 2), kappa,
                     strict=True))

    def mul(a: tuple, b: tuple) -> tuple:
        s = a[0] * b[0]
        for k, sq in enumerate(squares, 1):
            s *= sq if a[k] and b[k] else 1
        for (j, k), sign in pairs:
            s *= sign if a[k + 1] and b[j + 1] else 1
        return (s, *(x ^ y for x, y in zip(a[1:], b[1:])))
    return mul


# -- named groups ----------------------------------------------------------------

# generators as printed, by the letters of the printed words: d, n, the
# rotation and reflection of the square; a, d, n of 16E; x, y of the
# dicyclic group; z, the Z2 factor of a direct product.  Each named group
# is built once per process and shared, so no caller may change it
DIHEDRAL_GENERATORS = dict(d="(1 2 3 4)", n="(2 4)")
SIXTEEN_E_GENERATORS = dict(a="(1 2 3 4)(5 6 7 8)", d="(1 6 3 8)(2 5 4 7)",
                            n="(1 7)(2 8)(3 5)(4 6)")
DICYCLIC_GENERATORS = dict(x="(1 2 3 4)(5 6 7 8)", y="(1 5 3 7)(2 8 4 6)")


@cache
def dihedral_8() -> FiniteGroup:
    """Symmetries of the square, as <(1234), (24)> in S_4."""
    return permutation_group(DIHEDRAL_GENERATORS, 4)


@cache
def dihedral_8_x_z2() -> FiniteGroup:
    """DH8 x Z2 as <(1234), (24), (56)> in S_6."""
    return permutation_group({**DIHEDRAL_GENERATORS, "z": "(5 6)"}, 6)


@cache
def sixteen_e() -> FiniteGroup:
    """The nontrivial split extension of DH8 by Z2, in S_8, with the
    central letter "-" = aa."""
    e16 = permutation_group(SIXTEEN_E_GENERATORS, 8)
    e16.letters["-"] = e16.word("aa")
    return e16


@cache
def dicyclic_8() -> FiniteGroup:
    """The dicyclic group of order 8, as <x, y> in S_8."""
    return permutation_group(DICYCLIC_GENERATORS, 8)


@cache
def dicyclic_8_x_z2() -> FiniteGroup:
    """DC8 x Z2 in S_10, with the Z2 factor generated by z = (9 10)."""
    return permutation_group({**DICYCLIC_GENERATORS, "z": "(9 10)"}, 10)


@cache
def quaternion_group() -> FiniteGroup:
    """The quaternion group on normal forms s·i^a·j^b, collected with
    i² = j² = -1 and ji = -ij, labeled by its units 1, i, j, k = ij."""
    return generate_closure(
        [(1, 1, 0), (1, 0, 1)], collector((-1, -1), (-1,)), (1, 0, 0),
        labeler=lambda e: ("-" if e[0] < 0 else "") + "1ijk"[e[1] + 2 * e[2]])


def cyclic(n: int) -> FiniteGroup:
    return FiniteGroup(list(range(n)), lambda a, b: (a + b) % n,
                       [str(k) for k in range(n)])


@cache
def klein_four() -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2))


@cache
def sign_group() -> FiniteGroup:
    """The multiplicative group {1, -1} (the 0-sphere)."""
    return FiniteGroup([1, -1], lambda a, b: a * b, ["1", "-1"])


@cache
def quaternion_x_sign() -> FiniteGroup:
    """Q x S0, the quaternion group times the sign group."""
    return direct_product(quaternion_group(), sign_group())


def semidirect_product(g: FiniteGroup, normal: Iterable[int],
                       section: Iterable[int]) -> FiniteGroup:
    """N x_Φ H for subgroups N and H of g, H acting on N by conjugation:
    the pairs (n, h) of g-indices, each list sorted, with (n, h)(n', h') =
    (n·h n' h⁻¹, h h') read off g's table.  If H does not normalize N, or
    N or H is not closed, a product leaves the pairs: GroupError."""
    t = g.table
    elems = [(n, h) for n in sorted(normal) for h in sorted(section)]

    def smul(x, y):
        h = x[1]
        return t[x[0]][t[t[h][y[0]]][g.inv(h)]], t[h][y[1]]

    return FiniteGroup(elems, smul, [f"({g.labels[n]},{g.labels[h]})"
                                     for n, h in elems])


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """The pairs (a, b) of g- and h-indices, multiplied entrywise."""
    elems = [(a, b) for a in range(g.order) for b in range(h.order)]
    return FiniteGroup(
        elems, lambda x, y: (g.table[x[0]][y[0]], h.table[x[1]][y[1]]),
        [f"({g.labels[a]},{h.labels[b]})" for a, b in elems])


# -- homomorphisms -----------------------------------------------------------------


class GroupMap(NamedTuple):
    source: FiniteGroup
    target: FiniteGroup
    images: list[int]

    def is_homomorphism(self) -> bool:
        """img(i j) = img(i) img(j) for all i, j, one source row i at a
        time; an image list of the wrong length is no homomorphism."""
        src, tgt, img = self.source, self.target, self.images
        if len(img) != src.order:
            return False
        return all(list(map(img.__getitem__, row))
                   == list(map(tgt.table[m].__getitem__, img))
                   for row, m in zip(src.table, img))

    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def is_isomorphism(self) -> bool:
        return (self.source.order == self.target.order
                and self.is_injective() and self.is_homomorphism())

    def inverse_map(self) -> "GroupMap":
        if not self.is_isomorphism():
            raise GroupError("not invertible")
        inv = [0] * self.target.order
        for i, m in enumerate(self.images):
            inv[m] = i
        return GroupMap(self.target, self.source, inv)

    def compose(self, other: "GroupMap") -> "GroupMap":
        """self after other."""
        return GroupMap(other.source, self.target,
                        [self.images[m] for m in other.images])


def extend_generator_images(g: FiniteGroup, h: FiniteGroup,
                            gens: Sequence[int],
                            images: Sequence[int]) -> Optional[list[int]]:
    """Extend generator images to a full map by word propagation, or None
    if the images are inconsistent or not bijective."""
    full: dict[int, int] = {g.identity: h.identity}
    for a, b in zip(gens, images):
        if full.get(a, b) != b:
            return None
        full[a] = b
    frontier = list(full)
    while frontier:
        nxt = []
        for x in frontier:
            for a, b in zip(gens, images):
                y = g.table[x][a]
                im = h.table[full[x]][b]
                if y in full:
                    if full[y] != im:
                        return None
                else:
                    full[y] = im
                    nxt.append(y)
        frontier = nxt
    if len(full) != g.order:
        return None  # gens do not generate g
    out = [full[i] for i in range(g.order)]
    if len(set(out)) != len(out):
        return None
    return out


def find_isomorphism(g: FiniteGroup, h: FiniteGroup) -> Optional[GroupMap]:
    """Backtracking isomorphism search over images of a generating set.

    Candidate images are pruned by element order; a returned map is fully
    verified.  None means the search space was exhausted (or a cheap
    isomorphism invariant already differs)."""
    if g.order != h.order:
        return None
    if g._profile != h._profile:
        return None
    gens = g.generators
    pools = [[b for b, ob in enumerate(h._orders) if ob == g._orders[a]]
             for a in gens]
    for choice in itertools.product(*pools):
        if len(set(choice)) != len(choice):
            continue
        full = extend_generator_images(g, h, gens, choice)
        if full is None:
            continue
        gm = GroupMap(g, h, list(full))
        if gm.is_isomorphism():
            return gm
    return None


# -- short exact sequences ----------------------------------------------------------


class ShortExactSequence(NamedTuple):
    kernel_group: FiniteGroup
    middle_group: FiniteGroup
    quotient_group: FiniteGroup
    inclusion: GroupMap
    projection: GroupMap

    def verify(self) -> bool:
        """Exactness: an injective inclusion and a surjective projection,
        both homomorphisms, the image of the one the kernel of the other."""
        inc, proj = self.inclusion, self.projection
        return (inc.is_homomorphism() and inc.is_injective()
                and proj.is_homomorphism()
                and len(set(proj.images)) == proj.target.order
                and set(inc.images) == {i for i, m in enumerate(proj.images)
                                        if m == proj.target.identity})

    def sections(self) -> list[GroupMap]:
        """All homomorphic sections of the projection (exhaustive)."""
        q, mid = self.quotient_group, self.middle_group
        fibers = [[m for m, qm in enumerate(self.projection.images)
                   if qm == qi] for qi in range(q.order)]
        out = []
        nonid = [qi for qi in range(q.order) if qi != q.identity]
        for picks in itertools.product(*(fibers[qi] for qi in nonid)):
            images = [0] * q.order
            images[q.identity] = mid.identity
            for qi, m in zip(nonid, picks):
                images[qi] = m
            gm = GroupMap(q, mid, images)
            if gm.is_homomorphism():
                out.append(gm)
        return out
