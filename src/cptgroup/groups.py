"""Finite-group machinery for groups of order <= 16.

Groups are built by closure from generators (matrices, permutations, or
any hashable elements with an associative product), stored as an element
list plus a full Cayley table.  Construction always verifies the Latin
square property and associativity by full scan, which is cheap at these
orders.  On top of the table sit: order profiles, regular representations,
subgroup/center/quotient computations, semidirect products, short exact
sequences with exhaustive splitting search, and isomorphism search by
backtracking over generator images.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence


class Permutation:
    """A bijection of {1..n}, displayed in cycle notation."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]) -> None:
        # images[i] is the (0-based) image of point i
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a bijection: {imgs}")
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, text: str, n: int) -> "Permutation":
        """Parse 1-based cycle notation like "(1 2 3)(4 5)"."""
        images = list(range(n))
        for cyc in re.findall(r"\(([^()]*)\)", text):
            pts = [int(tok) - 1 for tok in cyc.split()]
            if not pts:
                continue
            if any(not 0 <= p < n for p in pts):
                raise ValueError(f"point out of range in {text!r}")
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        """Image of a 1-based point."""
        return self.images[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition with the right factor applied first."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation([self.images[j] for j in other.images])

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
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

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
    """A finite group as an element list plus a verified Cayley table."""

    def __init__(self, elements: Sequence[Hashable],
                 mul: Callable[[Hashable, Hashable], Hashable],
                 labels: Optional[Sequence[str]] = None,
                 name: str = "") -> None:
        self.elements = list(elements)
        self.name = name
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
        self.labels = list(labels) if labels is not None else [
            str(e) for e in self.elements]
        if len(self.labels) != n:
            raise GroupError("label count mismatch")

    def _check_table(self) -> None:
        n = self.order
        rng = range(n)
        for row in self.table:
            if sorted(row) != list(rng):
                raise GroupError("Cayley table is not a Latin square (row)")
        for j in rng:
            if sorted(self.table[i][j] for i in rng) != list(rng):
                raise GroupError("Cayley table is not a Latin square (col)")
        ident = [i for i in rng
                 if all(self.table[i][j] == j and self.table[j][i] == j
                        for j in rng)]
        if len(ident) != 1:
            raise GroupError("no two-sided identity")
        self.identity = ident[0]
        t = self.table
        for i in rng:
            for j in rng:
                tij = t[i][j]
                for k in rng:
                    if t[tij][k] != t[i][t[j][k]]:
                        raise GroupError("product is not associative")

    # -- basic queries -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def inv(self, i: int) -> int:
        return self.table[i].index(self.identity)

    def element_order(self, i: int) -> int:
        k, cur = 1, i
        while cur != self.identity:
            cur = self.table[cur][i]
            k += 1
        return k

    def order_profile(self) -> dict[int, int]:
        profile: dict[int, int] = {}
        for i in range(self.order):
            o = self.element_order(i)
            profile[o] = profile.get(o, 0) + 1
        return profile

    # -- structure ----------------------------------------------------------

    def closure_of(self, seed: Iterable[int]) -> frozenset[int]:
        current = {self.identity, *seed}
        frontier = list(current)
        while frontier:
            nxt = []
            for a in list(current):
                for b in frontier:
                    for c in (self.table[a][b], self.table[b][a]):
                        if c not in current:
                            current.add(c)
                            nxt.append(c)
            frontier = nxt
        return frozenset(current)

    def subgroups(self) -> list[frozenset[int]]:
        """All subgroups, by closing single extensions of known subgroups."""
        found = {frozenset({self.identity})}
        frontier = list(found)
        while frontier:
            nxt = []
            for h in frontier:
                for g in range(self.order):
                    if g in h:
                        continue
                    closed = self.closure_of(h | {g})
                    if closed not in found:
                        found.add(closed)
                        nxt.append(closed)
            frontier = nxt
        return sorted(found, key=lambda h: (len(h), sorted(h)))

    def is_subgroup(self, subset: frozenset[int]) -> bool:
        return (self.identity in subset
                and all(self.table[a][b] in subset
                        for a in subset for b in subset))

    def is_normal(self, subset: frozenset[int]) -> bool:
        return all(self.table[self.table[g][h]][self.inv(g)] in subset
                   for g in range(self.order) for h in subset)

    def center(self) -> frozenset[int]:
        return frozenset(
            i for i in range(self.order)
            if all(self.table[i][j] == self.table[j][i]
                   for j in range(self.order)))

    def quotient(self, normal: frozenset[int]) -> "FiniteGroup":
        """Quotient by a normal subgroup; elements are cosets."""
        if not self.is_subgroup(normal):
            raise GroupError("not a subgroup")
        if not self.is_normal(normal):
            raise GroupError("subgroup is not normal")
        cosets: list[frozenset[int]] = []
        assigned: dict[int, frozenset[int]] = {}
        for i in range(self.order):
            if i in assigned:
                continue
            coset = frozenset(self.table[i][h] for h in normal)
            for m in coset:
                assigned[m] = coset
            cosets.append(coset)

        def cmul(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
            return assigned[self.table[min(a)][min(b)]]

        labels = ["{" + ",".join(self.labels[m] for m in sorted(c)) + "}"
                  for c in cosets]
        return FiniteGroup(cosets, cmul, labels,
                           name=f"{self.name}/N" if self.name else "")

    def subgroup(self, subset: Iterable[int], name: str = "") -> "FiniteGroup":
        members = sorted(set(subset))
        elems = [self.elements[i] for i in members]
        back = {e: i for e, i in zip(elems, members)}

        def smul(a, b):
            return self.elements[self.table[back[a]][back[b]]]

        return FiniteGroup(elems, smul, [self.labels[i] for i in members],
                           name=name)

    def regular_representation(self) -> list[Permutation]:
        """Left multiplication on the element list, as permutations of the
        element positions (a faithful embedding into S_n)."""
        return [Permutation(self.table[g]) for g in range(self.order)]


# the largest group `generate_closure` builds before giving up
CLOSURE_CAP = 256


def generate_closure(generators: Sequence[Hashable],
                     mul: Callable[[Hashable, Hashable], Hashable],
                     identity: Hashable,
                     labeler: Optional[Callable[[Hashable], str]] = None,
                     name: str = "") -> FiniteGroup:
    """Breadth-first closure of a generator set under the product; raises
    ClosureCapExceeded past `CLOSURE_CAP` elements."""
    elements = [identity]
    seen = {identity}
    gens = list(generators)
    for g in gens:
        if g not in seen:
            elements.append(g)
            seen.add(g)
    frontier = list(elements)
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
    labels = [labeler(e) for e in elements] if labeler else None
    return FiniteGroup(elements, mul, labels, name=name)


def permutation_group(cycle_strings: Sequence[str], degree: int,
                      name: str = "") -> FiniteGroup:
    gens = [Permutation.from_cycles(s, degree) for s in cycle_strings]
    return generate_closure(gens, lambda a, b: a * b,
                            Permutation.identity(degree),
                            labeler=lambda p: p.cycle_string(), name=name)


# -- named groups ----------------------------------------------------------------

# generators as printed: the rotation and reflection of the square; a, d,
# n of 16E; x, y of the dicyclic group
DIHEDRAL_GENERATORS = ("(1 2 3 4)", "(2 4)")
SIXTEEN_E_GENERATORS = ("(1 2 3 4)(5 6 7 8)", "(1 6 3 8)(2 5 4 7)",
                        "(1 7)(2 8)(3 5)(4 6)")
DICYCLIC_GENERATORS = ("(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)")


def dihedral_8() -> FiniteGroup:
    """Symmetries of the square, as <(1234), (24)> in S_4."""
    return permutation_group(DIHEDRAL_GENERATORS, 4, name="DH8")


def dihedral_8_x_z2() -> FiniteGroup:
    """DH8 x Z2 as <(1234), (24), (56)> in S_6."""
    return permutation_group([*DIHEDRAL_GENERATORS, "(5 6)"], 6,
                             name="DH8xZ2")


def sixteen_e() -> FiniteGroup:
    """The nontrivial split extension of DH8 by Z2, in S_8."""
    return permutation_group(SIXTEEN_E_GENERATORS, 8, name="16E")


def dicyclic_8() -> FiniteGroup:
    """The dicyclic group of order 8, as <x, y> in S_8."""
    return permutation_group(DICYCLIC_GENERATORS, 8, name="DC8")


def dicyclic_8_x_z2() -> FiniteGroup:
    """DC8 x Z2 in S_10, with the Z2 factor generated by (9 10)."""
    return permutation_group([*DICYCLIC_GENERATORS, "(9 10)"], 10,
                             name="DC8xZ2")


_QUATERNION_TABLE = {
    # products of the three imaginary units, row unit times column unit
    ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def _quat_mul(a: tuple[int, str], b: tuple[int, str]) -> tuple[int, str]:
    sa, ua = a
    sb, ub = b
    if ua == "1":
        return (sa * sb, ub)
    if ub == "1":
        return (sa * sb, ua)
    sg, u = _QUATERNION_TABLE[(ua, ub)]
    return (sa * sb * sg, u)


def quaternion_group() -> FiniteGroup:
    """The quaternion group built from the imaginary-unit table."""
    def label(e):
        s, u = e
        return ("" if s > 0 else "-") + u

    return generate_closure([(1, "i"), (1, "j")], _quat_mul, (1, "1"),
                            labeler=label, name="Q")


def cyclic(n: int) -> FiniteGroup:
    return FiniteGroup(list(range(n)), lambda a, b: (a + b) % n,
                       [str(k) for k in range(n)], name=f"Z{n}")


def klein_four() -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2), name="V")


def sign_group() -> FiniteGroup:
    """The multiplicative group {1, -1} (the 0-sphere)."""
    return FiniteGroup([1, -1], lambda a, b: a * b, ["1", "-1"], name="S0")


def semidirect_product(n: FiniteGroup, h: FiniteGroup,
                       action: Sequence[Sequence[int]],
                       name: str = "") -> FiniteGroup:
    """Pairs (a, b) with (a', b')(a, b) = (a' * action[b'](a), b' * b).

    `action[b]` is the permutation of N's element indices giving the
    automorphism attached to the H element b; the map b -> action[b] must
    be a homomorphism into Aut(N), which is verified here.
    """
    for b in range(h.order):
        phi = action[b]
        if sorted(phi) != list(range(n.order)):
            raise GroupError("action value is not a bijection of N")
        for x in range(n.order):
            for y in range(n.order):
                if phi[n.table[x][y]] != n.table[phi[x]][phi[y]]:
                    raise GroupError("action value is not an automorphism")
    for b1 in range(h.order):
        for b2 in range(h.order):
            composed = [action[b1][action[b2][x]] for x in range(n.order)]
            if composed != list(action[h.table[b1][b2]]):
                raise GroupError("action is not a homomorphism into Aut(N)")

    elems = [(a, b) for a in range(n.order) for b in range(h.order)]

    def smul(x, y):
        return (n.table[x[0]][action[x[1]][y[0]]], h.table[x[1]][y[1]])

    labels = [f"({n.labels[a]},{h.labels[b]})" for a, b in elems]
    return FiniteGroup(elems, smul, labels,
                       name=name or f"{n.name}:{h.name}")


def direct_product(g: FiniteGroup, h: FiniteGroup,
                   name: str = "") -> FiniteGroup:
    """The semidirect product of g and h under the trivial action."""
    return semidirect_product(g, h, [range(g.order)] * h.order,
                              name=name or f"{g.name}x{h.name}")


def conjugation_action(g: FiniteGroup, normal: Sequence[int],
                       section: Sequence[int]) -> list[list[int]]:
    """Action of a transversal on a normal subgroup by conjugation.

    `normal` lists the subgroup's element indices in G (in the order the
    standalone subgroup object will use); `section` lists one G element
    per acting element.  Returns index permutations of `normal`.
    """
    pos = {m: k for k, m in enumerate(normal)}
    out = []
    for s in section:
        sinv = g.inv(s)
        out.append([pos[g.table[g.table[s][m]][sinv]] for m in normal])
    return out


# -- homomorphisms -----------------------------------------------------------------


@dataclass
class GroupMap:
    source: FiniteGroup
    target: FiniteGroup
    images: list[int]

    def is_homomorphism(self) -> bool:
        src, tgt, img = self.source, self.target, self.images
        return all(img[src.table[i][j]] == tgt.table[img[i]][img[j]]
                   for i in range(src.order) for j in range(src.order))

    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.order

    def is_isomorphism(self) -> bool:
        return (self.source.order == self.target.order
                and self.is_injective() and self.is_homomorphism())

    def kernel(self) -> frozenset[int]:
        return frozenset(i for i, m in enumerate(self.images)
                         if m == self.target.identity)

    def image(self) -> frozenset[int]:
        return frozenset(self.images)

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


def minimal_generating_set(g: FiniteGroup, max_size: int = 3) -> list[int]:
    candidates = sorted(range(g.order),
                        key=lambda i: -g.element_order(i))
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(candidates, size):
            if len(g.closure_of(combo)) == g.order:
                return list(combo)
    raise GroupError(f"no generating set of size <= {max_size}")


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
    if g.order_profile() != h.order_profile():
        return None
    gens = minimal_generating_set(g)
    pools = []
    for a in gens:
        oa = g.element_order(a)
        pools.append([b for b in range(h.order) if h.element_order(b) == oa])
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


@dataclass
class ShortExactSequence:
    kernel_group: FiniteGroup
    middle_group: FiniteGroup
    quotient_group: FiniteGroup
    inclusion: GroupMap
    projection: GroupMap

    def verify(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        out = []
        if not self.inclusion.is_homomorphism():
            out.append("inclusion is not a homomorphism")
        if not self.inclusion.is_injective():
            out.append("inclusion is not injective")
        if not self.projection.is_homomorphism():
            out.append("projection is not a homomorphism")
        if not self.projection.is_surjective():
            out.append("projection is not surjective")
        if self.inclusion.image() != self.projection.kernel():
            out.append("image of inclusion differs from kernel of projection")
        return out

    def sections(self) -> list[GroupMap]:
        """All homomorphic sections of the projection (exhaustive)."""
        q, mid = self.quotient_group, self.middle_group
        fibers = []
        for qi in range(q.order):
            fibers.append([m for m in range(mid.order)
                           if self.projection.images[m] == qi])
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
