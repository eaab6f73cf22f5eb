"""Printed reference data transcribed verbatim from the source text.

Everything here is input *data*, kept separate from the code that
recomputes it: multiplication tables, cycle listings, isomorphism
listings, short-exact-sequence sections, and the printed matrix forms of
the discrete symmetries in the Weyl and Majorana representations.  The
verification pipeline compares each item against an independent
computation; transcriptions are never corrected here, even where the
source contains typos (the verifier reports those as mismatches).

Claim identifiers ("table-43", "cycles-45", ...) are opaque anchors
into the source text, used in reports and in the acceptance suite.
"""

from __future__ import annotations

from .matrices import Mat4
from .scalars import Scalar

# 7x7 basic multiplication table of the first matrix group
# (rows and columns C, P, T, CP, CT, PT, θ; entry = row · column)
TABLE_43 = [
    ["1", "CP", "CT", "P", "T", "θ", "PT"],
    ["-CP", "-1", "PT", "C", "-θ", "-T", "CT"],
    ["CT", "PT", "1", "θ", "C", "P", "CP"],
    ["-P", "-C", "θ", "1", "-PT", "-CT", "T"],
    ["T", "θ", "C", "PT", "1", "CP", "P"],
    ["-θ", "-T", "P", "CT", "-CP", "-1", "C"],
    ["-PT", "-CT", "CP", "T", "-P", "-C", "1"],
]

# 7x7 basic multiplication table of the second matrix group
TABLE_44 = [
    ["-1", "CP", "CT", "-P", "-T", "θ", "-PT"],
    ["-CP", "-1", "PT", "C", "-θ", "-T", "CT"],
    ["CT", "PT", "-1", "θ", "-C", "-P", "-CP"],
    ["P", "-C", "θ", "-1", "PT", "-CT", "-T"],
    ["-T", "θ", "-C", "-PT", "1", "-CP", "P"],
    ["-θ", "-T", "-P", "CT", "CP", "1", "-C"],
    ["PT", "-CT", "-CP", "-T", "-P", "C", "1"],
]

# the relations (67)-(68) of the operator group, each a pair of equal
# words in C, P, T and "-" = -1 ("1" is the empty word)
RELATIONS_67_68 = [
    ("PP", "-"), ("CC", "1"), ("TT", "-"), ("TP", "-PT"), ("CP", "PC"),
    ("CT", "TC"), ("--", "1"), ("-C", "C-"), ("-P", "P-"), ("-T", "T-"),
]

# 7x7 basic multiplication table of the operator group
TABLE_71 = [
    ["1", "C*P", "C*T", "P", "T", "Θ", "P*T"],
    ["C*P", "-1", "P*T", "-C", "Θ", "-T", "-C*T"],
    ["C*T", "-P*T", "-1", "-Θ", "-C", "P", "C*P"],
    ["P", "-C", "Θ", "-1", "P*T", "-C*T", "-T"],
    ["T", "-Θ", "-C", "-P*T", "-1", "C*P", "P"],
    ["Θ", "T", "-P", "C*T", "-C*P", "-1", "-C"],
    ["P*T", "C*T", "-C*P", "T", "-P", "-C", "-1"],
]

# regular-representation cycle listings under the standard labeling
# (element 1..16 = 1, C, P, T, CP, CT, PT, θ, -C, -P, -T, -CP, -CT,
# -PT, -θ, -1); identity row written as "()"
CYCLES_45 = {
    "1": "()",
    "C": "(1 2)(3 5)(4 6)(7 8)(9 16)(10 12)(11 13)(14 15)",
    "P": "(1 3 16 10)(2 12 9 5)(4 7 11 14)(6 15 13 8)",
    "T": "(1 4)(2 6)(3 7)(5 8)(9 13)(10 14)(11 16)(12 15)",
    "CP": "(1 5)(2 10)(3 9)(4 8)(6 14)(7 13)(11 15)(12 16)",
    "CT": "(1 6)(2 4)(3 8)(5 7)(9 11)(10 15)(12 14)(13 16)",
    "PT": "(1 7 16 14)(2 15 9 8)(3 11 10 4)(5 6 12 13)",
    "θ": "(1 8)(2 14)(3 13)(4 5)(6 10)(7 9)(11 12)(15 16)",
    "-C": "(1 9)(2 16)(3 12)(4 13)(5 10)(6 11)(7 15)(8 14)",
    "-P": "(1 10 16 3)(2 5 9 12)(6 8 13 15)(4 14 11 7)",
    "-T": "(1 11)(2 13)(3 14)(4 16)(5 15)(6 9)(7 10)(8 12)",
    "-CP": "(1 12)(2 3)(4 15)(5 16)(6 7)(8 11)(9 10)(13 14)",
    "-CT": "(1 13)(2 11)(3 15)(4 9)(5 14)(6 16)(7 12)(8 10)",
    "-PT": "(1 14 16 7)(2 8 9 15)(3 4 10 11)(12 6 5 13)",
    "-θ": "(1 15)(2 7)(3 6)(4 12)(5 11)(8 16)(9 14)(10 13)",
    "-1": "(1 16)(2 9)(3 10)(4 11)(5 12)(6 13)(7 14)(8 15)",
}

CYCLES_46 = {
    "1": "()",
    "C": "(1 2 16 9)(3 5 10 12)(6 11 13 4)(7 8 14 15)",
    "P": "(1 3 16 10)(2 12 9 5)(4 7 11 14)(6 15 13 8)",
    "T": "(1 4 16 11)(2 6 9 13)(5 8 12 15)(3 7 10 14)",
    "CP": "(1 5 16 12)(2 3 9 10)(4 8 11 15)(6 7 13 14)",
    "CT": "(1 6)(2 11)(3 8)(4 9)(5 14)(7 12)(10 15)(13 16)",
    # the PT row is printed with its cycles out of canonical order
    "PT": "(1 7)(16 14)(2 15)(3 11)(4 10)(8 9)(12 13)(5 6)",
    "θ": "(1 8)(2 7)(3 13)(4 12)(5 11)(6 10)(9 14)(15 16)",
    "-C": "(1 9 16 2)(3 12 10 5)(4 13 11 6)(7 15 14 8)",
    "-P": "(1 10 16 3)(2 5 9 12)(4 14 11 7)(6 8 13 15)",
    "-T": "(1 11 16 4)(2 13 9 6)(5 15 12 8)(7 3 14 10)",
    "-CP": "(1 12 16 5)(2 10 9 3)(4 15 11 8)(6 14 13 7)",
    "-CT": "(1 13)(2 4)(3 15)(5 7)(6 16)(8 10)(9 11)(12 14)",
    "-PT": "(1 14)(2 8)(3 4)(5 13)(6 12)(7 16)(9 15)(10 11)",
    "-θ": "(1 15)(2 14)(3 6)(4 5)(7 9)(8 16)(10 13)(11 12)",
    "-1": "(1 16)(2 9)(3 10)(4 11)(5 12)(6 13)(7 14)(8 15)",
}

# printed element lists with their orders (first matrix group:
# eleven of order 2, four of order 4; second: seven and eight)
ORDER2_G1 = ["-1", "C", "-C", "T", "-T", "CP", "-CP", "CT", "-CT",
             "θ", "-θ"]
ORDER4_G1 = ["P", "-P", "PT", "-PT"]
ORDER2_G2 = ["-1", "CT", "-CT", "PT", "-PT", "θ", "-θ"]
ORDER4_G2 = ["C", "-C", "P", "-P", "T", "-T", "CP", "-CP"]
ORDER2_GT = ["C", "-C", "-1"]
ORDER4_GT = ["P", "-P", "T", "-T", "C*P", "-C*P", "C*T", "-C*T",
             "P*T", "-P*T", "Θ", "-Θ"]

# printed element list of the dihedral group as a subgroup of S4
DH8_ELEMENTS = ["()", "(1 2 3 4)", "(1 3)(2 4)", "(1 4 3 2)", "(2 4)",
                "(1 2)(3 4)", "(1 3)", "(1 4)(2 3)"]

# the isomorphism from the first matrix group onto DH8 x Z2 in S6
ISO_53 = {
    "1": "()",
    "C": "(2 4)",
    "P": "(1 2 3 4)",
    "T": "(5 6)",
    "CP": "(1 4)(2 3)",
    "CT": "(2 4)(5 6)",
    "PT": "(1 2 3 4)(5 6)",
    "θ": "(1 4)(2 3)(5 6)",
    "-1": "(1 3)(2 4)",
    "-C": "(1 3)",
    "-P": "(1 4 3 2)",
    "-T": "(1 3)(2 4)(5 6)",
    "-CP": "(1 2)(3 4)",
    "-CT": "(1 3)(5 6)",
    "-PT": "(1 4 3 2)(5 6)",
    "-θ": "(1 2)(3 4)(5 6)",
}

# the isomorphism from the second matrix group onto 16E in S8,
# printed per element as: a word in the generators a, d, n; optional
# printed rewritings of that word (sign, word); and the printed cycles
# (None where the listing prints no explicit cycles).
# Transcribed verbatim, including the "-C" row's annotation "a3 = -an",
# which conflicts with the "-T" row ("a3n = -an") and is a typo in the
# source; the verifier reports it rather than repairing it.
ISO_55 = [
    ("1", "1", [], None),
    ("C", "a", [], None),
    ("P", "d", [], None),
    ("T", "an", [(1, "na")], "(1 8 3 6)(2 5 4 7)"),
    ("CP", "ad", [], "(1 7 3 5)(2 6 4 8)"),
    ("CT", "aan", [(-1, "n")], "(1 5)(2 6)(3 7)(4 8)"),
    ("PT", "and", [(-1, "adn")], "(2 4)(5 7)"),
    ("θ", "dn", [], "(1 2)(3 4)(5 8)(6 7)"),
    ("-1", "-1", [], "(1 3)(2 4)(5 7)(6 8)"),
    ("-C", "aaa", [(-1, "an")], "(1 4 3 2)(5 8 7 6)"),
    ("-P", "ddd", [(-1, "d")], "(1 8 3 6)(2 7 4 5)"),
    ("-T", "aaan", [(-1, "an")], "(1 6 3 8)(2 7 4 5)"),
    ("-CP", "da", [(-1, "ad")], "(1 5 3 7)(2 8 4 6)"),
    ("-CT", "n", [], None),
    ("-PT", "adn", [], "(1 3)(6 8)"),
    ("-θ", "nd", [(-1, "dn")], "(1 4)(2 3)(5 6)(7 8)"),
]

# sections of the split short exact sequences, as printed
SES_56_SECTIONS = ["adn", "and"]   # both printed as valid choices
SES_61_SECTIONS = ["n", "dn"]

# the isomorphism from the semidirect product DH8 x_Φ γ2(Z2) onto 16E:
# (subgroup word, section word) -> word in 16E
ISO_59 = [
    (("1", "1"), "1"),
    (("1", "adn"), "adn"),
    (("n", "1"), "n"),
    (("n", "adn"), "da"),
    (("-1", "1"), "-1"),
    (("-1", "adn"), "-adn"),
    (("-n", "1"), "-n"),
    (("-n", "adn"), "-da"),
    (("d", "1"), "d"),
    (("d", "adn"), "an"),
    (("dn", "1"), "dn"),
    (("dn", "adn"), "-a"),
    (("-d", "1"), "-d"),
    (("-d", "adn"), "-an"),
    (("-dn", "1"), "-dn"),
    (("-dn", "adn"), "a"),
]

# the composed isomorphism from the second matrix group onto the
# semidirect product: element label -> (subgroup word, section word)
ISO_60 = {
    "1": ("1", "1"),
    "C": ("-dn", "adn"),
    "P": ("d", "1"),
    "T": ("d", "adn"),
    "CP": ("-n", "adn"),
    "CT": ("-n", "1"),
    "PT": ("-1", "adn"),
    "θ": ("dn", "1"),
    "-1": ("-1", "1"),
    "-C": ("dn", "adn"),
    "-P": ("-d", "1"),
    "-T": ("-d", "adn"),
    "-CP": ("n", "adn"),
    "-CT": ("n", "1"),
    "-PT": ("1", "adn"),
    "-θ": ("-dn", "1"),
}

# the isomorphism from Z4 x_Φ γ(Z2) onto the dihedral subgroup <d,n>
ISO_63 = [
    (("1", "1"), "1"),
    (("1", "n"), "n"),
    (("-1", "1"), "-1"),
    (("-1", "n"), "-n"),
    (("d", "1"), "d"),
    (("d", "n"), "dn"),
    (("-d", "1"), "-d"),
    (("-d", "n"), "-dn"),
]

# the chain of isomorphic images of the operator group: element label
# -> (dicyclic word over x/y/z, signed quaternion pair, cycles in S10,
# cycles in S16).  Quaternion pair: (sign, unit, sign-factor).
CHAIN_73 = [
    ("1", "", (1, "1", 1), "()", "()"),
    ("C", "z", (1, "1", -1), "(9 10)",
     "(1 2)(3 5)(4 6)(7 8)(9 16)(10 12)(11 13)(14 15)"),
    ("P", "x", (1, "i", 1), "(1 2 3 4)(5 6 7 8)",
     "(1 3 16 10)(2 5 9 12)(4 7 11 14)(6 8 13 15)"),
    ("T", "y", (1, "j", 1), "(1 5 3 7)(2 8 4 6)",
     "(1 4 16 11)(2 6 9 13)(3 14 10 7)(5 15 12 8)"),
    ("C*P", "xz", (1, "i", -1), "(1 2 3 4)(5 6 7 8)(9 10)",
     "(1 5 16 12)(2 3 9 10)(4 8 11 15)(6 7 13 14)"),
    ("C*T", "yz", (1, "j", -1), "(1 5 3 7)(2 8 4 6)(9 10)",
     "(1 6 16 13)(2 4 9 11)(3 15 10 8)(5 14 12 7)"),
    ("P*T", "xy", (1, "k", 1), "(1 6 3 8)(2 5 4 7)",
     "(1 7 16 14)(2 8 9 15)(3 4 10 11)(5 6 12 13)"),
    ("Θ", "xyz", (1, "k", -1), "(1 6 3 8)(2 5 4 7)(9 10)",
     "(1 8 16 15)(2 7 9 14)(3 6 10 13)(4 12 11 5)"),
    ("-C", "xxz", (-1, "1", -1), "(1 3)(2 4)(5 7)(6 8)(9 10)",
     "(1 9)(2 16)(3 12)(4 13)(5 10)(6 11)(7 15)(8 14)"),
    ("-P", "xxx", (-1, "i", 1), "(1 4 3 2)(5 8 7 6)",
     "(1 10 16 3)(2 12 9 5)(4 14 11 7)(6 15 13 8)"),
    ("-T", "xxy", (-1, "j", 1), "(1 7 3 5)(2 6 4 8)",
     "(1 11 16 4)(2 13 9 6)(5 8 12 15)(10 14 3 7)"),
    ("-C*P", "xxxz", (-1, "i", -1), "(1 4 3 2)(5 8 7 6)(9 10)",
     "(1 12 16 5)(2 10 9 3)(4 15 11 8)(6 14 13 7)"),
    ("-C*T", "xxyz", (-1, "j", -1), "(1 7 3 5)(2 6 4 8)(9 10)",
     "(1 13 16 6)(2 11 9 4)(5 7 12 14)(8 10 15 3)"),
    ("-P*T", "xxxy", (-1, "k", 1), "(1 8 3 6)(2 7 4 5)",
     "(1 14 16 7)(2 15 9 8)(3 11 10 4)(5 13 12 6)"),
    ("-Θ", "xxxyz", (-1, "k", -1), "(1 8 3 6)(2 7 4 5)(9 10)",
     "(1 15 16 8)(2 14 9 7)(3 13 10 6)(4 5 11 12)"),
    ("-1", "xx", (-1, "1", 1), "(1 3)(2 4)(5 7)(6 8)",
     "(1 16)(2 9)(3 10)(4 11)(5 12)(6 13)(7 14)(8 15)"),
]


def _mat(rows) -> Mat4:
    """Build a Mat4 from short entry tokens like "0", "-1", "i"."""
    lookup = {"0": Scalar(0), "1": Scalar(1), "-1": Scalar(-1),
              "i": Scalar(0, 1), "-i": Scalar(0, -1)}
    return Mat4([[lookup[tok] for tok in row] for row in rows])


# printed change-of-basis matrices (without the 1/sqrt(2) factor,
# which is applied by the consumer)
S_W_UNSCALED = _mat([["1", "0", "1", "0"],
                     ["0", "1", "0", "1"],
                     ["1", "0", "-1", "0"],
                     ["0", "1", "0", "-1"]])
S_M_UNSCALED = _mat([["1", "0", "0", "i"],
                     ["0", "1", "-i", "0"],
                     ["0", "i", "-1", "0"],
                     ["-i", "0", "0", "-1"]])

# printed Weyl-representation symmetry matrices (plus-sign choice of
# the "±"); the first family, with the second family given by the
# printed scalar relations C(2)=iC(1), P(2)=P(1), T(2)=iT(1),
# θ(2)=-θ(1)
WEYL_78 = {
    "C": _mat([["0", "-i", "0", "0"],
               ["i", "0", "0", "0"],
               ["0", "0", "0", "i"],
               ["0", "0", "-i", "0"]]),
    "P": _mat([["0", "0", "i", "0"],
               ["0", "0", "0", "i"],
               ["i", "0", "0", "0"],
               ["0", "i", "0", "0"]]),
    "T": _mat([["0", "-i", "0", "0"],
               ["i", "0", "0", "0"],
               ["0", "0", "0", "-i"],
               ["0", "0", "i", "0"]]),
    "θ": _mat([["0", "0", "i", "0"],
               ["0", "0", "0", "i"],
               ["-i", "0", "0", "0"],
               ["0", "-i", "0", "0"]]),
}

# printed Majorana-representation symmetry matrices (plus signs)
MAJORANA_78A = {
    "C": _mat([["1", "0", "0", "0"],
               ["0", "1", "0", "0"],
               ["0", "0", "-1", "0"],
               ["0", "0", "0", "-1"]]),
    "P": _mat([["0", "0", "0", "-1"],
               ["0", "0", "1", "0"],
               ["0", "-1", "0", "0"],
               ["1", "0", "0", "0"]]),
    "T": _mat([["0", "-i", "0", "0"],
               ["i", "0", "0", "0"],
               ["0", "0", "0", "-i"],
               ["0", "0", "i", "0"]]),
    "θ": _mat([["0", "0", "-i", "0"],
               ["0", "0", "0", "-i"],
               ["i", "0", "0", "0"],
               ["0", "i", "0", "0"]]),
}

# scalar factors relating the second family to the first in both
# conjugated representations: (name, factor as (p, q) = p + qi)
SECOND_FAMILY_FACTORS = {"C": (0, 1), "P": (1, 0), "T": (0, 1),
                         "θ": (-1, 0)}

# printed Majorana gamma matrices (all entries purely imaginary)
MAJORANA_80 = [
    _mat([["0", "0", "0", "i"],
          ["0", "0", "-i", "0"],
          ["0", "i", "0", "0"],
          ["-i", "0", "0", "0"]]),
    _mat([["-i", "0", "0", "0"],
          ["0", "i", "0", "0"],
          ["0", "0", "-i", "0"],
          ["0", "0", "0", "i"]]),
    _mat([["0", "0", "0", "i"],
          ["0", "0", "-i", "0"],
          ["0", "-i", "0", "0"],
          ["i", "0", "0", "0"]]),
    _mat([["0", "i", "0", "0"],
          ["i", "0", "0", "0"],
          ["0", "0", "0", "i"],
          ["0", "0", "i", "0"]]),
]
