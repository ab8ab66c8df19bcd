"""Seeded arrangement documents and the command batch of each workload.

Documents are built here from ``random.Random`` with the benchmark's own
code, not with the package's generators, so the inputs of a seed stay the
same whatever the package does.  Every hyperplane is emitted in the canonical
form the parser keeps (primitive integer normal, first nonzero entry
positive), so the sign vectors in the program's output index the document's
own hyperplane list.

The shape of every case (dimension, direction classes, hyperplane count) is
fixed; the seed draws the offsets.  That keeps the work of a batch close
across seeds, so a change in ``wall_s`` comes from the program and not from
the draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

# Offsets are the rationals in [-3, 3] with denominator dividing 8.  With
# halves, chance coincidences such as a_ij + a_jk = a_ik made the flat count
# of one case vary from 3.2k to 5.2k between seeds (the Moebius scan costs
# its square); with eighths it stays within about 6%.
OFFSETS = [Fraction(k, 8) for k in range(-24, 25)]
# Small integer offsets for the finite-field cases: the coefficient bound
# stays 1, so the prime scan starts at 3 and ends after a short, steady run.
SMALL_OFFSETS = [Fraction(k) for k in (-1, 0, 1)]
# Normals of the general arrangements in R^3: small integer vectors that are
# none of the type A/B forms x_i, x_i - x_j, x_i + x_j.  The normals are fixed
# and the seed draws the offsets: Fourier-Motzkin work depends mostly on the
# normals, and random normals made one case vary threefold between seeds.
GENERAL_NORMALS = [
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
    (1, 2, 0), (0, 1, 2), (2, 0, 1), (1, 0, 2),
]


def _scalar(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _document(dim: int, planes) -> dict:
    return {
        "ambient_dim": dim,
        "hyperplanes": [
            {"normal": list(normal), "offset": _scalar(offset)} for normal, offset in planes
        ],
    }


def _unit(dim: int, i: int, j: int = -1, sign: int = 0) -> tuple[int, ...]:
    return tuple(1 if k == i else (sign if k == j else 0) for k in range(dim))


def _deformation(dim, rng: random.Random, classes, extra: int, offsets) -> dict:
    """Seeded offsets: two in each of the first ``extra`` direction classes, one elsewhere.

    Which classes get a second hyperplane is fixed, not drawn: drawing it
    moved the region count of one case by a quarter between seeds.
    """
    planes = []
    for index, normal in enumerate(classes):
        count = 2 if index < extra else 1
        for offset in sorted(rng.sample(offsets, count)):
            planes.append((normal, offset))
    return _document(dim, planes)


def type_a(dim: int, rng: random.Random, extra: int, offsets=OFFSETS) -> dict:
    """Non-degenerate deformation of the type A arrangement: x_i - x_j = a."""
    classes = [_unit(dim, i, j, -1) for i, j in combinations(range(dim), 2)]
    return _deformation(dim, rng, classes, extra, offsets)


def type_b(dim: int, rng: random.Random, extra: int, offsets=OFFSETS) -> dict:
    """Non-degenerate deformation of type B: x_i = a, x_i - x_j = b, x_i + x_j = c."""
    pairs = list(combinations(range(dim), 2))
    classes = (
        [_unit(dim, i) for i in range(dim)]
        + [_unit(dim, i, j, -1) for i, j in pairs]
        + [_unit(dim, i, j, 1) for i, j in pairs]
    )
    return _deformation(dim, rng, classes, extra, offsets)


def general(rng: random.Random) -> dict:
    """General arrangement in R^3: the fixed normals, each with a seeded offset."""
    return _document(3, [(normal, rng.choice(OFFSETS)) for normal in GENERAL_NORMALS])


def cox_a(dim: int) -> dict:
    pairs = combinations(range(dim), 2)
    return _document(dim, [(_unit(dim, i, j, -1), Fraction(0)) for i, j in pairs])


def m_catalan(dim: int, m: int) -> dict:
    planes = []
    for i, j in combinations(range(dim), 2):
        planes += [(_unit(dim, i, j, -1), Fraction(a)) for a in range(-m, m + 1)]
    return _document(dim, planes)


@dataclass(frozen=True)
class Case:
    """One command of a batch: the CLI arguments and the document on stdin.

    ``family`` tells the checker which theorem the document satisfies:
    ``typeA``/``typeB`` deformations obey the level expansion, ``m_catalan``
    has a closed-form characteristic polynomial, ``general`` neither.
    """

    name: str
    argv: tuple[str, ...]
    doc: dict
    family: str
    m_catalan: tuple[int, int] = (0, 0)

    @property
    def text(self) -> str:
        return json.dumps(self.doc, indent=2) + "\n"


LEVELS = ("levels", "-", "--regions", "--json")
VERIFY_B = ("verify", "-", "--theorem=B", "--json")
CHI = ("chi", "-", "--basis=binomial", "--json")
FF = ("verify", "-", "--theorem=ff", "--primes", "4", "--json")
DR = ("verify", "-", "--theorem=deletion-restriction", "--json")


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds are hashed with SHA-512, so draws do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}/{index}")


def lowdim_levels(seed: int) -> list[Case]:
    w = "lowdim_levels"
    cases = [
        Case(f"typeB3_{i}", VERIFY_B, type_b(3, _rng(w, seed, i), extra=3), "typeB")
        for i in range(4)
    ]
    cases += [Case(f"general3_{i}", LEVELS, general(_rng(w, seed, 4 + i)), "general") for i in range(2)]
    return cases


def simplex_levels(seed: int) -> list[Case]:
    return [
        Case("cox_a5", LEVELS, cox_a(5), "typeA"),
        Case("typeA5", LEVELS, type_a(5, _rng("simplex_levels", seed, 0), extra=0), "typeA"),
    ]


def poset_oracles(seed: int) -> list[Case]:
    w = "poset_oracles"
    cases = [
        Case("chi_typeA6", CHI, type_a(6, _rng(w, seed, 0), extra=2), "typeA"),
        Case("chi_m_catalan5_1", CHI, m_catalan(5, 1), "m_catalan", (5, 1)),
    ]
    cases += [
        Case(f"ff_typeB4_{i}", FF, type_b(4, _rng(w, seed, 1 + i), extra=0, offsets=SMALL_OFFSETS), "typeB")
        for i in range(3)
    ]
    cases.append(Case("dr_typeA5", DR, type_a(5, _rng(w, seed, 4), extra=3), "typeA"))
    return cases


WORKLOADS = {
    "lowdim_levels": lowdim_levels,
    "simplex_levels": simplex_levels,
    "poset_oracles": poset_oracles,
}
