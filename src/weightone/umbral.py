"""Bundled moonshine data tables and their verification.

Ships four versioned CSV files: per-class levels for the 21 root systems with
a nontrivial automorphism group, the order-12 dihedral character table, the
graded coefficient tables of the eight vector-valued series attached to the
Coxeter-number-9 root system, and the corresponding multiplicity tables.  A
sha256 manifest guards against silent edits; the loader validates schema and
arithmetic invariants row by row.

The decomposition tables print three columns each; the odd components carry
the three characters fixed by the central involution and the even components
the three reflected ones (the printed headers of the even tables are off by
one, so multiplicities are always recomputed against all six irreducibles and
matched positionally against the expected support).
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .qseries import (FourierJacobiSeries, explicit_form, theta_decompose,
                      theta_expansion)
from .sl2 import Sl2Word
from .weil import QuadSpace, get_weil_rep

EXPECTED_EXCEPTIONAL = {("A2^12", "3B"), ("A2^12", "6B"), ("A2^12", "12A"),
                        ("D4^6", "3C"), ("D4^6", "6C"), ("E8^3", "3A"),
                        ("A8^3", "3A"), ("A8^3", "6A")}

CLASSES = ("1A", "2A", "2B", "2C", "3A", "6A")


class DataIntegrityError(ValueError):
    """Checksum mismatch or invariant failure in the bundled data."""


@dataclass(frozen=True)
class UmbralClassRecord:
    root_system: str
    coxeter: int
    class_name: str
    n_g: int
    h_g: int
    level: int
    exceptional: bool


@dataclass(frozen=True)
class CharacterTable:
    classes: tuple[str, ...]
    power2: tuple[str, ...]
    power3: tuple[str, ...]
    frobenius_schur: tuple[str, ...]
    chars: tuple[tuple[int, ...], ...]  # chi1..chi6 as rows

    @property
    def order(self) -> int:
        return 12

    def class_sizes(self) -> tuple[int, ...]:
        sizes = []
        for j, cname in enumerate(self.classes):
            s = sum(chi[j] * chi[j] for chi in self.chars)
            if self.order % s:
                raise DataIntegrityError(f"class {cname}: non-integral size {self.order}/{s}")
            sizes.append(self.order // s)
        if sum(sizes) != self.order:
            raise DataIntegrityError("class sizes do not sum to the group order")
        return tuple(sizes)


@dataclass(frozen=True)
class McKayThompsonTable:
    rows: dict  # (r, D) -> tuple of 6 ints

    def row(self, r: int, grade: int) -> tuple[int, ...]:
        return self.rows[(r, grade)]

    def grades(self, r: int) -> list[int]:
        return sorted(d for rr, d in self.rows if rr == r)


@dataclass(frozen=True)
class DecompositionTable:
    rows: dict  # (r, D) -> (labels, tuple of 3 ints)


@dataclass(frozen=True)
class UmbralDataSet:
    class_records: tuple[UmbralClassRecord, ...]
    character_table: CharacterTable
    coefficients: McKayThompsonTable
    decompositions: DecompositionTable


def _coxeter_of(label: str) -> int:
    """Coxeter number read off a root-system label such as A5^4D4."""
    values = []
    for kind, rank in re.findall(r"([ADE])(\d+)", label):
        n = int(rank)
        if kind == "A":
            values.append(n + 1)
        elif kind == "D":
            values.append(2 * n - 2)
        else:
            values.append({6: 12, 7: 18, 8: 30}[n])
    if not values or any(v != values[0] for v in values):
        raise DataIntegrityError(f"components of {label} disagree on the Coxeter number")
    return values[0]


def _data_path(name: str, data_dir: str | None):
    if data_dir is not None:
        return open(f"{data_dir}/{name}", "rb")
    return resources.files("weightone").joinpath(f"data/{name}").open("rb")


def load_dataset(data_dir: str | None = None, verify_digests: bool = True) -> UmbralDataSet:
    """Load and fully validate the bundled tables.

    Raises DataIntegrityError with a row-precise message on any schema
    violation, checksum mismatch or invariant failure.
    """
    raw = {}
    for name in ("levels.csv", "character_table.csv", "mckay_thompson.csv",
                 "decompositions.csv", "manifest.json"):
        with _data_path(name, data_dir) as f:
            raw[name] = f.read()
    if verify_digests:
        manifest = json.loads(raw["manifest.json"])
        for name, digest in manifest.items():
            actual = hashlib.sha256(raw[name]).hexdigest()
            if actual != digest:
                raise DataIntegrityError(f"{name}: digest mismatch (data edited?)")

    records = []
    for i, row in enumerate(csv.DictReader(raw["levels.csv"].decode().splitlines())):
        try:
            rec = UmbralClassRecord(
                root_system=row["root_system"],
                coxeter=_coxeter_of(row["root_system"]),
                class_name=row["class"],
                n_g=int(row["n_g"]),
                h_g=int(row["h_g"]),
                level=int(row["N_g"]),
                exceptional=bool(int(row["exceptional"])),
            )
        except (KeyError, ValueError) as exc:
            raise DataIntegrityError(f"levels.csv row {i + 2}: {exc}") from exc
        if rec.level < 1:
            raise DataIntegrityError(f"levels.csv row {i + 2}: nonpositive level")
        if 24 % rec.h_g:
            raise DataIntegrityError(f"levels.csv row {i + 2}: h_g = {rec.h_g} does not divide 24")
        records.append(rec)
    flagged = {(r.root_system, r.class_name) for r in records if r.exceptional}
    if flagged != EXPECTED_EXCEPTIONAL:
        raise DataIntegrityError(f"unexpected exceptional flags: {sorted(flagged)}")

    lines = list(csv.reader(raw["character_table.csv"].decode().splitlines()))
    if lines[0][1:] != list(CLASSES):
        raise DataIntegrityError("character_table.csv: unexpected class names")
    table = CharacterTable(
        classes=tuple(lines[0][1:]),
        power2=tuple(lines[1][1:]),
        power3=tuple(lines[2][1:]),
        frobenius_schur=tuple(lines[3][1:]),
        chars=tuple(tuple(int(x) for x in ln[1:]) for ln in lines[4:10]),
    )
    _check_orthogonality(table)

    mt_rows = {}
    for i, row in enumerate(csv.DictReader(raw["mckay_thompson.csv"].decode().splitlines())):
        r, grade = int(row["r"]), int(row["D"])
        vals = tuple(int(row[c]) for c in CLASSES)
        if (-grade - r * r) % 36:
            raise DataIntegrityError(
                f"mckay_thompson.csv row {i + 2}: grade {grade} incompatible with component {r}")
        mt_rows[(r, grade)] = vals
    coeffs = McKayThompsonTable(mt_rows)

    dec_rows = {}
    for i, row in enumerate(csv.DictReader(raw["decompositions.csv"].decode().splitlines())):
        r, grade = int(row["r"]), int(row["D"])
        if (r, grade) not in mt_rows:
            raise DataIntegrityError(
                f"decompositions.csv row {i + 2}: no matching coefficient row ({r}, {grade})")
        dec_rows[(r, grade)] = (row["labels"],
                                (int(row["v1"]), int(row["v2"]), int(row["v3"])))
    return UmbralDataSet(tuple(records), table, coeffs, DecompositionTable(dec_rows))


def _check_orthogonality(table: CharacterTable):
    sizes = table.class_sizes()
    n = len(table.chars)
    for i in range(n):
        for j in range(n):
            s = sum(sz * table.chars[i][k] * table.chars[j][k]
                    for k, sz in enumerate(sizes))
            if s != (table.order if i == j else 0):
                raise DataIntegrityError(f"row orthogonality fails at (chi{i+1}, chi{j+1})")


def class_sizes(table: CharacterTable) -> tuple[int, ...]:
    """Conjugacy class sizes derived from column orthogonality."""
    return table.class_sizes()


def decompose_multiplicities(dataset: UmbralDataSet, r: int, grade: int) -> tuple[int, ...]:
    """Multiplicities of the six irreducibles in the degree-(r, D) coefficient row.

    All six must be integers; for positive grades they must be nonnegative.
    """
    coeffs = dataset.coefficients.row(r, grade)
    sizes = dataset.character_table.class_sizes()
    out = []
    for chi in dataset.character_table.chars:
        s = sum(sz * x * c for sz, x, c in zip(sizes, chi, coeffs))
        if s % dataset.character_table.order:
            raise DataIntegrityError(
                f"non-integral multiplicity at component {r}, grade {grade}")
        out.append(s // dataset.character_table.order)
    if grade > 0 and any(v < 0 for v in out):
        raise DataIntegrityError(
            f"negative multiplicity at positive grade ({r}, {grade})")
    return tuple(out)


def expected_support(r: int) -> tuple[int, int, int]:
    """Indices (0-based) of the three irreducibles a component can meet.

    Odd components pair with the characters taking equal values on the two
    order-dividing-2 central classes; even components with the reflected ones.
    """
    return (0, 1, 2) if r % 2 == 1 else (3, 4, 5)


def verify_decompositions(dataset: UmbralDataSet) -> list[str]:
    """Reproduce every bundled decomposition row; returns a list of violations."""
    problems = []
    for (r, grade), (labels, vals) in sorted(dataset.decompositions.rows.items()):
        mults = decompose_multiplicities(dataset, r, grade)
        support = expected_support(r)
        off = [i for i, v in enumerate(mults) if v and i not in support]
        if off:
            problems.append(f"({r},{grade}): support outside expected characters: {off}")
            continue
        got = tuple(mults[i] for i in support)
        if got != vals:
            problems.append(f"({r},{grade}): computed {got} but table says {vals}")
    return problems


def theta_correction(class_name: str, r: int, order) -> FourierJacobiSeries:
    """Component r of the weight-1/2 theta correction for the order-3 classes."""
    if class_name not in ("3A", "6A"):
        raise ValueError("theta corrections exist for classes 3A and 6A only")
    order = Fraction(order)
    rr = r % 18
    if rr % 9 == 0 or rr % 3 != 0:
        return FourierJacobiSeries.zero(order)
    t33 = theta_expansion(3, 3, order).specialize_y1()
    t30 = theta_expansion(3, 0, order).specialize_y1()
    if rr == 3:
        return -t33
    if rr == 15:  # r = -3 mod 18
        return t33
    if rr == 6:
        return t30 if class_name == "3A" else -t30
    return -t30 if class_name == "3A" else t30  # r = -6 mod 18


def verify_xi9_consistency(order) -> bool:
    """Theta coefficients of the two index-9 forms match the corrections."""
    order = Fraction(order)
    for cls, form in (("3A", "xi9_3A"), ("6A", "xi9_6A")):
        dec = theta_decompose(explicit_form(form, order), 9)
        for r in range(18):
            if not dec.component(r).agrees_with(theta_correction(cls, r, order)):
                return False
    return True


def first_xi9_mismatch(order) -> tuple | None:
    """Diagnostic companion of verify_xi9_consistency: first differing entry."""
    order = Fraction(order)
    for cls, form in (("3A", "xi9_3A"), ("6A", "xi9_6A")):
        dec = theta_decompose(explicit_form(form, order), 9)
        for r in range(18):
            got = dec.component(r)
            want = theta_correction(cls, r, order)
            if not got.agrees_with(want):
                keys = sorted(set(got.promoted(want.qden).terms) | set(want.terms))
                for k in keys:
                    a = got.promoted(want.qden).terms.get(k, Fraction(0))
                    b = want.terms.get(k, Fraction(0))
                    if a != b:
                        return (cls, r, Fraction(k[0], want.qden), a, b)
    return None


def block_structure_check(words: list[Sl2Word]) -> bool:
    """Whether the index-9 theta-side matrices of level-3 words are block diagonal.

    The blocks are the residues divisible by 3 and the rest; entries coupling
    the two blocks must vanish exactly.  Words whose matrix has c != 0 mod 3
    are rejected.
    """
    rep = get_weil_rep(QuadSpace("D", 9))
    for w in words:
        if w.mat()[2] % 3 != 0:
            raise ValueError(f"word {w} is not in the level-3 subgroup")
        mat = rep.evaluate_word(w)
        for i in range(18):
            for j in range(18):
                if (i % 3 == 0) != (j % 3 == 0):
                    if not mat.entry(i, j).is_zero():
                        return False
    return True


def coefficient_parity_audit(dataset: UmbralDataSet) -> list[str]:
    """Positivity and grading audit of the coefficient tables; lists violations."""
    problems = []
    polar = [(r, d) for (r, d) in dataset.coefficients.rows if d < 0]
    if polar != [(1, -1)]:
        problems.append(f"polar rows {sorted(polar)} (expected exactly (1,-1))")
    row = dataset.coefficients.rows.get((1, -1))
    if row is not None and row[0] != -2:
        problems.append(f"polar coefficient is {row[0]}, expected -2")
    for (r, d), vals in sorted(dataset.coefficients.rows.items()):
        if d > 0 and vals[0] < 0:
            problems.append(f"({r},{d}): negative identity-class coefficient {vals[0]}")
        if (-d - r * r) % 36:
            problems.append(f"({r},{d}): grade incompatible with component")
    row0 = dataset.coefficients.rows.get((6, 0))
    if row0 != (1, -1, -1, 1, 1, -1):
        problems.append(f"(6,0): unexpected constant row {row0}")
    return problems
