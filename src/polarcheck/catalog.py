"""Named, runnable verification cases: transitive product pairs, conjugation
and twisted-diagonal actions, Hermann pairs, and the dimension obstruction
for diagonal so(7)-type subalgebras of so(8)(+)so(8).

Every entry is data: a group, a spec (a subgroup spec, which `polarcheck
analyze` runs as it stands, or a pair of factor specs) and an expectation.
"""

from dataclasses import dataclass

from .actions import ActionSpec, analyze, is_transitive, span_rank
from .errors import InvalidInputError
from .specs import parse_group, resolve_factor, resolve_subgroup


def _pair(group, h1, h2, tol):
    """(h1, h2, l) from a group name and two factor specs."""
    ambient = parse_group(group)
    return (resolve_factor(h1, ambient, tol), resolve_factor(h2, ambient, tol),
            ambient)


# ---------------------------------------------------------------------------
# Table 1 rows

# row id -> (description, smallest n, or None for a fixed row, and
# n -> (group, h1, h2) as spec strings)
TABLE1_ROWS = {
    "sp-su-s_u_u1": ("Sp(n) x S(U(2n-1)U(1)) on SU(2n)", 2,
                     lambda n: (f"su{2 * n}", f"sp{n}", "s_u_u1")),
    "sp-su-su": ("Sp(n) x SU(2n-1) on SU(2n)", 2,
                 lambda n: (f"su{2 * n}", f"sp{n}", f"su{2 * n - 1}")),
    "so-so-u": ("SO(2n-1) x U(n) on SO(2n)", 3,
                lambda n: (f"so{2 * n}", f"so{2 * n - 1}", f"u{n}")),
    "so-so-su": ("SO(2n-1) x SU(n) on SO(2n)", 3,
                 lambda n: (f"so{2 * n}", f"so{2 * n - 1}", f"su{n}")),
    "so-so-sp_sp1": ("SO(4n-1) x Sp(n)Sp(1) on SO(4n)", 2,
                     lambda n: (f"so{4 * n}", f"so{4 * n - 1}", f"sp{n}sp1")),
    "so-so-sp_u1": ("SO(4n-1) x Sp(n)U(1) on SO(4n)", 2,
                    lambda n: (f"so{4 * n}", f"so{4 * n - 1}", f"sp{n}u1")),
    "so-so-sp": ("SO(4n-1) x Sp(n) on SO(4n)", 2,
                 lambda n: (f"so{4 * n}", f"so{4 * n - 1}", f"sp{n}")),
    "g2-so7-so6": ("G2 x SO(6) on SO(7)", None,
                   lambda n: ("so7", "g2", "so6")),
    "g2-so7-so5so2": ("G2 x SO(5)SO(2) on SO(7)", None,
                      lambda n: ("so7", "g2", "so5so2")),
    "g2-so7-so5": ("G2 x SO(5) on SO(7)", None,
                   lambda n: ("so7", "g2", "so5")),
    "spin7-so8": ("Spin(7) x SO(7) on SO(8)", None,
                  lambda n: ("so8", "spin7", "so7")),
    "spin9-so16": ("Spin(9) x SO(15) on SO(16)", None,
                   lambda n: ("so16", "spin9", "so15")),
}


@dataclass(frozen=True)
class Table1Result:
    row_id: str
    n: int | None
    description: str
    dim_h1: int
    dim_h2: int
    dim_l: int
    span_rank: int
    transitive: bool
    passed: bool


def verify_table1(row_id, tol, n=None):
    """Check one row of the transitive-pair table at parameter n."""
    if row_id not in TABLE1_ROWS:
        raise InvalidInputError(
            f"unknown row {row_id!r}; known: {sorted(TABLE1_ROWS)}")
    description, min_n, specs = TABLE1_ROWS[row_id]
    if min_n is None:
        if n is not None:
            raise InvalidInputError(f"row {row_id} takes no parameter")
    else:
        if n is None:
            n = min_n
        if n < min_n:
            raise InvalidInputError(f"row {row_id} needs n >= {min_n}")
    h1, h2, ambient = _pair(*specs(n), tol)
    rank = span_rank(h1, h2, ambient, tol)
    transitive = rank == ambient.dim
    return Table1Result(row_id=row_id, n=n, description=description,
                        dim_h1=h1.dim, dim_h2=h2.dim, dim_l=ambient.dim,
                        span_rank=rank, transitive=transitive,
                        passed=transitive)


# ---------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class Expectation:
    transitive: bool | None = None
    cohomogeneity: int | None = None
    min_cohomogeneity: int | None = None
    polar: bool | None = None
    hyperpolar: bool | None = None


@dataclass(frozen=True)
class CatalogEntry:
    """A known answer on group: spec is a subgroup spec (an action) or an
    (h1, h2) tuple of factor specs (a pair)."""

    entry_id: str
    description: str
    group: str
    spec: str | tuple
    expectation: Expectation
    source: str = ""

    @property
    def kind(self):
        return "pair" if isinstance(self.spec, tuple) else "action"

    def builder(self, tol):
        """The ActionSpec of an action, the (h1, h2, l) of a pair."""
        if self.kind == "pair":
            return _pair(self.group, *self.spec, tol)
        algebra = parse_group(self.group)
        return ActionSpec(algebra, resolve_subgroup(self.spec, algebra, tol))


_HYPERPOLAR = Expectation(polar=True, hyperpolar=True)
_RANK_TWO = Expectation(cohomogeneity=2, polar=True, hyperpolar=True)
# orbits of a diagonal so(7)-type h in so(8)(+)so(8) have dimension at most
# dim h = 21, so its cohomogeneity is at least 28 - 21 = 7, whether h sits in
# the corner or is twisted by triality onto a spin(7)
_LEMMA71 = Expectation(min_cohomogeneity=7)

_ENTRIES = (
    CatalogEntry("conj-su3", "conjugation action of SU(3) on itself",
                 "su3", "delta(sigma=id)", _RANK_TWO,
                 source="isotropy action; sections are maximal tori"),
    CatalogEntry("conj-so5", "conjugation action of SO(5) on itself",
                 "so5", "delta(sigma=id)", _RANK_TWO,
                 source="isotropy action; sections are maximal tori"),
    CatalogEntry("sigma-su3-outer",
                 "twisted diagonal of SU(3), complex conjugation twist",
                 "su3", "delta(sigma=outer_su)", _HYPERPOLAR,
                 source="twisted-diagonal actions are hyperpolar"),
    CatalogEntry("sigma-so8-reflection",
                 "twisted diagonal of SO(8), reflection twist",
                 "so8", "delta(sigma=outer_so_even)", _HYPERPOLAR,
                 source="twisted-diagonal actions are hyperpolar"),
    CatalogEntry("hermann-so3so3-su3", "SO(3) x SO(3) acting on SU(3)",
                 "su3", "product(h1=so3,h2=so3)", _RANK_TWO,
                 source="Hermann actions are hyperpolar"),
    CatalogEntry("lemma71-standard",
                 "diagonal so(7) graph in so(8)+so(8), corner inclusion",
                 "so8", "delta(on=so7)", _LEMMA71,
                 source="dimension obstruction 28 - 21"),
    CatalogEntry("lemma71-twisted",
                 "diagonal so(7) graph in so(8)+so(8), triality twist",
                 "so8", "delta(sigma=triality,on=so7)", _LEMMA71,
                 source="dimension obstruction 28 - 21"),
    *(CatalogEntry(f"table1-{row_id}", description, group, (h1, h2),
                   Expectation(transitive=True),
                   source="classification of transitive product actions")
      for row_id, (description, min_n, specs) in TABLE1_ROWS.items()
      for group, h1, h2 in [specs(min_n)]),
    CatalogEntry("negative-su3su3-su4",
                 "two copies of the su(3) corner of su(4): not transitive",
                 "su4", ("su3", "su3"), Expectation(transitive=False),
                 source="span rank control case"),
)


def catalog_entries():
    """All catalog entries, polar actions first, deterministic order."""
    return list(_ENTRIES)


def get_entry(entry_id):
    for entry in catalog_entries():
        if entry.entry_id == entry_id:
            return entry
    raise InvalidInputError(f"unknown catalog entry {entry_id!r}")


@dataclass(frozen=True)
class EntryResult:
    entry_id: str
    passed: bool
    details: dict


def evaluate_entry(entry, tol):
    """Run one catalog entry and compare against its expectation."""
    exp = entry.expectation
    if entry.kind == "pair":
        h1, h2, ambient = entry.builder(tol)
        transitive = is_transitive(h1, h2, ambient, tol)
        passed = transitive == exp.transitive
        details = {"transitive": transitive, "dim_h1": h1.dim,
                   "dim_h2": h2.dim, "dim_l": ambient.dim}
        return EntryResult(entry.entry_id, passed, details)
    action = entry.builder(tol)
    report = analyze(action, tol)
    passed = True
    if exp.cohomogeneity is not None:
        passed &= report.cohomogeneity == exp.cohomogeneity
    if exp.min_cohomogeneity is not None:
        passed &= report.cohomogeneity >= exp.min_cohomogeneity
    if exp.polar is not None:
        passed &= report.polar == exp.polar
    if exp.hyperpolar is not None:
        passed &= report.hyperpolar == exp.hyperpolar
    details = {
        "cohomogeneity": report.cohomogeneity,
        "polar": report.polar,
        "hyperpolar": report.hyperpolar,
        "residual_triple": report.residual_triple,
        "triple_is_bound": report.triple_is_bound,
        "residual_orth": report.residual_orth,
        "residual_abelian": report.residual_abelian,
    }
    return EntryResult(entry.entry_id, passed, details)


@dataclass(frozen=True)
class SuiteSummary:
    results: tuple
    passed: int
    failed: int

    @property
    def ok(self):
        return self.failed == 0


def run_known_answer_suite(tol, entry_ids=None):
    """Run every catalog entry (or a selection); failures are data, an
    unknown entry id or an empty selection is invalid input."""
    entries = catalog_entries()
    if entry_ids is not None:
        if not entry_ids:
            raise InvalidInputError("the catalog entry selection is empty")
        unknown = set(entry_ids) - {e.entry_id for e in entries}
        if unknown:
            raise InvalidInputError(
                f"unknown catalog entries: {sorted(unknown)}")
        entries = [e for e in entries if e.entry_id in entry_ids]
    results = [evaluate_entry(entry, tol) for entry in entries]
    passed = sum(1 for r in results if r.passed)
    return SuiteSummary(results=tuple(results), passed=passed,
                        failed=len(results) - passed)
