import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from polarcheck import embeddings, lie_algebras, specs, subalgebras
from polarcheck.catalog import catalog_entries, get_entry
from polarcheck.embeddings import block_so, so_in_su
from polarcheck.errors import (ClosureError, DimensionMismatchError,
                               InvalidInputError)
from polarcheck.lie_algebras import (LieAlgebra, _u_basis_complex,
                                     adjoint_matrix, build_classical,
                                     classical_basis, commutator,
                                     make_automorphism, realify_complex,
                                     so_basis, span_closure_residual)
from polarcheck.octonions import quaternion_table
from polarcheck.numerics import ToleranceConfig, outside_norm, split_span
from polarcheck.specs import (FACTORS, parse_group, resolve_factor,
                              resolve_subgroup)
from polarcheck.subalgebras import (Subalgebra, diagonal_sigma,
                                    full_subalgebra, product, zero_subalgebra)

from helpers import (conjugated_pair_subalgebra, conjugated_subalgebra,
                     gram_residual)


class TestConstruction:
    def test_orthonormalized(self, tol):
        algebra = build_classical("su", 3)
        # a random mix of a closed span: the real points so(3)
        real = so_in_su(algebra, tol, 3)
        mix = np.random.default_rng(0).standard_normal((real.dim,) * 2)
        sub = Subalgebra.from_vectors(algebra, mix @ real.basis, tol)
        assert sub.dim == real.dim
        assert gram_residual(sub) < 1e-10

    def test_closure_enforced(self, tol):
        algebra = build_classical("su", 2)
        # two coordinate directions of su(2) never close
        with pytest.raises(ClosureError) as err:
            Subalgebra.from_vectors(algebra, np.eye(algebra.dim)[:2], tol)
        assert err.value.residual is not None
        assert err.value.residual > 0.1

    def test_from_matrices_roundtrip(self, tol):
        algebra = build_classical("so", 4)
        corner = block_so(algebra, tol, 3)
        rebuilt = Subalgebra.from_matrices(
            algebra, algebra.frobenius_matrices(corner.basis), tol)
        assert rebuilt.dim == corner.dim
        assert outside_norm(corner.basis, rebuilt.basis) < 1e-10

    def test_zero_and_full(self, tol):
        algebra = build_classical("so", 5)
        assert zero_subalgebra(algebra).dim == 0
        assert full_subalgebra(algebra, tol).dim == algebra.dim

    @pytest.mark.parametrize("rows", [
        # three rows of length 4, whose twelve entries a reshape would
        # read as two rows of so(4)'s length 6
        np.eye(4)[:3], np.eye(7)[:2], np.zeros(6), np.zeros((1, 2, 3))])
    def test_rows_of_the_wrong_width_are_rejected(self, rows, tol):
        so4 = build_classical("so", 4)
        with pytest.raises(DimensionMismatchError, match="length 6"):
            Subalgebra(so4, rows)
        if rows.ndim == 2:
            with pytest.raises(DimensionMismatchError, match="length 6"):
                Subalgebra.from_vectors(so4, rows, tol)
            with pytest.raises(DimensionMismatchError, match="length 6"):
                Subalgebra(so4, split_span(rows)[0])

    def test_the_callers_rows_stay_writeable(self):
        rows = np.eye(8)[:1].copy()
        h = Subalgebra(build_classical("su", 3), rows)
        assert rows.flags.writeable and not h.basis.flags.writeable
        rows[0, 0] = 5.0
        assert np.array_equal(h.basis, np.eye(8)[:1])


class TestDiagonalAndProduct:
    def test_diagonal_dimension(self, tol):
        algebra = build_classical("su", 3)
        h = diagonal_sigma(algebra, make_automorphism(algebra, "id", tol))
        assert h.parent is algebra.double()
        assert h.dim == algebra.dim
        assert h.closure_residual() < 1e-10

    def test_twisted_diagonal(self, tol):
        algebra = build_classical("so", 8)
        sigma = make_automorphism(algebra, "outer_so_even", tol=tol)
        h = diagonal_sigma(algebra, sigma)
        assert h.dim == algebra.dim

    def test_product_dimensions(self, tol):
        algebra = build_classical("so", 5)
        h1 = block_so(algebra, tol, 4)
        h2 = block_so(algebra, tol, 3)
        h = product(h1, h2)
        assert h.dim == h1.dim + h2.dim
        assert h.factors == (h1, h2)
        assert h1.factors is None and h2.factors is None

    def test_product_rejects_mixed_parents(self, tol):
        a = build_classical("so", 4)
        b = build_classical("so", 5)
        with pytest.raises(InvalidInputError):
            product(block_so(a, tol, 3), block_so(b, tol, 3))


# (group, factor) per built-in embedding builder, over a range of sizes
BUILTIN_FACTORS = [
    # block_so, one block
    ("so3", "so2"), ("so6", "so5"), ("so10", "so4"), ("so12", "so11"),
    # block_so, two blocks
    ("so5", "so2so3"), ("so8", "so4so4"), ("so11", "so5so6"),
    # so_in_su
    ("su3", "so3"), ("su5", "so5"), ("su7", "so7"),
    # u_in_so, also special
    ("so4", "u2"), ("so6", "su3"), ("so8", "u4"), ("so12", "u6"),
    ("so12", "su6"),
    # su_corner_in_su
    ("su3", "su2"), ("su5", "su4"), ("su8", "su7"),
    # s_u_in_su, also as s_u_u1
    ("su2", "s_u_u1"), ("su3", "s_u_u1"), ("su5", "s_u_u1"),
    ("su8", "s_u_u1"), ("su2", "s_u1u1"), ("su4", "s_u2u2"),
    ("su5", "s_u2u3"), ("su7", "s_u4u3"),
    # sp_in_su
    ("su2", "sp1"), ("su4", "sp2"), ("su6", "sp3"), ("su8", "sp4"),
    # sp_in_so, with each right factor
    ("so4", "sp1"), ("so8", "sp2u1"), ("so12", "sp3sp1"), ("so12", "sp3"),
    # g2_in_so7 and spin_subalgebra
    ("so7", "g2"), ("so8", "spin7"), ("so16", "spin9"),
    # cartan_subalgebra
    ("su2", "cartan"), ("su8", "cartan"), ("so2", "cartan"),
    ("so12", "cartan"), ("sp1", "cartan"), ("sp4", "cartan"),
    # full_subalgebra and zero_subalgebra
    ("su3", "full"), ("so5", "full"), ("sp2", "full"),
    ("su3", "zero"), ("so5", "zero"), ("sp2", "zero"),
]


_DIM = {"so": lambda k: k * (k - 1) // 2, "su": lambda k: k * k - 1,
        "u": lambda k: k * k, "sp": lambda k: k * (2 * k + 1)}


def split_name(group):
    """('so', 4) of a name like 'so4'."""
    family, n = re.fullmatch(r"([a-z]+)(\d+)", group).groups()
    return family, int(n)


def classical(group):
    """The algebra of a group name, built with build_classical, since the
    builder cases include so2 and so4, which parse_group rejects as not
    simple, but in which factors still embed."""
    return build_classical(*split_name(group))


def factor_dimension(group, factor):
    """The dimension of a BUILTIN_FACTORS case, worked out from its name."""
    family, n = split_name(group)
    rules = {
        "full": lambda: _DIM[family](n),
        "zero": lambda: 0,
        "cartan": lambda: {"su": n - 1, "so": n // 2, "sp": n}[family],
        "g2": lambda: 14,
        r"spin(\d+)": _DIM["so"],
        "s_u_u1": lambda: (n - 1) ** 2,
        r"s_u(\d+)u(\d+)": lambda p, q: p * p + q * q - 1,
        r"so(\d+)": _DIM["so"],
        r"so(\d+)so(\d+)": lambda p, q: _DIM["so"](p) + _DIM["so"](q),
        r"su(\d+)": _DIM["su"],
        r"u(\d+)": _DIM["u"],
        r"sp(\d+)": _DIM["sp"],
        r"sp(\d+)sp1": lambda m: _DIM["sp"](m) + 3,
        r"sp(\d+)u1": lambda m: _DIM["sp"](m) + 1,
    }
    [(rule, match)] = [(rule, match) for pattern, rule in rules.items()
                       if (match := re.fullmatch(pattern, factor))]
    return rule(*map(int, match.groups()))


def readme_factor_names():
    """The names listed under product(...) in the README, e.g. 'so<k>'."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text[text.index("- `product("):text.index("- `span(file=...)`")]
    heads = re.findall(r"^ +- (.*?):", section, re.M)
    return [name for head in heads for name in re.findall(r"`([^`]+)`", head)]


# the diagonal so(7) graphs of the lemma71-* catalog entries, by twist
SO7_GRAPHS = {False: "delta(on=so7)", True: "delta(sigma=triality,on=so7)"}


class TestImpliedClosure:
    # built-in embeddings, product and diagonal_sigma do not check closure
    # at run time; it must hold anyway, and is checked here once
    @pytest.mark.parametrize("group,factor", BUILTIN_FACTORS)
    def test_builtin_factor_is_closed(self, group, factor, tol):
        h = resolve_factor(factor, classical(group), tol)
        assert (h.dim == 0) == (factor == "zero")
        assert h.closure_residual() < 1e-12

    @pytest.mark.parametrize("group,factor", BUILTIN_FACTORS)
    def test_builtin_factor_has_its_dimension(self, group, factor, tol):
        # the rank cut keeps the span of every matrix a builder writes
        # down, and a row selection every row its mask admits, on
        # orthonormal rows; nothing checks this at run time
        h = resolve_factor(factor, classical(group), tol)
        assert h.dim == factor_dimension(group, factor)
        assert gram_residual(h) < 1e-12

    @pytest.mark.parametrize("twisted", [False, True])
    def test_so7_graph_is_closed(self, twisted, tol):
        h = resolve_subgroup(SO7_GRAPHS[twisted], parse_group("so8"), tol)
        assert h.dim == 21
        assert h.closure_residual() < 1e-12

    def test_builtins_never_check_closure(self, tol, monkeypatch):
        def refuse(sub):
            raise AssertionError(f"closure checked on {sub.name}")

        monkeypatch.setattr(Subalgebra, "closure_residual", refuse)
        for group, factor in BUILTIN_FACTORS:
            resolve_factor(factor, classical(group), tol)
        for entry in catalog_entries():
            entry.builder(tol)

    @pytest.mark.parametrize("entry_id", [e.entry_id for e in catalog_entries()
                                          if e.kind == "action"])
    def test_catalog_actions(self, entry_id, tol):
        h = get_entry(entry_id).builder(tol).h
        assert h.closure_residual() < tol.residual_tol

    @pytest.mark.parametrize("group,subgroup", [
        ("su3", "delta(sigma=outer_su)"),
        ("su4", "delta(sigma=outer_su)"),
        ("so6", "delta(sigma=outer_so_even)"),
        ("sp2", "delta(sigma=id)"),
        ("su3", "product(h1=full,h2=cartan)"),
        ("su4", "product(h1=sp2,h2=s_u_u1)"),
        ("so7", "product(h1=g2,h2=so6)"),
        ("so8", "product(h1=spin7,h2=u4)"),
        ("so8", "product(h1=sp2sp1,h2=so4so4)"),
        ("so8", "delta(sigma=triality)"),
        ("su3", "delta(sigma=outer_su,on=su2)"),
        ("su2", "delta(on=cartan)"),
    ])
    def test_specs(self, group, subgroup, tol):
        algebra = parse_group(group)
        h = resolve_subgroup(subgroup, algebra, tol)
        assert h.closure_residual() < tol.residual_tol

    def test_repeated_factor_is_resolved_once(self, tol, monkeypatch):
        # the factor cache builds su3 once, for h1 and h2 alike
        calls, pairs = [], []
        builders = dict(specs.FACTORS)[r"su(\d+)"]
        corner = builders["su"]
        monkeypatch.setitem(builders, "su",
                            lambda *args: calls.append(args) or corner(*args))
        monkeypatch.setattr(specs, "product",
                            lambda h1, h2: pairs.append((h1, h2))
                            or product(h1, h2))
        algebra = parse_group("su4")
        h = resolve_subgroup("product(h1=su3,h2=su3)", algebra, tol)
        assert (len(calls), h.dim) == (1, 16)
        [(h1, h2)] = pairs
        assert h2 is h1
        resolve_subgroup("product(h1=su3,h2=su2)", algebra, tol)
        assert len(calls) == 2


class TestFactorTable:
    @pytest.mark.parametrize("pattern,family", [
        (pattern, family) for pattern, builders in FACTORS
        for family in builders])
    def test_every_entry_has_a_builtin_case(self, pattern, family):
        # so that TestImpliedClosure covers every builder the table reaches
        assert any(re.fullmatch(pattern, factor)
                   and group.rstrip("0123456789") == family
                   for group, factor in BUILTIN_FACTORS)

    @pytest.mark.parametrize("name", readme_factor_names())
    def test_readme_name_resolves(self, name, tol):
        template = re.sub(r"<\w+>", r"\\d+", name)
        cases = [(group, factor) for group, factor in BUILTIN_FACTORS
                 if re.fullmatch(template, factor)]
        assert cases
        for group, factor in cases:
            resolve_factor(factor, classical(group), tol)

    def test_readme_lists_every_entry(self):
        names = [re.sub(r"<\w+>", "3", name) for name in readme_factor_names()]
        for pattern, _ in FACTORS:
            assert any(re.fullmatch(pattern, name) for name in names), pattern
        for name in names:
            assert sum(bool(re.fullmatch(pattern, name))
                       for pattern, _ in FACTORS) == 1, name

    def test_s_u_u1_in_su2_is_the_cartan(self, tol):
        su2 = parse_group("su2")
        circle = resolve_factor("s_u_u1", su2, tol)
        cartan = resolve_factor("cartan", su2, tol)
        assert circle.dim == cartan.dim == 1
        assert outside_norm(circle.basis, cartan.basis) < 1e-12



class TestFactorCache:
    """A named factor is built once per process for each algebra and each
    residual_tol; a span file is read on every call."""

    @pytest.mark.parametrize("group,factor", BUILTIN_FACTORS)
    def test_seed_and_samples_share_one_factor(self, group, factor):
        # no builder reads the seed, so it must not split the cache, and
        # the shared basis must equal a fresh build bit for bit and refuse
        # writes from any of its callers
        algebra = classical(group)
        factors = [resolve_factor(factor, algebra, ToleranceConfig(seed=seed))
                   for seed in (0, 1, 5, 8)]
        assert all(h is factors[0] for h in factors)
        tol = ToleranceConfig()
        fresh = specs._named_factor.__wrapped__(algebra, factor,
                                                tol.residual_tol)
        assert fresh is not factors[0]
        assert np.array_equal(fresh.basis, factors[0].basis)
        basis = factors[0].basis
        if basis.size:
            with pytest.raises(ValueError):
                basis[0, 0] = 1.0

    def test_another_tolerance_rebuilds(self, tol):
        # residual_tol, the one tolerance a builder reads, is the key
        so8 = parse_group("so8")
        default = resolve_factor("spin7", so8, tol)
        tighter = resolve_factor("spin7", so8, ToleranceConfig(residual_tol=1e-9))
        assert tighter is not default
        assert resolve_factor("spin7", so8, tol) is default
        assert resolve_factor("spin7", so8,
                              ToleranceConfig(residual_tol=1e-9)) is tighter

    def test_a_failing_cut_raises_on_every_call(self, tol):
        # lru_cache stores no exception: g2 at a residual_tol below its
        # roundoff fails every time, before and after the default is cached
        so7 = parse_group("so7")
        fine = ToleranceConfig(residual_tol=1e-20)
        for resolve_default in (False, True, False):
            if resolve_default:
                assert resolve_factor("g2", so7, tol).dim == 14
            for _ in range(2):
                with pytest.raises(ClosureError,
                                   match=r"^factor g2 of so\(7\) "):
                    resolve_factor("g2", so7, fine)

    @pytest.mark.parametrize("group,factor", [("so7", "g2"),
                                              ("so8", "spin7")])
    def test_a_failing_check_names_its_factor(self, group, factor):
        algebra = parse_group(group)
        with pytest.raises(ClosureError) as err:
            resolve_factor(factor, algebra,
                           ToleranceConfig(residual_tol=1e-20))
        assert str(err.value).startswith(
            f"factor {factor} of {algebra.name} fails its check at "
            "residual_tol 1e-20: matrix does not lie in")
        assert str(err.value).endswith(
            "; the residual is roundoff, and residual_tol 1e-20 is finer "
            "than double precision can check")
        assert 0 < err.value.residual < 1e-14

    def test_span_file_is_read_on_every_call(self, tmp_path, tol):
        # a span file is never cached: a rewritten file gives its new
        # subspace, and its closure check runs again
        path = tmp_path / "span.txt"
        spec = f"span(file={path})"
        so3 = parse_group("so3")
        rows = ["0 1 0 -1 0 0 0 0 0", "0 0 1 0 0 0 -1 0 0",
                "0 0 0 0 0 1 0 -1 0"]
        path.write_text("3\n" + rows[0] + "\n")
        assert resolve_factor(spec, so3, tol).dim == 1
        path.write_text("3\n" + "\n".join(rows) + "\n")
        assert resolve_factor(spec, so3, tol).dim == 3
        path.write_text("3\n" + "\n".join(rows[:2]) + "\n")
        with pytest.raises(ClosureError, match="not bracket-closed"):
            resolve_factor(spec, so3, tol)

    def test_unknown_name_keeps_the_spelling(self, tol):
        # the cache is keyed on the lower-cased name, but the message
        # quotes what the user wrote, on every call
        so8 = parse_group("so8")
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="'XyZ' for so"):
                resolve_factor(" XyZ ", so8, tol)
        assert resolve_factor("SO7", so8, tol) is resolve_factor("so7", so8, tol)


def per_block_basis(ambient, factor, tol):
    """Rows of so5so2 or s_u_u1 as they were once built: each block
    orthonormalized on its own, then the stack of blocks once more."""
    if factor == "so5so2":
        so5, so2 = np.split(block_so_reference(ambient.n, 5, 2), [10])
        blocks = [Subalgebra.from_matrices(ambient, mats, tol).basis
                  for mats in (so5, so2)]
    else:
        n = ambient.n
        extra = np.diag([1j] * (n - 1) + [1j * (1 - n)])
        blocks = [ambient.coords_of(realify_complex(extra), tol.residual_tol)]
        if n > 2:
            blocks.insert(0, ambient.coords_of(su_block_reference(n, n - 1),
                                               tol.residual_tol))
    return split_span(np.vstack(blocks))[0]


class TestMembershipTolerance:
    """Every membership check of a built-in factor reads residual_tol."""

    @staticmethod
    def recorded_member_tols(monkeypatch):
        calls = []
        coords_of = LieAlgebra.coords_of

        def recording(algebra, mats, member_tol):
            calls.append(member_tol)
            return coords_of(algebra, mats, member_tol)

        monkeypatch.setattr(LieAlgebra, "coords_of", recording)
        return calls

    @pytest.mark.parametrize("group,factor", BUILTIN_FACTORS)
    def test_every_factor(self, group, factor, monkeypatch):
        calls = self.recorded_member_tols(monkeypatch)
        resolve_factor(factor, classical(group),
                       ToleranceConfig(residual_tol=1e-9))
        assert calls == [1e-9] * len(calls)

    @pytest.mark.parametrize("twisted", [False, True])
    def test_so7_diagonal_graph(self, twisted, monkeypatch):
        # the multiplications of triality_matrix; the so7 corner is a row
        # selection and checks no membership
        calls = self.recorded_member_tols(monkeypatch)
        resolve_subgroup(SO7_GRAPHS[twisted], parse_group("so8"),
                         ToleranceConfig(residual_tol=1e-9))
        assert calls == [1e-9] * twisted

    @pytest.mark.parametrize("group,factor", [
        ("so7", "so5so2"), ("so8", "so5so2"), ("su2", "s_u_u1"),
        ("su3", "s_u_u1"), ("su4", "s_u_u1"), ("su5", "s_u_u1")])
    def test_one_stack_spans_the_per_block_span(self, group, factor, tol):
        ambient = parse_group(group)
        rows = resolve_factor(factor, ambient, tol).basis
        old = per_block_basis(ambient, factor, tol)
        assert rows.shape == old.shape
        assert np.abs(rows.T @ rows - old.T @ old).max() < 1e-12

# the products of the catalog and of the benchmark workloads, by group
WRITTEN_DOWN_PRODUCTS = [
    ("su2", "zero", "zero"), ("su3", "so3", "so3"),
    ("su4", "sp2", "s_u_u1"), ("su4", "sp2", "su3"), ("su4", "su3", "su3"),
    ("so6", "so5", "u3"), ("so6", "so5", "su3"), ("so7", "g2", "so6"),
    ("so7", "g2", "so5so2"), ("so7", "g2", "so5"), ("so8", "so7", "sp2sp1"),
    ("so8", "so7", "sp2u1"), ("so8", "so7", "sp2"), ("so8", "spin7", "so7"),
    ("so16", "spin9", "so15"), ("so20", "so19", "u10"),
    ("su10", "su9", "su9"), ("so14", "cartan", "cartan"),
    ("so12", "zero", "zero"), ("su8", "cartan", "cartan"),
]
# every group of the catalog and of the benchmark, with each of its sigmas
WRITTEN_DOWN_DIAGONALS = [
    (group, sigma)
    for group in sorted({g for g, _, _ in WRITTEN_DOWN_PRODUCTS}
                        | {"so5", "sp5"})
    for sigma in ("id", "outer_su", "outer_so_even", "triality")
    if sigma == "id" or (sigma == "outer_su" and group.startswith("su"))
    or (sigma == "outer_so_even" and group.startswith("so")
        and int(group[2:]) % 2 == 0)
    or (sigma == "triality" and group == "so8")]
# (group, sigma, on): graphs over a factor, proper or not
WRITTEN_DOWN_SUB_DIAGONALS = [
    ("so8", "id", "so7"), ("so8", "triality", "so7"),
    ("so8", "outer_so_even", "so7"), ("so8", "triality", "spin7"),
    ("su3", "id", "so3"), ("su3", "outer_su", "su2"), ("su2", "id", "cartan"),
    ("so7", "id", "g2"), ("su4", "outer_su", "sp2"),
]


class TestWrittenDownRows:
    """product and diagonal_sigma write their rows down orthonormal, with
    the span that the rank cut of the unnormalized rows gives."""

    @staticmethod
    def check(h, rows, tol):
        assert np.abs(h.basis @ h.basis.T
                      - np.eye(h.dim)).max(initial=0.0) < 1e-12
        reference = split_span(rows)[0]
        assert reference.shape == h.basis.shape
        assert np.abs(h.basis.T @ h.basis
                      - reference.T @ reference).max(initial=0.0) < 1e-12

    @pytest.mark.parametrize("group,h1,h2", WRITTEN_DOWN_PRODUCTS)
    def test_product(self, group, h1, h2, tol):
        algebra = parse_group(group)
        f1 = resolve_factor(h1, algebra, tol)
        f2 = resolve_factor(h2, algebra, tol)
        rows = np.zeros((f1.dim + f2.dim, 2 * algebra.dim))
        rows[:f1.dim, :algebra.dim] = 3.0 * f1.basis
        rows[f1.dim:, algebra.dim:] = f2.basis
        self.check(product(f1, f2), rows, tol)

    @pytest.mark.parametrize("group,sigma", WRITTEN_DOWN_DIAGONALS)
    def test_diagonal(self, group, sigma, tol):
        algebra = parse_group(group)
        aut = make_automorphism(algebra, sigma, tol)
        rows = np.hstack([np.eye(algebra.dim), aut.matrix.T])
        self.check(diagonal_sigma(algebra, aut), rows, tol)

    @pytest.mark.parametrize("group,sigma,on", WRITTEN_DOWN_SUB_DIAGONALS)
    def test_diagonal_on(self, group, sigma, on, tol):
        algebra = parse_group(group)
        aut = make_automorphism(algebra, sigma, tol)
        k = resolve_factor(on, algebra, tol)
        rows = np.hstack([2.0 * k.basis, 2.0 * k.basis @ aut.matrix.T])
        h = resolve_subgroup(f"delta(sigma={sigma},on={on})", algebra, tol)
        assert h.dim == k.dim
        self.check(h, rows, tol)


def check_complement(h):
    """h's complement: orthonormal rows, orthogonal to h's basis, that fill
    the parent with it."""
    w = h.complement
    assert w.shape == (h.parent.dim - h.dim, h.parent.dim)
    assert np.abs(w @ w.T - np.eye(len(w))).max(initial=0.0) < 1e-12
    assert np.abs(w @ h.basis.T).max(initial=0.0) < 1e-12
    assert not w.flags.writeable
    assert h.complement is w   # computed once, then kept


class TestComplement:
    """full_subalgebra and zero_subalgebra write their complements down,
    from_matrices keeps the one it computed, a row selection the rows it
    drops, and every other subalgebra, a product too, takes split_span on
    first use; every way must give the same invariants."""

    @pytest.mark.parametrize("group,factor", BUILTIN_FACTORS)
    def test_builtin_factor(self, group, factor, tol):
        check_complement(resolve_factor(factor, classical(group), tol))

    @pytest.mark.parametrize("group,h1,h2", WRITTEN_DOWN_PRODUCTS + [
        ("su3", "full", "zero"), ("so5", "zero", "full"),
        ("su4", "so4", "sp2"), ("so9", "so8", "so7so2")])
    def test_product(self, group, h1, h2, tol):
        algebra = parse_group(group)
        check_complement(product(resolve_factor(h1, algebra, tol),
                                 resolve_factor(h2, algebra, tol)))

    @pytest.mark.parametrize("group", ["su2", "so5", "sp2"])
    def test_full_and_zero(self, group, tol, monkeypatch):
        # no rows and the identity are written down, with no SVD of the
        # identity; so40's took 0.2 s
        def refuse(*args, **kwargs):
            raise AssertionError("a written-down complement is solved for")

        monkeypatch.setattr(subalgebras, "split_span", refuse)
        algebra = parse_group(group)
        for h in (full_subalgebra(algebra, tol), zero_subalgebra(algebra),
                  full_subalgebra(algebra.double(), tol),
                  zero_subalgebra(algebra.double())):
            check_complement(h)

    def test_fallback_of_a_written_down_subalgebra(self, tol):
        algebra = parse_group("so8")
        for h in (resolve_subgroup("delta(sigma=triality)", algebra, tol),
                  resolve_factor("sp2sp1", algebra, tol)):
            check_complement(h)

    def test_from_matrices_keeps_only_its_rows(self, tol):
        # so20's u10 and its complement hold 8 * 190^2 bytes of rows.  A
        # view of the rows past the rank kept all of the split's square
        # V^T alive, 1.5 times that; a copy kept after the complement is
        # read, 1.5 times too
        so20 = parse_group("so20")
        tracemalloc.start()
        try:
            u10 = embeddings.u_in_so(so20, tol, 10)
            built = tracemalloc.get_traced_memory()[0]
            assert len(u10.complement) == 90
            read = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert max(built, read) < 1.2 * 8 * so20.dim ** 2

    def test_span_file_in_the_double(self, tmp_path, tol):
        # so(4) on the first four coordinates of so(5) on the left, and on
        # the last four on the right: 12 rows in the 20 of so5(+)so5
        so5 = parse_group("so5")
        mats = np.zeros((12, 10, 10))
        mats[:6, 0:4, 0:4] = so_basis(4)
        mats[6:, 6:10, 6:10] = so_basis(4)
        path = tmp_path / "so4_so4.txt"
        path.write_text("10\n" + "\n".join(
            " ".join(f"{x:g}" for x in mat.ravel()) for mat in mats) + "\n")
        h = resolve_subgroup(f"span(file={path})", so5, tol)
        assert h.dim == 12
        check_complement(h)


class TestDiagonalOn:
    """delta(on=<factor>): the graph of a twist over a factor of l."""

    @pytest.mark.parametrize("group,sigma", [
        ("su3", "id"), ("su4", "outer_su"), ("so6", "outer_so_even"),
        ("so8", "triality"), ("sp2", "id")])
    def test_full_is_no_on(self, group, sigma, tol):
        algebra = parse_group(group)
        whole = resolve_subgroup(f"delta(sigma={sigma})", algebra, tol)
        full = resolve_subgroup(f"delta(sigma={sigma},on=full)", algebra, tol)
        assert np.array_equal(whole.basis, full.basis)
        assert whole.name == full.name

    @pytest.mark.parametrize("group,sigma", [("su3", "id"),
                                             ("so8", "triality")])
    def test_zero_is_empty(self, group, sigma, tol):
        h = resolve_subgroup(f"delta(sigma={sigma},on=zero)",
                             parse_group(group), tol)
        assert h.dim == 0

    def test_factor_of_another_algebra_is_rejected(self, tol):
        su3, so3 = parse_group("su3"), parse_group("so3")
        with pytest.raises(InvalidInputError, match="different algebra"):
            diagonal_sigma(su3, make_automorphism(su3, "id", tol),
                           full_subalgebra(so3, tol))


def _open_so6_span(tol, corner):
    """The orthonormalized span (no closure check) of random so(6)
    vectors: the so(5) corner plus one, or two alone."""
    so6 = build_classical("so", 6)
    rng = np.random.default_rng(3)
    if corner:
        vecs = np.vstack([resolve_factor("so5", so6, tol).basis,
                          rng.standard_normal((1, so6.dim))])
    else:
        vecs = rng.standard_normal((2, so6.dim))
    return Subalgebra(so6, split_span(vecs)[0])


# name -> builder of a subalgebra whose closure residual is checked
CLOSURE_CASES = {
    "so5-in-so6": lambda tol: resolve_factor("so5", parse_group("so6"), tol),
    "spin7-in-so8": lambda tol: resolve_factor("spin7", parse_group("so8"),
                                               tol),
    "cartan-in-su4": lambda tol: resolve_factor("cartan", parse_group("su4"),
                                                tol),
    "open-so5-plus-one": lambda tol: _open_so6_span(tol, True),
    "open-two-vectors": lambda tol: _open_so6_span(tol, False),
    "su3-full-x-so3": lambda tol: resolve_subgroup(
        "product(h1=full,h2=so3)", parse_group("su3"), tol),
    "su3-delta-id": lambda tol: resolve_subgroup(
        "delta(sigma=id)", parse_group("su3"), tol),
    "su3-whole": lambda tol: full_subalgebra(parse_group("su3"), tol),
    "su3-zero": lambda tol: zero_subalgebra(parse_group("su3")),
    "u3-in-so6": lambda tol: resolve_factor("u3", parse_group("so6"), tol),
    "su3-in-su4": lambda tol: resolve_factor("su3", parse_group("su4"), tol),
}


class TestClosureReference:
    """closure_residual against brute force."""

    @staticmethod
    def brute_force(h):
        """outside_norm of every [H_i, H_j] against span H."""
        mats = h.parent.frobenius_matrices(h.basis)
        flat = mats.reshape(h.dim, int(np.prod(mats.shape[1:])))
        comms = commutator(mats[:, None], mats[None])
        return outside_norm(comms.reshape(-1, flat.shape[1]), flat)

    @pytest.mark.parametrize("case", sorted(CLOSURE_CASES))
    def test_branches_match_brute_force(self, case, tol):
        h = CLOSURE_CASES[case](tol)
        reference = self.brute_force(h)
        mats = h.parent.frobenius_matrices(h.basis)
        for residual in (h.closure_residual(), span_closure_residual(mats)):
            assert residual == pytest.approx(reference, abs=1e-12)

    def test_open_spans_are_open(self, tol):
        for corner in (True, False):
            assert _open_so6_span(tol, corner).closure_residual() > 0.1

    def test_whole_algebra_has_an_empty_complement(self, tol):
        for group in ("su3", "so6"):
            algebra = parse_group(group)
            assert full_subalgebra(algebra, tol).closure_residual() < 1e-14
            whole = resolve_subgroup("product(h1=full,h2=full)", algebra, tol)
            assert whole.closure_residual() < 1e-14


class TestAdjoint:
    def test_matches_exponential_of_ad(self, tol):
        algebra = build_classical("su", 3)
        x = np.random.default_rng(1).standard_normal(algebra.dim) / 4
        g = expm(algebra.matrix_of(x))
        ad_g = adjoint_matrix(algebra, g, tol.residual_tol)
        # oracle: Ad(exp X) = exp(ad X) in coordinates
        ad_x = algebra.coords_of(commutator(algebra.matrix_of(x),
                                            algebra.basis),
                                 tol.residual_tol).T
        assert np.abs(ad_g - expm(ad_x)).max() < 1e-10

    def test_preserves_form(self, tol):
        algebra = build_classical("so", 5)
        x = np.random.default_rng(2).standard_normal(algebra.dim) / 4
        ad_g = adjoint_matrix(algebra, expm(algebra.matrix_of(x)),
                              tol.residual_tol)
        # the form is a multiple of the identity in these coordinates
        assert np.abs(ad_g.T @ ad_g - np.eye(algebra.dim)).max() < 1e-9

    def test_rejects_non_normalizing_element(self, tol):
        algebra = build_classical("su", 2)
        bad = np.diag([1.0, -1.0, 1.0, 1.0])  # not in the represented group
        with pytest.raises(ClosureError):
            adjoint_matrix(algebra, bad, tol.residual_tol)


class TestConjugation:
    def test_conjugated_subalgebra_keeps_dim(self, tol):
        algebra = build_classical("so", 5)
        h = block_so(algebra, tol, 4)
        x = np.random.default_rng(3).standard_normal(algebra.dim) / 4
        moved = conjugated_subalgebra(h, expm(algebra.matrix_of(x)), tol)
        assert moved.dim == h.dim
        assert moved.closure_residual() < 1e-9

    def test_conjugated_pair_subalgebra(self, tol):
        algebra = build_classical("su", 3)
        h = diagonal_sigma(algebra, make_automorphism(algebra, "id", tol))
        rng = np.random.default_rng(4)
        a = expm(algebra.matrix_of(rng.standard_normal(algebra.dim) / 4))
        b = expm(algebra.matrix_of(rng.standard_normal(algebra.dim) / 4))
        moved = conjugated_pair_subalgebra(h, algebra, a, b, tol)
        assert moved.dim == h.dim
        assert moved.closure_residual() < 1e-9


class TestStackedEmbeddings:
    """Realified complex stacks give the matrices of the loops they
    replaced, bit for bit."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_sp_in_su(self, m, tol):
        expected = []
        for a in _u_basis_complex(m):
            z = np.zeros((2 * m, 2 * m), dtype=complex)
            z[:m, :m] = a
            z[m:, m:] = np.conj(a)
            expected.append(realify_complex(z))
        for i in range(m):
            for j in range(i, m):
                for value in (1.0, 1j):
                    b = np.zeros((m, m), dtype=complex)
                    b[i, j] = b[j, i] = value
                    z = np.zeros((2 * m, 2 * m), dtype=complex)
                    z[m:, :m] = b
                    z[:m, m:] = -np.conj(b)
                    expected.append(realify_complex(z))
        assert np.array_equal(classical_basis("sp", m), np.array(expected))
        # the stack spans the commutant of the quaternionic structure
        su = build_classical("su", 2 * m)
        mats = su.frobenius_matrices(embeddings.sp_in_su(su, tol, m).basis)
        assert np.abs(span_projector(mats)
                      - span_projector(j_conj_commutant(m, tol))).max() < 1e-12


def j_conj_commutant(m, tol):
    """The matrices of su(2m) that Ad(J o conj) fixes, J = [[0, -I],
    [I, 0]]: the nullspace of Ad(J o conj) - I, on orthonormal rows."""
    su = build_classical("su", 2 * m)
    zero, eye = np.zeros((m, m)), np.eye(m)
    j = realify_complex(np.block([[zero, -eye], [eye, zero]]))
    conj = np.kron(np.eye(2 * m), np.diag([1.0, -1.0]))
    moved = adjoint_matrix(su, j @ conj, tol.residual_tol) - np.eye(su.dim)
    _, sv, vt = np.linalg.svd(moved)
    return su.frobenius_matrices(vt[int(np.sum(sv > 1e-10 * sv[0])):])


def span_projector(mats):
    """Orthogonal projector onto the span of a stack of matrices."""
    mats = np.asarray(mats)
    flat = mats.reshape(len(mats), int(np.prod(mats.shape[1:])))
    _, sv, vt = np.linalg.svd(flat, full_matrices=False)
    onb = vt[:int(np.sum(sv > 1e-10 * sv.max(initial=0.0)))]
    return onb.T @ onb


class TestSpInSo:
    """sp(m) and its right scalars in so(4m), against right multiplication
    on H^m read off the quaternion table: sp(m) is the commutant of the
    right scalars i and j."""

    @staticmethod
    def right_units(m):
        # e_b e_c = sum_a table[b, c, a] e_a, so x -> x e_c acts on the
        # coordinates of one quaternion by table[:, c, :].T
        table = quaternion_table()
        return [np.kron(np.eye(m), table[:, c, :].T) for c in (1, 2, 3)]

    @staticmethod
    def factor_matrices(m, name, tol):
        ambient = build_classical("so", 4 * m)
        return ambient.frobenius_matrices(
            resolve_factor(name, ambient, tol).basis)

    @classmethod
    def commutant(cls, m):
        """so(4m) matrices that commute with the right scalars i and j."""
        basis = so_basis(4 * m)
        r_i, r_j, _ = cls.right_units(m)
        system = np.concatenate([commutator(basis, r).reshape(len(basis), -1)
                                 for r in (r_i, r_j)], axis=1)
        _, sv, vt = np.linalg.svd(system.T)
        kernel = vt[int(np.sum(sv > 1e-10 * sv[0])):]
        return np.einsum('kc,cab->kab', kernel, basis)

    @pytest.mark.parametrize("m", range(1, 5))
    def test_sp_is_the_commutant_of_the_right_scalars(self, m, tol):
        mats = self.factor_matrices(m, f"sp{m}", tol)
        assert len(mats) == m * (2 * m + 1)
        commutant = self.commutant(m)
        assert len(commutant) == len(mats)
        assert np.abs(span_projector(mats)
                      - span_projector(commutant)).max() < 1e-12

    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("suffix,scalars", [("u1", 1), ("sp1", 3)])
    def test_right_factor_adds_the_right_scalars(self, m, suffix, scalars,
                                                 tol):
        mats = self.factor_matrices(m, f"sp{m}{suffix}", tol)
        expected = [*self.commutant(m), *self.right_units(m)[:scalars]]
        assert len(mats) == len(expected)
        assert np.abs(span_projector(mats)
                      - span_projector(expected)).max() < 1e-12


# The laid-out references of the factors that embeddings reads off the
# basis of build_classical as row selections (TestRowSelection).


def block_so_reference(n, *sizes):
    """so_basis of each size on consecutive diagonal blocks of n x n
    matrices, from the first coordinate."""
    mats, offset = [], 0
    for k in sizes:
        block = np.zeros((k * (k - 1) // 2, n, n))
        block[:, offset:offset + k, offset:offset + k] = so_basis(k)
        mats.append(block)
        offset += k
    return np.concatenate(mats)


def su_block_reference(n, k, offset=0):
    """su(k) on the complex coordinates offset..offset+k-1 of su(n),
    realified."""
    corner = _u_basis_complex(k, special=True)
    block = np.zeros((len(corner), n, n), dtype=complex)
    block[:, offset:offset + k, offset:offset + k] = corner
    return realify_complex(block)


def s_u_reference(p, q):
    """The su(p) and su(q) corners of su(p+q) and the traceless
    i-diagonal, realified."""
    diagonal = realify_complex(np.diag([1j * q] * p + [-1j * p] * q))
    return np.concatenate([su_block_reference(p + q, p),
                           su_block_reference(p + q, q, p), diagonal[None]])


def cartan_reference(family, n):
    """The standard maximal torus: the planes E_2k,2k+1 - E_2k+1,2k of
    so(n); i (E_kk - E_k+1,k+1) of su(n) and [[i E_kk, 0], [0, -i E_kk]]
    of sp(n), realified."""
    if family == "so":
        mats = np.zeros((n // 2, n, n))
        k = np.arange(n // 2)
        mats[k, 2 * k, 2 * k + 1], mats[k, 2 * k + 1, 2 * k] = 1.0, -1.0
        return mats
    if family == "su":
        diagonals = 1j * (np.eye(n - 1, n) - np.eye(n - 1, n, 1))
    else:
        diagonals = 1j * np.hstack([np.eye(n), -np.eye(n)])
    return realify_complex(diagonals[:, None, :] * np.eye(len(diagonals[0])))


# every group the row-selection sweep covers
MASK_GROUPS = ([f"so{n}" for n in range(3, 21)]
               + [f"su{n}" for n in range(2, 13)]
               + [f"sp{n}" for n in range(1, 8)])


def mask_factors(group):
    """(factor, laid-out reference) of every row-selected factor of a
    group: the cartan; every so(k) corner and ordered so(p)so(q) pair of
    so(n); and so(n), every su(k) corner and every s(u(p)u(q)) of su(n)."""
    family, n = split_name(group)
    yield "cartan", cartan_reference(family, n)
    if family == "so":
        for k in range(2, n + 1):
            yield f"so{k}", block_so_reference(n, k)
        for p in range(1, n):
            for q in range(1, n - p + 1):
                yield f"so{p}so{q}", block_so_reference(n, p, q)
    elif family == "su":
        yield f"so{n}", realify_complex(so_basis(n))
        for k in range(2, n + 1):
            yield f"su{k}", su_block_reference(n, k)
        for p in range(1, n):
            yield f"s_u{p}u{n - p}", s_u_reference(p, n - p)
        yield "s_u_u1", s_u_reference(n - 1, 1)


def built_factor(ambient, factor, tol):
    """The FACTORS entry factor of ambient, built afresh, past the cache."""
    return specs._named_factor.__wrapped__(ambient, factor, tol.residual_tol)


class TestRowSelection:
    """block_so, su_corner_in_su, s_u_in_su, so_in_su and cartan_subalgebra
    keep the rows of build_classical's basis whose matrices vanish off a
    support mask: they span the subspaces that were laid out by hand, and
    the other rows span the complement."""

    @pytest.mark.parametrize("group", MASK_GROUPS)
    def test_spans_the_laid_out_factor(self, group, tol):
        ambient = classical(group)
        for factor, reference in mask_factors(group):
            h = built_factor(ambient, factor, tol)
            mats = ambient.frobenius_matrices(h.basis)
            assert h.dim == len(reference), factor
            assert np.abs(span_projector(mats) - span_projector(reference)
                          ).max() < 1e-14, factor

    @pytest.mark.parametrize("group", MASK_GROUPS)
    def test_complement_is_the_other_rows(self, group, tol):
        ambient = classical(group)
        for factor, _ in mask_factors(group):
            h = built_factor(ambient, factor, tol)
            assert not np.any(h.basis @ h.complement.T), factor
            rows = np.vstack([h.basis, h.complement])
            assert np.array_equal(rows[np.argsort(rows.argmax(axis=1))],
                                  np.eye(ambient.dim)), factor

    def test_lays_out_no_matrix(self, tol, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a row selection reads no matrix")

        monkeypatch.setattr(LieAlgebra, "coords_of", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        for group in ("so9", "su6", "sp3"):
            ambient = classical(group)
            for factor, reference in mask_factors(group):
                h = built_factor(ambient, factor, tol)
                assert (h.dim, len(h.complement)) == (
                    len(reference), ambient.dim - len(reference)), factor

    @staticmethod
    def check_span(group, factor, reference, tol):
        ambient = parse_group(group)
        mats = ambient.frobenius_matrices(
            resolve_factor(factor, ambient, tol).basis)
        assert len(mats) == len(reference)
        assert np.abs(span_projector(mats)
                      - span_projector(reference)).max() < 1e-12

    # the same spans as the sweep, reached by name through parse_group and
    # the factor cache

    @pytest.mark.parametrize("n", range(2, 11))
    def test_so_in_su_is_the_real_points(self, n, tol):
        self.check_span(f"su{n}", f"so{n}", realify_complex(so_basis(n)),
                        tol)

    @pytest.mark.parametrize("p,q", [(p, n - p) for n in range(2, 11)
                                     for p in range(1, n)])
    def test_s_u_is_block_diagonal(self, p, q, tol):
        self.check_span(f"su{p + q}", f"s_u{p}u{q}", s_u_reference(p, q), tol)
        if q == 1:
            self.check_span(f"su{p + 1}", "s_u_u1", s_u_reference(p, 1), tol)

    @pytest.mark.parametrize("group,factor", [
        ("su4", "s_u0u4"), ("su5", "s_u2u2"), ("so4", "s_u1u1")])
    def test_s_u_blocks_must_fill_the_group(self, group, factor, tol):
        with pytest.raises(InvalidInputError, match="does not embed"):
            resolve_factor(factor, classical(group), tol)

    @pytest.mark.parametrize("family,n,factor", [
        ("so", 5, "so3"), ("so", 5, "so2so3"), ("so", 5, "cartan"),
        ("su", 3, "su2"), ("su", 3, "so3"), ("su", 3, "s_u_u1"),
        ("su", 3, "cartan"), ("sp", 2, "cartan")])
    def test_another_basis_is_rejected(self, family, n, factor, tol):
        # the same span on another orthonormal basis: its zeros are not the
        # ones a mask reads
        algebra = LieAlgebra.from_basis(f"{family}{n}'",
                                        classical_basis(family, n),
                                        family=family, n=n)
        with pytest.raises(InvalidInputError, match="build_classical"):
            built_factor(algebra, factor, tol)


# every sp and g2 factor: sp(k) in su(2k) and so(4k), with each right factor
WRITTEN_DOWN_FACTORS = (
    [(f"su{2 * k}", f"sp{k}") for k in range(1, 7)]
    + [(f"so{4 * k}", f"sp{k}{suffix}") for k in range(1, 6)
       for suffix in ("", "u1", "sp1")]
    + [("so7", "g2")])


class TestWrittenDown:
    """sp(m) and g2 are written-down matrices read by from_matrices: no
    Ad(s) and no triality solve builds them."""

    @pytest.mark.parametrize("group,factor", WRITTEN_DOWN_FACTORS)
    def test_solves_for_nothing(self, group, factor, tol, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a written-down factor is solved for")

        monkeypatch.setattr(lie_algebras, "adjoint_matrix", refuse)
        monkeypatch.setattr(lie_algebras, "triality_matrix", refuse)
        # what those two solve with, whatever name reaches them
        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        h = built_factor(classical(group), factor, tol)
        assert h.dim == factor_dimension(group, factor)
        assert len(h.complement) == h.parent.dim - h.dim
