"""Parsing of group names and the subgroup mini-language.

Groups are the simple classical ones, named family+n, e.g. 'su3', 'so8',
'sp2'.  Subgroups of L x L are written as:

    delta(sigma=id|outer_su|outer_so_even|triality, on=<factor>)
    product(h1=<factor>, h2=<factor>)
    span(file=path)                       # block-diagonal matrices in l(+)l

delta is the graph of sigma (default id) over the factor on (default l).
Factors (subalgebras of l) are the names in FACTORS or span(file=path).
A named factor reads no seed, so it is built once per process for each
algebra and each residual_tol and then shared; a span file is read and
checked on every call.
"""

import re
from functools import lru_cache, partial

import numpy as np

from . import embeddings as emb
from .errors import ClosureError, InvalidInputError
from .lie_algebras import build_classical, make_automorphism
from .numerics import ToleranceConfig
from .spanfile import parse_span_file
from .subalgebras import (Subalgebra, diagonal_sigma, full_subalgebra,
                          product, zero_subalgebra)

_GROUP_RE = re.compile(r"^(su|so|sp|u)(\d+)$")
_CALL_RE = re.compile(r"^([a-z_0-9]+)\((.*)\)$", re.S)


def parse_group(name):
    """Resolve the name of a simple group like 'su3' to its Lie algebra.

    so2 (abelian), so4 (su2(+)su2) and u<n> (u1(+)su(n)) are not simple:
    on them -tr(XY) is one biinvariant metric among many, so they are
    rejected here; build_classical builds so2 and so4 only as ambients of
    factors, and u<n> not at all.
    """
    m = _GROUP_RE.match(name.strip().lower())
    if not m:
        raise InvalidInputError(
            f"cannot parse group {name!r} (expected e.g. su3, so8, sp2)")
    family, n = m.group(1), int(m.group(2))
    if family == "u" or (family == "so" and n in (2, 4)):
        raise InvalidInputError(
            f"group {name!r} is not simple (expected su(n>=2), so(3), "
            "so(n>=5) or sp(n>=1))")
    return build_classical(family, n)


def _split_args(body):
    """Split 'k1=v1, k2=v2' at top-level commas, respecting parentheses;
    a key given twice or an unbalanced parenthesis is invalid input."""
    parts, depth, current = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InvalidInputError(
                    f"unbalanced parenthesis: a ')' in {body!r} closes "
                    "nothing")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth:
        raise InvalidInputError(
            f"unbalanced parenthesis: a '(' in {body!r} is never closed")
    if current:
        parts.append("".join(current))
    args = {}
    for part in parts:
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InvalidInputError(f"expected key=value, got {part!r}")
        key, value = (side.strip() for side in part.split("=", 1))
        if key in args:
            raise InvalidInputError(f"key {key!r} is given twice")
        args[key] = value
    return args


# a residual at most this is roundoff: 64 units in the last place of 1
_ROUNDOFF = 64 * np.finfo(float).eps


def _failed_check(exc, what, residual_tol):
    """The ClosureError exc, its message led by what failed and the
    residual_tol it failed at, and its residual kept.  A residual of at
    most _ROUNDOFF is said to be roundoff, the residual_tol finer than
    double precision can check."""
    message = f"{what} fails its check at residual_tol {residual_tol:g}: {exc}"
    if exc.residual is not None and exc.residual <= _ROUNDOFF:
        message += ("; the residual is roundoff, and residual_tol "
                    f"{residual_tol:g} is finer than double precision can "
                    "check")
    named = ClosureError(message)
    named.residual = exc.residual
    return named


def _span(args, algebra, tol):
    """Subalgebra spanned by the matrices of a span file, named
    span(file=<path>), which leads every failed check's message."""
    if set(args) != {"file"}:
        raise InvalidInputError("span takes exactly file=...")
    name = f"span(file={args['file']})"
    size, mats = parse_span_file(args["file"])
    if size != algebra.ambient_size:
        raise InvalidInputError(
            f"span file ambient size {size} does not match "
            f"{algebra.name} (size {algebra.ambient_size})")
    try:
        vecs = algebra.coords_of(mats, member_tol=tol.residual_tol)
        return Subalgebra.from_vectors(algebra, vecs, tol, name=name)
    except ClosureError as exc:
        raise _failed_check(exc, f"{name} in {algebra.name}",
                            tol.residual_tol) from exc


_FAMILIES = ("su", "so", "sp")

# Factors of l by name: (pattern, {family of l: builder}).  Every builder
# is called as builder(l, tol, *integers in the name), and the embeddings
# take their arguments in that order, so the table names them directly:
# partial only fixes a keyword, the zero factor, which reads no tolerance,
# drops tol, and s_u_u1 reads its blocks off the size of l.  A builder
# raises InvalidInputError itself when the factor does not fit the size of l.
FACTORS = [
    ("full", dict.fromkeys(_FAMILIES, full_subalgebra)),
    ("zero", dict.fromkeys(_FAMILIES,
                           lambda ambient, tol: zero_subalgebra(ambient))),
    ("cartan", dict.fromkeys(("su", "so", "sp"), emb.cartan_subalgebra)),
    ("g2", {"so": emb.g2_in_so7}),
    (r"spin(\d+)", {"so": emb.spin_subalgebra}),
    ("s_u_u1", {"su": lambda ambient, tol:
                emb.s_u_in_su(ambient, tol, ambient.n - 1, 1)}),
    (r"s_u(\d+)u(\d+)", {"su": emb.s_u_in_su}),
    (r"so(\d+)", {"su": emb.so_in_su, "so": emb.block_so}),
    (r"so(\d+)so(\d+)", {"so": emb.block_so}),
    (r"su(\d+)",
     {"su": emb.su_corner_in_su, "so": partial(emb.u_in_so, special=True)}),
    (r"u(\d+)", {"so": emb.u_in_so}),
    (r"sp(\d+)", {"su": emb.sp_in_su, "so": emb.sp_in_so}),
    (r"sp(\d+)sp1", {"so": partial(emb.sp_in_so, right_units=3)}),
    (r"sp(\d+)u1", {"so": partial(emb.sp_in_so, right_units=1)}),
]


@lru_cache(maxsize=None)
def _named_factor(algebra, name, residual_tol):
    """The FACTORS entry name on algebra, or None if no pattern matches.

    Keyed on exactly what a builder reads: algebra, unique per process
    through build_classical, the lower-cased name and residual_tol.  A
    factor that does not fit raises on every call, since lru_cache stores
    no exception.  A ClosureError from a builder's checks is raised again
    with the factor, the algebra and the residual_tol it failed.
    """
    tol = ToleranceConfig(residual_tol=residual_tol)
    for pattern, builders in FACTORS:
        match = re.fullmatch(pattern, name)
        if match:
            if algebra.family not in builders:
                raise InvalidInputError(
                    f"{name} does not embed in {algebra.name}")
            try:
                return builders[algebra.family](
                    algebra, tol, *map(int, match.groups()))
            except ClosureError as exc:
                raise _failed_check(exc, f"factor {name} of {algebra.name}",
                                    residual_tol) from exc
    return None


def resolve_factor(spec, algebra, tol):
    """Resolve a subalgebra-of-l spec string: a FACTORS name or span(...).

    A named factor is built once per process for each algebra and each
    tol.residual_tol, and every later call returns the same Subalgebra,
    whose basis is read-only; a span file is read and checked on every
    call.
    """
    spec = spec.strip()
    call = _CALL_RE.match(spec)
    if call and call.group(1) == "span":
        return _span(_split_args(call.group(2)), algebra, tol)
    factor = _named_factor(algebra, spec.lower(), tol.residual_tol)
    if factor is None:
        raise InvalidInputError(
            f"unknown subalgebra spec {spec!r} for {algebra.name}")
    return factor


def resolve_subgroup(spec, algebra, tol):
    """Resolve a subgroup-of-LxL spec string to a Subalgebra of l(+)l."""
    spec = spec.strip()
    call = _CALL_RE.match(spec)
    if not call:
        raise InvalidInputError(
            f"cannot parse subgroup spec {spec!r}; expected delta(...), "
            "product(...) or span(file=...)")
    head, body = call.group(1), call.group(2)
    args = _split_args(body)
    if head == "delta":
        sigma, on = args.pop("sigma", "id"), args.pop("on", None)
        if args:
            raise InvalidInputError(f"delta got unexpected keys {sorted(args)}")
        return diagonal_sigma(
            algebra, make_automorphism(algebra, sigma, tol),
            None if on is None else resolve_factor(on, algebra, tol))
    if head == "product":
        if set(args) != {"h1", "h2"}:
            raise InvalidInputError("product takes exactly h1=..., h2=...")
        return product(resolve_factor(args["h1"], algebra, tol),
                       resolve_factor(args["h2"], algebra, tol))
    if head == "span":
        return _span(args, algebra.double(), tol)
    raise InvalidInputError(f"unknown subgroup constructor {head!r}")
