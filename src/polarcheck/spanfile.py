"""Text ingestion of custom spans.

Schema: optional '#' comment lines; the first token is the ambient matrix
size s; every following group of s*s finite decimal reals is one basis
matrix in row-major order.

A span file is input from outside the program: parse_span_file rejects
malformed and non-finite entries, and the matrices then pass the membership
check of coords_of (on l(+)l, the off-diagonal blocks and then each
diagonal block) and the closure check of Subalgebra.from_vectors, so a bad
file is rejected with the failing residual.  Unlike a built-in embedding's,
they may be dependent.
"""

import numpy as np

from .errors import InvalidInputError


def parse_span_file(path):
    """Return (ambient_size, list of matrices) from a span file."""
    tokens = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.split("#", 1)[0]
                tokens.extend(line.split())
    except OSError as exc:
        raise InvalidInputError(f"cannot read span file {path}: {exc}") from exc
    if not tokens:
        raise InvalidInputError(f"span file {path} is empty")
    try:
        size = int(tokens[0])
    except ValueError as exc:
        raise InvalidInputError(
            f"span file {path}: first token must be the ambient size") from exc
    if size < 1:
        raise InvalidInputError(f"span file {path}: ambient size must be >= 1")
    values = tokens[1:]
    per_matrix = size * size
    if not values or len(values) % per_matrix != 0:
        raise InvalidInputError(
            f"span file {path}: expected a multiple of {per_matrix} entries "
            f"after the size, got {len(values)}")
    try:
        data = np.array([float(v) for v in values])
    except ValueError as exc:
        raise InvalidInputError(
            f"span file {path}: non-numeric entry ({exc})") from exc
    if not np.isfinite(data).all():
        raise InvalidInputError(
            f"span file {path}: non-finite entry (nan or inf)")
    return size, list(data.reshape(-1, size, size))
