"""Total orders on exponents and the graded monomial stream.

Two orders are provided.  The degree order compares total degree first
and breaks ties at the first index where the exponents differ, smaller
entry first.  (Despite the traditional name attached to this family of
orders, the tie rule here is the graded-lexicographic one; it is the
rule every downstream result actually relies on, via the two facts that
lower total degree sorts first and that the order respects addition of
exponents.)  The body-graded order compares exact gauges first and
falls back to the degree order on exact ties; it respects the grading
by the body but is *not* compatible with exponent addition for
non-simplex bodies -- see the test suite for a concrete violation.
`check_orderings` is the one reader of a run's orderings, in the CLI
and in every library call that takes them.
"""

from __future__ import annotations

from .body import ConvexBody, Exponent, as_int
from .errors import DimensionMismatch, ValidationError

LESS, EQUAL, GREATER = -1, 0, 1

GREVLEX = "grevlex"
CGREVLEX = "cgrevlex"
ORDERINGS = (GREVLEX, CGREVLEX)


def _check_dims(alpha, beta):
    if len(alpha) != len(beta):
        raise DimensionMismatch(f"exponents {alpha} and {beta} have different dimensions")


def grevlex_key(alpha: Exponent):
    """Sort key for the degree order: total degree, then entries left to right."""
    return (sum(alpha), tuple(alpha))


def grevlex_cmp(alpha: Exponent, beta: Exponent) -> int:
    """-1, 0, or 1 as alpha precedes, equals, or follows beta in the degree order."""
    _check_dims(alpha, beta)
    ka, kb = grevlex_key(alpha), grevlex_key(beta)
    return LESS if ka < kb else (GREATER if ka > kb else EQUAL)


def cgrevlex_key(body: ConvexBody, alpha: Exponent):
    """Sort key for the body-graded order: exact gauge, then the degree key."""
    return (body.gauge(alpha), sum(alpha), tuple(alpha))


def cgrevlex_cmp(body: ConvexBody, alpha: Exponent, beta: Exponent) -> int:
    """-1, 0, or 1 under the body-graded order (gauge first, degree-order tiebreak)."""
    _check_dims(alpha, beta)
    ka, kb = cgrevlex_key(body, alpha), cgrevlex_key(body, beta)
    return LESS if ka < kb else (GREATER if ka > kb else EQUAL)


def check_orderings(orderings, field: str = "orderings") -> tuple[str, ...]:
    """`orderings` as a tuple, or ValidationError naming `field` unless it is a
    non-empty list or tuple of names from ORDERINGS (a string is refused)."""
    if not isinstance(orderings, (list, tuple)) or not orderings or not all(
            name in ORDERINGS for name in orderings):
        raise ValidationError(f"{field} must be a non-empty sequence of names from {list(ORDERINGS)}, "
                              f"got {orderings!r}")
    return tuple(orderings)


def order_key(body: ConvexBody, ordering: str):
    """Key function for one of the two orderings, validating the name."""
    if ordering == GREVLEX:
        return grevlex_key
    if ordering == CGREVLEX:
        return lambda alpha: cgrevlex_key(body, alpha)
    raise ValidationError(f"unknown ordering {ordering!r}; expected one of {ORDERINGS}")


def monomial_sequence(body: ConvexBody, count: int) -> list[Exponent]:
    """First `count` exponents of Z^N_+ in strictly increasing body-graded order.

    The stream is prefix stable: the first M_k entries are exactly the
    lattice points of kC, because membership at gauge level k is downward
    closed under the order.
    """
    if (count := as_int(count, "count")) < 1:
        raise ValidationError("count must be >= 1")
    k = 1
    pts = body.lattice_points(k)
    while len(pts) < count:
        k += 1
        pts = body.lattice_points(k)
    return list(pts[:count])
