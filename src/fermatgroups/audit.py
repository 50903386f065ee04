"""Machine verification bundle: every claimed identity checked with witnesses.

Each audit function re-derives one family of identities by an independent
route (matrix products against parameter composition, dense cyclotomic
products against the permutation-exponent law, closed forms on the integer
triples of `search` against the verified transitivity solver, orbit sizes
against the orbit-stabilizer count) and reports exact counts plus concrete
witnesses, the identity audits printed from integers with no Fraction.
`run_audit_suite` bundles them into one JSON-able dict whose content
depends only on the seed and the stated bounds, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import factorial, gcd

from . import monomial, search
from .conic import CIRCLE, HYPERBOLA, DeltaIdentityAudit, lowest_terms
from .cyclotomic import CyclotomicNumber
from .rationals import INF, format_pair, integer, projective_pair

__all__ = [
    "circle_identity_sweep",
    "circle_law_sample",
    "hyperbola_identity_sweep",
    "monomial_law_sample",
    "orbit_cardinality_audit",
    "rational_subgroup_audit",
    "render_identity_audit",
    "run_audit_suite",
]

SPECIAL_DELTAS = (Fraction(0), Fraction(1), Fraction(-1), INF)
_SPECIAL_PAIRS = tuple(map(projective_pair, SPECIAL_DELTAS))


def _side(pair: tuple[int, int]) -> "str | None":
    # the indeterminate (0 : 0) prints as None
    return format_pair(*lowest_terms(*pair)) if any(pair) else None


def render_identity_audit(audit) -> dict:
    """The report entry of a `DeltaIdentityAudit` or of a pair `Conic.identity_pairs` yields; it builds no Fraction."""
    record = DeltaIdentityAudit(*audit)
    (a0, b0, c0), (a, b, c) = record.source_triple, record.target_triple
    return {
        "pair": f"({format_pair(a0, c0)},{format_pair(b0, c0)}) -> ({format_pair(a, c)},{format_pair(b, c)})",
        "left": _side(record.left_pair),
        "right": _side(record.right_pair),
        "solver": _side(record.solver_pair),
        "sides_equal": record.sides_equal,
        "left_matches_solver": record.left_matches_solver,
        "right_matches_solver": record.right_matches_solver,
        "excluded_case": record.excluded_case,
    }


def _random_pair(rng: random.Random, span: int = 30) -> tuple[int, int]:
    """A reduced parameter pair (n : m): inf one time in twenty, else n/m with |n| <= span, 1 <= m <= span."""
    if rng.random() < 0.05:
        return 1, 0
    # randint(a, b) is randrange(a, b + 1), so the stream is randint's
    n, m = rng.randrange(-span, span + 1), rng.randrange(1, span + 1)
    common = gcd(n, m)
    return n // common, m // common


def circle_law_sample(rng: random.Random, pairs: int = 2000) -> dict:
    """Check L(d1)·L(d2) = L(compose(d1, d2)) on sampled and special pairs.

    Every pair of the four special parameters {0, 1, -1, inf} is always
    included, so all pole cases of the composition law are exercised on each
    run; the remaining pairs are drawn from the seeded generator, each just
    before its check, so no list of pairs is held.  Parameters are reduced
    integer pairs (n : m), composed by `compose_pair`; the matrices are
    integer entries over a scale, and two of them are equal when their
    entries cross-multiplied by the other's scale are.
    """
    integer(pairs, 0, "law pairs")
    mismatches = []
    special = [(first, second) for first in _SPECIAL_PAIRS for second in _SPECIAL_PAIRS]
    sampled = ((_random_pair(rng), _random_pair(rng)) for _ in range(pairs - len(special)))
    compose, matrix = CIRCLE.compose_pair, CIRCLE.matrix_pair
    for first, second in chain(special, sampled):
        (l11, l12, l21, l22), law_scale = matrix(*compose(first, second))
        (p11, p12, p21, p22), p_scale = matrix(*first)
        (q11, q12, q21, q22), q_scale = matrix(*second)
        scale = p_scale * q_scale
        # a zero scale is the indeterminate (0 : 0), which no rotation has
        if not (
            law_scale
            and (p11 * q11 + p12 * q21) * law_scale == l11 * scale
            and (p11 * q12 + p12 * q22) * law_scale == l12 * scale
            and (p21 * q11 + p22 * q21) * law_scale == l21 * scale
            and (p21 * q12 + p22 * q22) * law_scale == l22 * scale
        ):
            mismatches.append((format_pair(*first), format_pair(*second)))
    return {
        "pairs_checked": max(pairs, len(special)),
        "special_pairs": len(special),
        "mismatches": mismatches,
        "holds": not mismatches,
    }


def _dense_matrix(element: monomial.MonomialMatrix) -> tuple[tuple[int, ...], ...]:
    # full matrix as indices; only verification code ever materializes this.
    # index l stands for omega^l and -1 for 0, as in the table `monomial_law_sample` builds
    n = element.n
    rows = []
    for i in range(n):
        row = [-1] * n
        row[element.perm[i]] = element.exponents[i]
        rows.append(tuple(row))
    return tuple(rows)


def _dense_mul(a, b, products, zero: CyclotomicNumber):
    # the product of two index matrices as CyclotomicNumbers: products[l][m] is omega^l * omega^m
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            total = zero
            for m in range(n):
                if a[i][m] >= 0 and b[m][j] >= 0:
                    total = total + products[a[i][m]][b[m][j]]
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


def monomial_law_sample(rng: random.Random, pairs: int = 300) -> dict:
    """Check the permutation-exponent product against dense matrix products.

    The dense matrices hold indices into one table [omega^0, ..., omega^(k-1), 0]
    per order k, so -1 stands for 0.  With it comes the table of the k^2
    products omega^l * omega^m, built by `CyclotomicNumber` multiplication;
    the terms of a product entry are summed by `CyclotomicNumber` addition.
    """
    integer(pairs, 0, "law pairs")
    tables = {}
    for k in range(3, 7):
        powers = [CyclotomicNumber.root_of_unity(k, l) for l in range(k)]
        tables[k] = powers + [CyclotomicNumber.zero(k)], [[x * y for y in powers] for x in powers]
    checked = 0
    mismatches = []
    for _ in range(pairs):
        k = rng.randint(3, 6)
        n = rng.randint(1, 3)
        # each element draws its permutation, then its exponents
        first, second = (
            monomial.MonomialMatrix(k, rng.sample(range(n), n), [rng.randrange(k) for _ in range(n)])
            for _ in range(2)
        )
        law = first * second
        powers, products = tables[k]
        dense = _dense_mul(_dense_matrix(first), _dense_matrix(second), products, powers[-1])
        checked += 1
        if tuple(tuple(map(powers.__getitem__, row)) for row in _dense_matrix(law)) != dense:
            mismatches.append({"first": first.as_dict(), "second": second.as_dict(), "k": k})
    return {
        "pairs_checked": checked,
        "mismatches": mismatches,
        "holds": not mismatches,
    }


def circle_identity_sweep(bound: int = 50) -> dict:
    """Evaluate both circle closed forms on every pair of bounded points.

    On the circle the two forms agree with each other and with the solver on
    every pair where both are defined; pairs with an indeterminate side are
    counted separately.  The returned witness is the smallest nontrivial
    point pair in the sweep order.  The pairs are tallied by cross-products,
    and only a pair the report prints is rendered.
    """
    points = search.circle_triples(bound)
    both_defined = agree = 0
    side_mismatches: list[dict] = []
    solver_mismatches: list[dict] = []
    witness = None
    for pair in CIRCLE.identity_pairs(points, points):
        _, _, (ln, lm), (rn, rm), (n, m) = pair
        # (0 : 0) is an indeterminate side
        if not (ln or lm) or not (rn or rm):
            continue
        both_defined += 1
        if ln * rm == rn * lm:
            agree += 1
        else:
            side_mismatches.append(render_identity_audit(pair))
        if ln * m != n * lm or rn * m != n * rm:
            solver_mismatches.append(render_identity_audit(pair))
        if witness is None and n:
            witness = render_identity_audit(pair)
    pairs = len(points) ** 2
    return {
        "height": bound,
        "points": len(points),
        "pairs": pairs,
        "both_defined": both_defined,
        "sides_agree": agree,
        "undefined_pairs": pairs - both_defined,
        "side_mismatches": side_mismatches,
        "solver_mismatches": solver_mismatches,
        "identity_holds": both_defined == agree and not solver_mismatches,
        "witness": witness,
    }


def hyperbola_identity_sweep(bound: int = 50) -> dict:
    """Evaluate both hyperbola closed forms on every pair of bounded points.

    The right-hand form tracks the verified solver wherever defined.  The
    left-hand form does not: the sweep counts how often the two sides agree
    and preserves the first disagreements verbatim, because the mismatch is
    itself the finding.  As in `circle_identity_sweep`, only printed pairs
    are rendered.
    """
    points = search.hyperbola_triples(bound)
    both_defined = agree = 0
    right_defined = right_agrees_solver = 0
    disagreement_witnesses: list[dict] = []
    right_solver_mismatches: list[dict] = []
    witness = render_identity_audit(next(HYPERBOLA.identity_pairs([(5, 3, 4)], [(5, 4, 3)])))
    for pair in HYPERBOLA.identity_pairs(points, points):
        _, _, (ln, lm), (rn, rm), (n, m) = pair
        # (0 : 0) is an indeterminate side; both sides are defined only where the right one is
        if not (rn or rm):
            continue
        right_defined += 1
        if rn * m == n * rm:
            right_agrees_solver += 1
        else:
            right_solver_mismatches.append(render_identity_audit(pair))
        if not (ln or lm):
            continue
        both_defined += 1
        if ln * rm == rn * lm:
            agree += 1
        elif len(disagreement_witnesses) < 5:
            disagreement_witnesses.append(render_identity_audit(pair))
    pairs = len(points) ** 2
    return {
        "height": bound,
        "points": len(points),
        "pairs": pairs,
        "both_defined": both_defined,
        "sides_agree": agree,
        "sides_disagree": both_defined - agree,
        "undefined_pairs": pairs - both_defined,
        "right_defined": right_defined,
        "right_agrees_solver": right_agrees_solver,
        "right_solver_mismatches": right_solver_mismatches,
        "right_form_tracks_solver": right_defined == right_agrees_solver,
        "left_form_discrepant": both_defined > agree,
        "witness": witness,
        "disagreement_witnesses": disagreement_witnesses,
    }


def rational_subgroup_audit(ks=(3, 4, 5), n: int = 2) -> list[dict]:
    """Certify the rational-entry subgroups for several orders k."""
    out = []
    for k in ks:
        report = monomial.rational_elements(k, n)
        out.append(
            {
                "k": k,
                "n": n,
                "order": report.order,
                "plain_permutation_count": factorial(n),
                "signed_permutation_count": 2**n * factorial(n),
                "is_group": report.is_group,
                "permutations_only": report.permutations_only,
                "matches_plain_permutations": report.order == factorial(n)
                and report.permutations_only,
                "exceeds_plain_permutations": report.order > factorial(n),
            }
        )
    return out


def orbit_cardinality_audit(ks=(3, 4, 5, 6, 7, 8)) -> list[dict]:
    """Orbit sizes of marker vectors in dimension 2, with stabilizer checks.

    A generic vector (components differing, neither zero, unrelated by root
    powers) has trivial stabilizer, so its orbit size equals the group order
    2k^2; the axis vector (1, 0) and the diagonal vector (1, 1) have
    stabilizers of orders k and 2 respectively.  Each row verifies the
    orbit-stabilizer product exactly.
    """
    out = []
    for k in ks:
        order = monomial.group_order(k, 2)
        rows = {}
        for label, components in (
            ("generic", (2, 3)),
            ("axis", (1, 0)),
            ("diagonal", (1, 1)),
        ):
            _, points, stab_size = monomial.orbit_census(components, k)
            orbit_size = len(points)
            rows[label] = {
                "vector": f"{components[0]},{components[1]}",
                "orbit": orbit_size,
                "stabilizer": stab_size,
                "product_is_group_order": orbit_size * stab_size == order,
            }
        out.append(
            {
                "k": k,
                "group_order": order,
                "generic_orbit_is_group_order": rows["generic"]["orbit"] == order,
                "orbits": rows,
            }
        )
    return out


def run_audit_suite(seed: int = 0, identity_bound: int = 50, law_pairs: int = 2000) -> dict:
    """Run every audit with one seeded generator and bundle the reports.

    The report is pure data (strings, ints, bools) and depends only on the
    arguments, so identical invocations serialize identically.  The seed
    is any int, negative ones too, but never a bool or a float.
    """
    rng = random.Random(integer(seed, None, "audit seed"))
    report = {
        "seed": seed,
        "identity_height": identity_bound,
        "circle_group_law": circle_law_sample(rng, law_pairs),
        "monomial_group_law": monomial_law_sample(rng),
        "circle_delta_identity": circle_identity_sweep(identity_bound),
        "hyperbola_delta_identity": hyperbola_identity_sweep(identity_bound),
        "rational_subgroups": rational_subgroup_audit(),
        "orbit_cardinalities": orbit_cardinality_audit(),
    }
    report["all_expected_results"] = bool(
        report["circle_group_law"]["holds"]
        and report["monomial_group_law"]["holds"]
        and report["circle_delta_identity"]["identity_holds"]
        and report["hyperbola_delta_identity"]["right_form_tracks_solver"]
        and report["hyperbola_delta_identity"]["left_form_discrepant"]
        and all(entry["is_group"] for entry in report["rational_subgroups"])
        and all(entry["generic_orbit_is_group_order"] for entry in report["orbit_cardinalities"])
    )
    return report
