"""The former `monomial.orbit` and `kgroup orbit` printer: oracles of the index-tuple orbit.

`orbit` builds the orbit as a set of CyclotomicNumber tuples, and
`kgroup_orbit_json` prints it as the command printed it before its points
became tuples of component indices: the distinct components ranked by their
coefficient vectors, the points sorted by those ranks, and the payload
encoded by one `json.dumps`.
"""

import itertools
import json

from fermatgroups import monomial
from fermatgroups.cyclotomic import CyclotomicNumber
from fermatgroups.rationals import format_rational


def orbit(vector):
    """All images of a cyclotomic vector: the distinct twists of each component, multiplied out in every order of the positions.

    A twist omega^l * v_j is a field product with a root of unity, so the
    oracle shares no code with the census's coefficient shift.
    """
    k = vector[0].k
    rows = [tuple(dict.fromkeys(CyclotomicNumber.root_of_unity(k, l) * c for l in range(k))) for c in vector]
    return {
        point
        for perm in itertools.permutations(range(len(vector)))
        for point in itertools.product(*(rows[j] for j in perm))
    }


def _payload(component):
    value = component.is_rational()
    return component.as_dict() if value is None else format_rational(value)


def kgroup_orbit_json(k, vector):
    """The stdout of `kgroup orbit --format json` for a parsed vector."""
    points = orbit(vector)
    components = sorted({c for point in points for c in point}, key=lambda c: c.coeffs)
    rank = {c: i for i, c in enumerate(components)}
    points = sorted(points, key=lambda point: tuple(map(rank.__getitem__, point)))
    payload = {
        "k": k,
        "n": len(vector),
        "orbit_size": len(points),
        "stabilizer_order": len(monomial.stabilizer(vector)),
        "group_order": monomial.group_order(k, len(vector)),
        "points": [[_payload(c) for c in point] for point in points],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"
