"""The former `monomial.orbit` and `kgroup orbit` printer: oracles of the index-tuple orbit.

`orbit` builds the orbit as a set of CyclotomicNumber tuples,
`orbit_indices` as the set of index tuples the census once built, and
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


def orbit_indices(table):
    """The former census orbit: the set union, over every order of the rows of a twist table, of their products."""
    points = set()
    for perm in itertools.permutations(map(set, table)):
        points.update(itertools.product(*perm))
    return points


def _payload(component):
    # the former `as_dict`, formatting each Fraction coefficient
    value = component.is_rational()
    if value is None:
        return {"k": component.k, "coeffs": [format_rational(c) for c in component.coeffs]}
    return format_rational(value)


def component_json(component):
    """A component's fragment of the `kgroup orbit` JSON payload, as the former printer encoded it."""
    return json.dumps(_payload(component), separators=(",", ":"))


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


def _validated_elements(k, n, exponents):
    """Every (perm, exps) pair over the exponents, in lexicographic order, each built by the validating constructor."""
    return [
        monomial.MonomialMatrix(k, perm, exps)
        for perm in itertools.permutations(range(n))
        for exps in itertools.product(exponents, repeat=n)
    ]


def _element_line(element):
    return f"perm={','.join(map(str, element.perm))} exp={','.join(map(str, element.exponents))}"


def kgroup_enumerate_stdout(k, n, fmt):
    """The stdout of `kgroup enumerate`, printed one element at a time as the former printer did."""
    elements = _validated_elements(k, n, range(k))
    if fmt == "json":
        return json.dumps([e.as_dict() for e in elements], separators=(",", ":")) + "\n"
    if fmt == "csv":
        rows = [("perm", "exp")] + [(" ".join(map(str, e.perm)), " ".join(map(str, e.exponents))) for e in elements]
        return "".join(f"{perm},{exp}\n" for perm, exp in rows)
    return "".join(f"{_element_line(e)}\n" for e in elements)


def kgroup_rational_stdout(k, n, fmt):
    """The stdout of `kgroup rational`, printed one element at a time as the former printer did."""
    report = monomial.rational_elements(k, n)
    elements = _validated_elements(k, n, [0, k // 2] if k % 2 == 0 else [0])
    if fmt == "json":
        payload = {
            "k": k, "n": n, "order": len(elements), "is_group": report.is_group,
            "permutations_only": report.permutations_only, "elements": [e.as_dict() for e in elements],
        }
        return json.dumps(payload, separators=(",", ":")) + "\n"
    head = f"order {len(elements)} (group: {report.is_group}, permutations only: {report.permutations_only})\n"
    return head + "".join(f"{_element_line(e)}\n" for e in elements)
