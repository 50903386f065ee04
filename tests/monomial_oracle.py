"""The former `monomial.orbit` and `kgroup orbit` printers: oracles of the index-tuple orbit.

`orbit` builds the orbit as a set of CyclotomicNumber tuples,
`orbit_indices` as the set of index tuples the census once built, and
`orbit_census` as the sorted list the census built next, one product per
arrangement of the rows merged by one sort.  `ranked_orbit` ranks the
distinct components of `orbit`'s points by their coefficient vectors and
sorts the points by those ranks.  On its points, `kgroup_orbit_json` prints
the orbit as the command printed it before its points became tuples of
component indices, the payload encoded by one `json.dumps`, and
`kgroup_orbit_text` as the text printer did before the orbit came out
sorted from its rows: `points_text` formats each point from the component
texts.  Neither printer oracle reads the census's twist table.
`orbit_vectors` draws the vectors these oracles are compared on.
"""

import itertools
import json
from math import prod

from hypothesis import strategies as st

from fermatgroups import monomial
from fermatgroups.cyclotomic import CyclotomicNumber
from fermatgroups.rationals import format_rational


def twist(value, l):
    # omega^l * value as a field product, independent of the shift in `apply`
    return CyclotomicNumber.root_of_unity(value.k, l) * value


def orbit_vectors(k, n):
    """Vectors of n components drawn from rational and cyclotomic bases, their twists and negatives, and zero."""
    small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    bases = st.lists(
        st.one_of(
            small.map(lambda value: CyclotomicNumber.from_rational(k, value)),
            st.lists(small, min_size=1, max_size=k).map(lambda coeffs: CyclotomicNumber(k, coeffs)),
        ),
        min_size=1,
        max_size=2,
    )

    def component(base):
        zero = st.just(CyclotomicNumber.zero(k))
        turned = st.tuples(st.sampled_from(base), st.integers(0, k - 1), st.booleans())
        return st.one_of(zero, turned.map(lambda c: (-1 if c[2] else 1) * twist(c[0], c[1])))

    return bases.flatmap(lambda base: st.lists(component(base), min_size=n, max_size=n).map(tuple))


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


def orbit_census(vector, k):
    """The former `monomial.orbit_census`: the products of every distinct arrangement of the rows, merged by one sort."""
    _, components, table, fixing = monomial._twist_table(vector, k, None)
    rows = [tuple(sorted(set(row))) for row in table]
    points = []
    for arrangement in dict.fromkeys(itertools.permutations(rows)):
        points += itertools.product(*arrangement)
    points.sort()
    sizes = [list(map(len, row)) for row in fixing]
    stabilizer_order = sum(
        prod(map(list.__getitem__, sizes, perm)) for perm in itertools.permutations(range(len(sizes)))
    )
    return components, points, stabilizer_order


def points_text(texts, points, sep, joiner):
    """The points, index tuples into `texts`, each joined by `sep` and all by `joiner`, as the former printer joined them."""
    flat = map(texts.__getitem__, itertools.chain.from_iterable(points))
    return joiner.join(map(sep.join, zip(*[flat] * len(points[0]))))


def ranked_orbit(vector):
    """The distinct components of `orbit`'s points ranked by their coefficient vectors, and the points as rank tuples, sorted."""
    points = orbit(vector)
    components = sorted({c for point in points for c in point}, key=lambda c: c.coeffs)
    rank = {c: i for i, c in enumerate(components)}
    return components, sorted(tuple(map(rank.__getitem__, point)) for point in points)


def kgroup_orbit_text(k, vector):
    """The stdout of `kgroup orbit --format text` for a parsed vector."""
    components, points = ranked_orbit(vector)
    stabilizer_order = len(monomial.stabilizer(vector))
    head = f"orbit size {len(points)}, stabilizer order {stabilizer_order}, group order {monomial.group_order(k, len(vector))}"
    body = points_text(list(map(str, components)), points, " | ", "\n")
    return f"{head}\n{body}\n"


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
    components, points = ranked_orbit(vector)
    payload = {
        "k": k,
        "n": len(vector),
        "orbit_size": len(points),
        "stabilizer_order": len(monomial.stabilizer(vector)),
        "group_order": monomial.group_order(k, len(vector)),
        "points": [[_payload(components[i]) for i in point] for point in points],
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
