"""The former n >= 3 kernel and the former `search` and `coverage` printers: test oracles.

`common_scale_rows` is the former `search._common_scale_rows` on its own
route: the reduced pairs of the bound unordered, by a gcd per pair, and
the coordinates of the powers it found sorted by the integer key
p*H^2 // q, each multiset's distinct orderings taken from a set of
permutations.  It is the oracle of the kernel that reads its ranks off
the Farey-ordered table.

`texts` is the former `SearchReport.texts`, each solution as a list of
"p/q" strings, and `payload` the former `SearchReport.payload()`, the
dict that one `json.dumps` encoded.  `csv_text` is the former
`cli._csv_text`, which joined `str()` of every field with its separator.
`search_stdout` and `coverage_stdout` print as the commands printed
through these: the text lines from `texts`, the JSON from `payload`, the
CSV through `csv_text`.
"""

import json
from bisect import bisect_left, bisect_right
from itertools import chain, combinations_with_replacement, cycle, permutations, product
from math import gcd, lcm

from fermatgroups.rationals import format_pair, format_projective, format_rational
from fermatgroups.search import search_n, verify_orbit_coverage


def reduced_pairs(bound: int) -> list[tuple[int, int]]:
    """(p, q) for every reduced p/q with max(|p|, q) <= bound, unordered."""
    return [
        (num, den)
        for den in range(1, bound + 1)
        for num in range(-bound, bound + 1)
        if gcd(num, den) == 1
    ]


def ranked(pairs, bound: int):
    """The distinct `pairs` sorted as fractions by p*bound^2 // q, and the index of each in that list."""
    square = bound * bound
    coordinates = sorted(set(pairs), key=lambda pair: pair[0] * square // pair[1])
    return coordinates, {pair: rank for rank, pair in enumerate(coordinates)}


def common_scale_rows(k: int, n: int, bound: int):
    """The coordinates and the unsorted rank rows of every n-tuple (n >= 3) of height <= bound.

    Every coordinate p/q goes on the scale D = lcm(1..H)^k as the power
    (p * lcm(1..H)/q)^k; each sorted head of n - 2 powers leaves the rest
    R = D - sum, closed by a pair of powers whose larger runs from R/2 up
    to R less the head's largest.
    """
    scale = lcm(*range(1, bound + 1))
    by_power = {}
    for p, q in reduced_pairs(bound):
        by_power.setdefault((p * (scale // q)) ** k, []).append((p, q))
    powers = sorted(by_power)
    total = scale**k
    multisets = []
    for head in combinations_with_replacement(powers, n - 2):
        rest = total - sum(head)
        larger = powers[bisect_left(powers, -(-rest // 2)) : bisect_right(powers, rest - head[-1])]
        for smaller in by_power.keys() & map(rest.__sub__, larger):
            multisets.append((*head, smaller, rest - smaller))
    found = {value for values in multisets for value in values}
    coordinates, rank = ranked([pair for value in found for pair in by_power[value]], bound)
    by_rank = {value: [rank[pair] for pair in by_power[value]] for value in found}
    rows = []
    for values in multisets:
        for ordering in set(permutations(values)):
            rows += product(*map(by_rank.__getitem__, ordering))
    return coordinates, rows


def texts(report) -> list[list[str]]:
    """Each solution of a `SearchReport` as its coordinates' "p/q" strings."""
    names = [format_pair(p, q) for p, q in report.coordinates]
    return [list(map(names.__getitem__, row)) for row in report.ranks]


def payload(report) -> dict:
    """The JSON-able form of a `SearchReport`."""
    return {
        "k": report.k,
        "n": report.n,
        "height": report.height_bound,
        "count": len(report.ranks),
        "trivial": report.trivial_count,
        "nontrivial": report.nontrivial_count,
        "solutions": texts(report),
    }


def _json(value) -> str:
    return json.dumps(value, separators=(",", ":")) + "\n"


def csv_text(header, rows) -> str:
    # every field is an integer, p/q, inf or space-separated integers, none of
    # which CSV quotes, so each field is followed by its separator, "," or the
    # row's closing newline, and all of them are joined at once
    fields = map(str, chain(header, chain.from_iterable(rows)))
    return "".join(chain.from_iterable(zip(fields, cycle("," * (len(header) - 1) + "\n"))))


def search_stdout(k: int, n: int, bound: int, fmt: str) -> str:
    """What `search --k k --n n --height bound --format fmt` printed; the JSON is also its `--json` file."""
    report = search_n(k, n, bound)
    if fmt == "json":
        return _json(payload(report))
    if fmt == "csv":
        return csv_text(tuple(f"x{i}" for i in range(1, n + 1)), texts(report))
    head = (
        f"k={report.k} n={report.n} height={report.height_bound}: {len(report.ranks)} solutions "
        f"({report.trivial_count} trivial, {report.nontrivial_count} nontrivial)"
    )
    return "\n".join([head, *map(",".join, texts(report)), ""])


def coverage_stdout(bound: int, fmt: str) -> str:
    """What `coverage --height bound --format fmt` printed."""
    report = verify_orbit_coverage(bound)
    rows = [(format_rational(x), format_rational(y), format_projective(delta)) for (x, y), delta in report.entries]
    if fmt == "json":
        return _json({
            "height": report.height_bound, "total": report.total, "covered": report.covered,
            "coverage": format_rational(report.coverage),
            "unreachable": [f"{format_rational(x)},{format_rational(y)}" for x, y in report.unreachable],
            "entries": [{"point": f"{x},{y}", "delta": delta} for x, y, delta in rows],
        })
    if fmt == "csv":
        return csv_text(("x", "y", "delta"), rows)
    head = f"covered {report.covered}/{report.total} (coverage {format_rational(report.coverage)})"
    return "\n".join([head, *(f"{x},{y} <- delta {delta}" for x, y, delta in rows), ""])
