"""The former `search` and `coverage` printers: oracles of the joined-string printers.

`texts` is the former `SearchReport.texts`, each solution as a list of
"p/q" strings, and `payload` the former `SearchReport.payload()`, the
dict that one `json.dumps` encoded.  `csv_text` is the former
`cli._csv_text`, which joined `str()` of every field with its separator.
`search_stdout` and `coverage_stdout` print as the commands printed
through these: the text lines from `texts`, the JSON from `payload`, the
CSV through `csv_text`.
"""

import json
from itertools import chain, cycle

from fermatgroups.rationals import format_pair, format_rational
from fermatgroups.search import search_n, verify_orbit_coverage


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
    rows = [(format_pair(a, c), format_pair(b, c), format_pair(*delta)) for (a, b, c), delta in report.reached]
    if fmt == "json":
        return _json({
            "height": report.height_bound, "total": report.total, "covered": report.covered,
            "coverage": format_rational(report.coverage),
            "unreachable": [f"{format_pair(a, c)},{format_pair(b, c)}" for a, b, c in report.missed],
            "entries": [{"point": f"{x},{y}", "delta": delta} for x, y, delta in rows],
        })
    if fmt == "csv":
        return csv_text(("x", "y", "delta"), rows)
    head = f"covered {report.covered}/{report.total} (coverage {format_rational(report.coverage)})"
    return "\n".join([head, *(f"{x},{y} <- delta {delta}" for x, y, delta in rows), ""])
