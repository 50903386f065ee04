"""Seeded CLI workloads for the fermatgroups benchmark, and their output checks.

A workload is a list of ops; an op is an op class plus the argv handed to
`fermatgroups.cli.main`.  The seed picks heights (within +-2), vectors,
deltas and the formats of the small ops, but every seed yields the same op
shapes (the same commands at nearly the same sizes) in the same order, so
the cost of a run hardly depends on the seed.  The order stays fixed because
it sets the heap's layout: shuffled per seed, the peak resident memory of
conic moved between 54 and 62 MB; in the fixed order 9 of 10 seeds read
59.1-59.3 MB.

Op counts are chosen so that the latency quantiles the benchmark reports
fall inside a group of alike ops, not on the edge between two ops of very
different cost, where noise would flip the quantile between them.  With N
ops per pass the median lies at rank (N+1)/2 and the 90th percentile near
rank 0.9*N: scan has 37 ops (ranks 19 and 34), orbit and conic have 45
(ranks 23 and 41).

Each op class has a check that verifies the printed output by a route
independent of the library: plain Fraction and integer arithmetic, closed
forms (Gaussian and split-complex integers for rotations and boosts), known
counts (Fermat's theorem, orbit-stabilizer, Euclid's parametrization).  A
check raises CheckError with a one-line reason.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import random
from fractions import Fraction
from math import factorial, gcd, isqrt

__all__ = ["CheckError", "WARMUP", "WORKLOADS", "check", "generate"]

WORKLOADS = ("scan", "orbit", "conic")

# One small fixed op per workload, run once during set-up.
WARMUP = {
    "scan": ("search_n2", ("search", "--k", "3", "--height", "30", "--format", "json")),
    "orbit": ("orbit", ("kgroup", "orbit", "--k", "3", "--point", "2,3", "--format", "json")),
    "conic": ("point_ops", ("circle", "solve", "--from", "3/5,4/5", "--to", "5/13,12/13")),
}

# iterate: after m steps of L(p/q) the height is (p^2+q^2)^m, so the largest
# printed integer has steps*log10(p^2+q^2) digits: 800*log10(65) = 1450,
# safely under CPython's 4300-digit int-to-str limit (see the probe in
# worker.py for what happens above it).  Every delta has p^2+q^2 = 65, so
# each one costs the same.
ITERATE_STEPS = 800
ITERATE_DELTAS = ("1/8", "8", "4/7", "7/4", "-1/8", "-8", "-4/7", "-7/4")

FORMATS = ("json", "text", "csv")

HYPER_WITNESS = ("5/4,3/4", "5/3,4/3", "-3/55", "1/5")


class CheckError(Exception):
    """An op printed output that fails its independent check."""


# ------------------------------------------------------------- generation --


def _small_fraction(rng, num=9, den=5):
    return Fraction(rng.randint(1, num), rng.randint(1, den)) * rng.choice((1, -1))


def _text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _distinct_rationals(rng, count):
    # nonzero, pairwise distinct absolute values
    seen, out = set(), []
    while len(out) < count:
        value = _small_fraction(rng)
        if abs(value) not in seen:
            seen.add(abs(value))
            out.append(value)
    return out


def _cyclotomic_text(rng):
    c0 = _small_fraction(rng, 5, 3)
    c1 = _small_fraction(rng, 5, 3)
    return f"[{_text(c0)},{_text(c1)}]"


def _vector(rng, rationals, cyclotomic):
    parts = [_text(v) for v in _distinct_rationals(rng, rationals)]
    parts += [_cyclotomic_text(rng) for _ in range(cyclotomic)]
    return ",".join(parts)


def _circle_param(rng):
    while True:
        a, b = rng.randint(1, 9), rng.randint(-9, 9)
        if b and gcd(a, abs(b)) == 1:
            return a, b


def _circle_point(rng):
    a, b = _circle_param(rng)
    n = a * a + b * b
    x, y = Fraction(a * a - b * b, n), Fraction(2 * a * b, n)
    return f"{_text(x * rng.choice((1, -1)))},{_text(y)}"


def _hyper_point(rng):
    while True:
        a, b = _circle_param(rng)
        if abs(a) != abs(b):
            break
    d = a * a - b * b
    x, y = Fraction(a * a + b * b, d), Fraction(2 * a * b, d)
    return f"{_text(x)},{_text(y * rng.choice((1, -1)))}"


def _delta(rng, hyperbolic=False):
    if rng.random() < 0.1:
        return "inf"
    while True:
        value = _small_fraction(rng)
        if not hyperbolic or abs(value) != 1:
            return _text(value)


def _scan(rng):
    # formats rotate with k, so each size prints in each format on some k
    ops = []
    for i, k in enumerate((2, 3, 4, 5)):
        for j, base in enumerate((20, 30, 40, 80, 110)):
            height = base + rng.randrange(3)
            ops.append(("search_n2", ("search", "--k", str(k), "--height", str(height),
                                      "--format", FORMATS[(i + j) % 3])))
        for j, height in enumerate((4, 6, 8)):
            ops.append(("search_n3", ("search", "--n", "3", "--k", str(k), "--height", str(height),
                                      "--format", FORMATS[(i + j) % 3])))
    ops.append(("search_n2", ("search", "--k", "3", "--height", str(200 + rng.randrange(3)),
                              "--format", "json")))
    ops.append(("search_n3", ("search", "--n", "3", "--k", "3", "--height", "12", "--format", "json")))
    for fmt, base in zip(FORMATS, (40, 70, 100)):
        ops.append(("coverage", ("coverage", "--height", str(base + rng.randrange(3)), "--format", fmt)))
    return ops


def _orbit(rng):
    def orbit(k, rationals, cyclotomic):
        return ("orbit", ("kgroup", "orbit", "--k", str(k),
                          "--point", _vector(rng, rationals, cyclotomic), "--format", "json"))

    def rational(k, n, fmt):
        return ("rational", ("kgroup", "rational", "--k", str(k), "--n", str(n), "--format", fmt))

    ops = []
    # 18 ops under 14 ms
    ops += [rational(k, 2, rng.choice(("json", "text"))) for k in range(3, 9)]
    ops += [rational(k, 3, rng.choice(("json", "text"))) for k in (3, 5, 7)]
    ops += [("orbit_rational", ("kgroup", "orbit-rational", "--k", str(k), "--format", fmt))
            for k, fmt in zip((3, 4, 5), FORMATS)]
    ops += [orbit(k, 2 - c, c) for k in (3, 4, 5) for c in (0, 1)]
    # 9 ops of 15-19 ms around the median: the 48-element closures and k=6 orbits
    ops += [rational(k, 3, rng.choice(("json", "text"))) for k in (4, 6, 8)]
    ops += [orbit(6, 2 - c, c) for c in (0, 0, 0, 1, 1, 1)]
    # 8 ops of 25-60 ms
    ops += [orbit(k, 2 - c, c) for k in (7, 8) for c in (0, 1)]
    ops += [orbit(3, 3 - c, c) for c in (0, 0, 1, 1)]
    # 8 alike ops of about 0.1 s around the 90th percentile
    ops += [orbit(4, 3, 0) for _ in range(8)]
    # n=4, and the largest closure: the closure is quadratic in the subgroup
    # order (384 elements and 147,456 products for --k 4 --n 4).
    ops.append(orbit(3, 3, 1))
    ops.append(rational(4, 4, "json"))
    return ops


def _conic(rng):
    ops = [("point_ops", ("hyper", "audit", "--from", HYPER_WITNESS[0], "--to", HYPER_WITNESS[1],
                          "--format", "json"))]
    # 37 ops under 5 ms
    for group, point, hyperbolic in (("circle", _circle_point, False), ("hyper", _hyper_point, True)):
        for _ in range(5):
            ops.append(("point_ops", (group, "compose", "--d1", _delta(rng, hyperbolic),
                                      "--d2", _delta(rng, hyperbolic),
                                      "--format", rng.choice(("json", "text")))))
            act = (group, "act", "--delta", _delta(rng, hyperbolic), "--point", point(rng))
            if rng.random() < 0.5:
                act += ("--reflect",)
            ops.append(("point_ops", act + ("--format", rng.choice(("json", "text")))))
        for _ in range(4):
            ops.append(("point_ops", (group, "solve", "--from", point(rng), "--to", point(rng),
                                      "--format", rng.choice(("json", "text")))))
        for _ in range(2):
            verb = "audit-exy" if group == "circle" else "audit"
            ops.append(("point_ops", (group, verb, "--from", point(rng), "--to", point(rng),
                                      "--format", "json")))
    for _ in range(4):
        ops.append(("point_ops", ("triples", "--height", str(rng.randint(30, 40)),
                                  "--format", rng.choice(FORMATS))))
    # two sweeps of about 0.05 s, then five alike iterates around the 90th
    # percentile, then the audit suite.  A sweep pairs every point of height
    # <= H, and heights 13-16 hold the same points (the next hypotenuse is
    # 17, which doubles the cost), so every seed's sweeps cost the same.
    ops.append(("sweep", ("circle", "audit-exy", "--height", str(13 + rng.randrange(4)), "--format", "json")))
    ops.append(("sweep", ("hyper", "audit", "--height", str(13 + rng.randrange(4)), "--format", "text")))
    for fmt in ("json", "text", "csv", "json", "text"):
        ops.append(("iterate", ("iterate", "--delta", rng.choice(ITERATE_DELTAS),
                                "--steps", str(ITERATE_STEPS), "--format", fmt)))
    ops.append(("audit", ("audit", "--seed", str(rng.randrange(10**6)))))
    return ops


_GENERATORS = {"scan": _scan, "orbit": _orbit, "conic": _conic}


def generate(workload: str, seed: int) -> list[tuple[str, tuple[str, ...]]]:
    """The seeded op list of one workload: (op class, argv) pairs."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ----------------------------------------------------------------- parsing --


def _options(argv):
    opts = {}
    for i, token in enumerate(argv):
        if token.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            opts[token] = True if nxt is None or nxt.startswith("--") else nxt
    return opts


def _arg(text):
    """Parse an argv value: "p/q", "p" or "inf" (returned as None)."""
    if text == "inf":
        return None
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def _q(text):
    """Parse a printed value, which must be the canonical "p/q" or "inf"."""
    value = _arg(text)
    _require(text == ("inf" if value is None else _text(value)), f"non-canonical rational {text!r}")
    return value


def _point(text, parse=_q):
    x, y = text.split(",")
    return parse(x), parse(y)


def _require(condition, reason):
    if not condition:
        raise CheckError(reason)


def _csv_rows(stdout):
    rows = list(csv.reader(io.StringIO(stdout)))
    return rows[0], rows[1:]


def _pair(delta):
    """Projective parameter b/a as the integer pair (a, b); inf is (0, 1)."""
    if delta is None:
        return 0, 1
    return delta.denominator, delta.numerator


def _from_pair(a, b):
    return None if a == 0 else Fraction(b, a)


# ---------------------------------------------------------------- oracles --


def circle_points(bound):
    """Rational points of x^2+y^2=1 of height <= bound, by integer enumeration."""
    points = set()
    for c in range(1, bound + 1):
        for a in range(-c, c + 1):
            if gcd(abs(a), c) != 1:
                continue
            b = isqrt(c * c - a * a)
            if b * b == c * c - a * a:
                points.add((Fraction(a, c), Fraction(b, c)))
                points.add((Fraction(a, c), Fraction(-b, c)))
    return points


def hyperbola_point_count(bound):
    """Count of rational points of x^2-y^2=1 of height <= bound."""
    count = 0
    for a in range(1, bound + 1):
        for c in range(1, a + 1):
            if gcd(a, c) != 1:
                continue
            b = isqrt(a * a - c * c)
            if b * b == a * a - c * c:
                count += 2 if b == 0 else 4
    return count


def _rotate(point, delta, hyperbolic, reflect=False):
    # L(b/a) is multiplication by (a+ib)^2/(a^2+b^2) (circle) or by
    # (a+jb)^2/(a^2-b^2) with j^2 = 1 (hyperbola); the reflection follows.
    a, b = _pair(delta)
    x, y = point
    if hyperbolic:
        norm = a * a - b * b
        u, v = Fraction(a * a + b * b, norm), Fraction(2 * a * b, norm)
        image = (x * u + y * v, x * v + y * u)
    else:
        norm = a * a + b * b
        u, v = Fraction(a * a - b * b, norm), Fraction(2 * a * b, norm)
        image = (x * u - y * v, x * v + y * u)
    return (image[0], -image[1]) if reflect else image


def _compose(d1, d2, hyperbolic):
    (a1, b1), (a2, b2) = _pair(d1), _pair(d2)
    sign = 1 if hyperbolic else -1
    return _from_pair(a1 * a2 + sign * b1 * b2, a1 * b2 + a2 * b1)


def _height(value):
    return max(abs(value.numerator), value.denominator)


# ----------------------------------------------------------------- checks --


def _search_solutions(stdout, fmt, k, n, bound):
    if fmt == "csv":
        header, rows = _csv_rows(stdout)
        _require(header == [f"x{i}" for i in range(1, n + 1)], "bad csv header")
        return [tuple(_q(c) for c in row) for row in rows]
    if fmt == "json":
        payload = json.loads(stdout)
        solutions = [tuple(_q(c) for c in s) for s in payload["solutions"]]
    else:
        lines = stdout.splitlines()
        solutions = [tuple(_q(c) for c in line.split(",")) for line in lines[1:]]
    trivial = sum(1 for s in solutions if all(c in (0, 1, -1) for c in s))
    if fmt == "json":
        expected = {"k": k, "n": n, "height": bound, "count": len(solutions), "trivial": trivial,
                    "nontrivial": len(solutions) - trivial}
        _require(all(payload[key] == value for key, value in expected.items()), "json header fields wrong")
    else:
        _require(lines[0] == f"k={k} n={n} height={bound}: {len(solutions)} solutions "
                 f"({trivial} trivial, {len(solutions) - trivial} nontrivial)", "text header wrong")
    return solutions


def _check_search(argv, opts, stdout):
    k, bound, n = int(opts["--k"]), int(opts["--height"]), int(opts.get("--n", 2))
    solutions = _search_solutions(stdout, opts["--format"], k, n, bound)
    _require(solutions == sorted(set(solutions)), "solutions not strictly sorted")
    for s in solutions:
        _require(len(s) == n and all(_height(c) <= bound for c in s), f"solution {s} out of bound")
        _require(sum(c**k for c in s) == 1, f"solution {s} fails sum of k-th powers = 1")
    found = set(solutions)
    if n == 2:
        if k == 2:
            expected = circle_points(bound)
        else:  # Fermat: only the trivial points for k >= 3
            expected = {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}
            if k % 2 == 0:
                expected |= {(Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))}
        _require(found == expected, f"{len(found)} solutions, expected {len(expected)}")
        return
    trivial = {
        (a, b, c)
        for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)
        if a**k + b**k + c**k == 1
    }
    _require(trivial <= found, "a trivial solution is missing")
    if k % 2:  # the (x, -x, 1) family in all three arrangements
        for den in range(1, bound + 1):
            for num in range(-bound, bound + 1):
                if gcd(abs(num), den) == 1:
                    x = Fraction(num, den)
                    for s in ((x, -x, 1), (x, 1, -x), (1, x, -x)):
                        _require(s in found, f"odd-k family member {s} is missing")


def _check_coverage(argv, opts, stdout):
    bound, fmt = int(opts["--height"]), opts["--format"]
    if fmt == "csv":
        header, rows = _csv_rows(stdout)
        _require(header == ["x", "y", "delta"], "bad csv header")
        entries = [((_q(x), _q(y)), _q(d)) for x, y, d in rows]
    elif fmt == "json":
        payload = json.loads(stdout)
        entries = [(_point(e["point"]), _q(e["delta"])) for e in payload["entries"]]
        _require(payload["unreachable"] == [], "unreachable points reported")
        _require(payload["total"] == payload["covered"] == len(entries), "totals disagree")
        _require(payload["coverage"] == "1/1" and payload["height"] == bound, "coverage or height field wrong")
    else:
        lines = stdout.splitlines()
        _require(lines[0] == f"covered {len(lines) - 1}/{len(lines) - 1} (coverage 1/1)",
                 "coverage header is not complete")
        entries = []
        for line in lines[1:]:
            point, _, delta = line.partition(" <- delta ")
            entries.append((_point(point), _q(delta)))
    for point, delta in entries:
        _require(_rotate((Fraction(1), Fraction(0)), delta, False) == point,
                 f"delta does not carry (1,0) to {point}")
    _require({p for p, _ in entries} == circle_points(bound), "covered points differ from the circle points")


def _component(text, k):
    # an op vector component as the CLI prints it back
    if text.startswith("["):
        coeffs = [_text(_arg(c)) for c in text[1:-1].split(",")]
        phi = sum(1 for i in range(1, k + 1) if gcd(i, k) == 1)
        return {"k": k, "coeffs": coeffs + ["0/1"] * (phi - len(coeffs))}
    return _text(_arg(text))


def _split_vector(text):
    parts, depth, current = [], 0, ""
    for ch in text:
        depth += (ch == "[") - (ch == "]")
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    return parts + [current]


def _check_orbit(argv, opts, stdout):
    k = int(opts["--k"])
    vector = [_component(part, k) for part in _split_vector(opts["--point"])]
    n = len(vector)
    payload = json.loads(stdout)
    order = k**n * factorial(n)
    _require(payload["k"] == k and payload["n"] == n, "k or n echoed wrongly")
    _require(payload["group_order"] == order, "group order is not k^n n!")
    _require(payload["orbit_size"] * payload["stabilizer_order"] == order,
             "orbit size times stabilizer order is not the group order")
    keys = {json.dumps(point) for point in payload["points"]}
    _require(len(keys) == len(payload["points"]) == payload["orbit_size"], "orbit points repeat or miscount")
    _require(json.dumps(vector) in keys, "the vector itself is not in its orbit")
    # Every component of an image is omega^l times some component of the
    # vector; checked numerically in floating point, apart from the exact path.
    omega = cmath.exp(2j * cmath.pi / k)

    def value(component):
        if isinstance(component, str):
            return complex(_q(component))
        _require(component["k"] == k, "component of another order")
        return sum(float(_q(c)) * omega**i for i, c in enumerate(component["coeffs"]))

    twists = [omega**l * value(v) for v in vector for l in range(k)]
    for point in payload["points"]:
        _require(len(point) == n, "image of the wrong length")
        for component in point:
            z = value(component)
            _require(min(abs(z - t) for t in twists) < 1e-9, "an image component is no twist of the vector")


def _check_rational(argv, opts, stdout):
    k, n = int(opts["--k"]), int(opts["--n"])
    order = factorial(n) * (2**n if k % 2 == 0 else 1)
    allowed = {0, k // 2} if k % 2 == 0 else {0}
    if opts["--format"] == "json":
        payload = json.loads(stdout)
        _require((payload["k"], payload["n"], payload["order"], payload["is_group"]) == (k, n, order, True),
                 "k, n, order or closure flag wrong")
        _require(payload["permutations_only"] is (k % 2 == 1), "permutations_only flag wrong")
        keys = [(tuple(e["perm"]), tuple(e["exp"])) for e in payload["elements"]]
    else:
        lines = stdout.splitlines()
        _require(lines[0] == f"order {order} (group: True, permutations only: {k % 2 == 1})",
                 "text header wrong")
        keys = []
        for line in lines[1:]:
            perm, exp = line.split(" ")
            keys.append((tuple(map(int, perm[5:].split(","))), tuple(map(int, exp[4:].split(",")))))
    _require(len(keys) == order and keys == sorted(set(keys)), "elements repeat, miscount or are unsorted")
    for perm, exp in keys:
        _require(sorted(perm) == list(range(n)) and set(exp) <= allowed, f"element {perm} {exp} is not rational")


def _check_orbit_rational(argv, opts, stdout):
    k, fmt = int(opts["--k"]), opts["--format"]
    if fmt == "json":
        points = [tuple(_q(c) for c in p) for p in json.loads(stdout)]
    elif fmt == "csv":
        header, rows = _csv_rows(stdout)
        _require(header == ["x", "y"], "bad csv header")
        points = [tuple(_q(c) for c in row) for row in rows]
    else:
        points = [_point(line) for line in stdout.splitlines()]
    # the only rational roots of unity are +1 and -1
    expected = {(1, 0), (0, 1)} | ({(-1, 0), (0, -1)} if k % 2 == 0 else set())
    _require(points == sorted(expected), f"rational orbit points {points}")


def _check_audit(argv, opts, stdout):
    report = json.loads(stdout)
    _require(report["seed"] == int(opts["--seed"]), "seed echoed wrongly")
    _require(report["all_expected_results"] is True, "all_expected_results is not true")
    _require(report["circle_group_law"]["pairs_checked"] == 2000, "circle law pair count")
    _require(report["circle_delta_identity"]["points"] == len(circle_points(50)), "circle point count")
    _require(report["hyperbola_delta_identity"]["points"] == hyperbola_point_count(50), "hyperbola point count")
    witness = report["hyperbola_delta_identity"]["witness"]
    _require((witness["left"], witness["right"]) == HYPER_WITNESS[2:], "hyperbola witness changed")
    for entry in report["orbit_cardinalities"]:
        _require(entry["group_order"] == 2 * entry["k"] ** 2, "group order is not 2k^2")
        for row in entry["orbits"].values():
            _require(row["orbit"] * row["stabilizer"] == entry["group_order"], "orbit-stabilizer fails")
    for entry in report["rational_subgroups"]:
        _require(entry["order"] == 2 * (4 if entry["k"] % 2 == 0 else 1), "rational subgroup order")


def _check_pair_audit(audit, hyperbolic):
    """One rendered identity audit: the solver and the forms that must match it."""
    source, _, target = audit["pair"][1:-1].partition(") -> (")
    source, target, solver = _point(source), _point(target), _q(audit["solver"])
    _require(_rotate(source, solver, hyperbolic) == target, "audited solver does not carry the pair")
    for side in ("right",) if hyperbolic else ("left", "right"):
        if audit[side] is not None:
            _require(_q(audit[side]) == solver, f"{side} form differs from the solver")
    return source, target


def _check_sweep(argv, opts, stdout):
    bound, report = int(opts["--height"]), json.loads(stdout)
    _require(report["height"] == bound, "height echoed wrongly")
    if argv[0] == "circle":
        _require(report["identity_holds"] is True, "circle identity does not hold")
        _require(report["points"] == len(circle_points(bound)), "circle point count")
        _check_pair_audit(report["witness"], False)
    else:
        _require(report["right_form_tracks_solver"] is True, "right form no longer tracks the solver")
        _require(report["left_form_discrepant"] is True, "left form discrepancy disappeared")
        witness = report["witness"]
        _require((witness["left"], witness["right"]) == HYPER_WITNESS[2:], "hyperbola witness changed")
        _require(report["points"] == hyperbola_point_count(bound), "hyperbola point count")
        for audit in [witness] + report["disagreement_witnesses"]:
            _check_pair_audit(audit, True)
            _require(audit["left"] != audit["right"], "a listed disagreement agrees")
    _require(report["pairs"] == report["points"] ** 2, "pair count is not points squared")


def _check_iterate(argv, opts, stdout):
    delta, steps, fmt = _arg(opts["--delta"]), int(opts["--steps"]), opts["--format"]
    if fmt == "json":
        payload = json.loads(stdout)
        points = [tuple(_q(c) for c in p) for p in payload["points"]]
        heights = payload["heights"]
        _require(payload["period"] is None, "a generic rotation reported a period")
        _require(payload["delta"] == _text(delta) and payload["start"] == "1/1,0/1", "delta or start echoed wrongly")
    elif fmt == "csv":
        header, rows = _csv_rows(stdout)
        _require(header == ["step", "x", "y", "height"], "bad csv header")
        _require([row[0] for row in rows] == [str(i) for i in range(1, len(rows) + 1)], "steps misnumbered")
        points = [(_q(x), _q(y)) for _, x, y, _ in rows]
        heights = [int(row[3]) for row in rows]
    else:
        lines = stdout.splitlines()
        _require(lines[-1] == "period: none", "a generic rotation reported a period")
        points, heights = [], []
        for step, line in enumerate(lines[:-1], start=1):
            label, _, rest = line.partition(": ")
            _require(label == f"step {step}", "steps misnumbered")
            point, _, height = rest.partition(" height ")
            points.append(_point(point))
            heights.append(int(height))
    _require(len(points) == len(heights) == steps, "wrong number of steps")
    for (x, y), height in zip(points, heights):
        _require(x.denominator == y.denominator and x.numerator**2 + y.numerator**2 == x.denominator**2,
                 "a point is off the circle")
        _require(height == x.denominator, "printed height is not max(|p|, q)")
    # closed form of the last point: (a+ib)^(2m) / (a^2+b^2)^m
    a, b = _pair(delta)
    re, im = 1, 0
    for _ in range(2):
        re, im = re * a - im * b, re * b + im * a
    base, power = (re, im), (1, 0)
    m = steps
    while m:
        if m & 1:
            power = (power[0] * base[0] - power[1] * base[1], power[0] * base[1] + power[1] * base[0])
        base = (base[0] ** 2 - base[1] ** 2, 2 * base[0] * base[1])
        m >>= 1
    norm = (a * a + b * b) ** steps
    _require(points[-1] == (Fraction(power[0], norm), Fraction(power[1], norm)),
             "last point differs from the closed form")


def _one_value(stdout, fmt):
    return json.loads(stdout) if fmt == "json" else stdout.strip()


def _check_point_op(argv, opts, stdout):
    group, verb, fmt = argv[0], argv[1], opts.get("--format", "text")
    hyperbolic = group == "hyper"
    if verb == "compose":
        got = _q(_one_value(stdout, fmt))
        _require(got == _compose(_arg(opts["--d1"]), _arg(opts["--d2"]), hyperbolic), "composed parameter differs")
    elif verb == "act":
        value = _one_value(stdout, fmt)
        got = tuple(map(_q, value)) if fmt == "json" else _point(value)
        expected = _rotate(_point(opts["--point"], _arg), _arg(opts["--delta"]), hyperbolic, "--reflect" in opts)
        _require(got == expected, "image point differs")
    elif verb == "solve":
        value = _one_value(stdout, fmt)
        delta = _q(value["delta"] if fmt == "json" else value)
        _require(fmt != "json" or value["reflected"] is False, "solver returned a reflection")
        _require(_rotate(_point(opts["--from"], _arg), delta, hyperbolic) == _point(opts["--to"], _arg),
                 "solved parameter does not carry --from to --to")
    elif verb in ("audit", "audit-exy"):
        audit = json.loads(stdout)
        pair = _check_pair_audit(audit, hyperbolic)
        _require(pair == (_point(opts["--from"], _arg), _point(opts["--to"], _arg)), "pair echoed wrongly")
        if (opts["--from"], opts["--to"]) == HYPER_WITNESS[:2] and hyperbolic:
            _require((audit["left"], audit["right"]) == HYPER_WITNESS[2:], "hyperbola witness changed")
    else:
        raise CheckError(f"no check for {group} {verb}")


def _check_triples(argv, opts, stdout):
    bound, fmt = int(opts["--height"]), opts["--format"]
    if fmt == "json":
        triples = [tuple(t) for t in json.loads(stdout)]
    elif fmt == "csv":
        header, rows = _csv_rows(stdout)
        _require(header == ["a", "b", "c"], "bad csv header")
        triples = [tuple(map(int, row)) for row in rows]
    else:
        triples = [tuple(map(int, line.split())) for line in stdout.splitlines()]
    # Euclid: (m^2-n^2, 2mn, m^2+n^2) for coprime m > n of opposite parity;
    # parameters p/q with q <= bound reach exactly those with m <= bound.
    expected = set()
    for m in range(2, bound + 1):
        for n in range(1, m):
            if (m - n) % 2 and gcd(m, n) == 1:
                a, b = sorted((m * m - n * n, 2 * m * n))
                expected.add((a, b, m * m + n * n))
    _require(triples == sorted(expected, key=lambda t: (t[2], t[0], t[1])), "triples differ from Euclid's list")


_CHECKS = {
    "search_n2": _check_search,
    "search_n3": _check_search,
    "coverage": _check_coverage,
    "orbit": _check_orbit,
    "rational": _check_rational,
    "orbit_rational": _check_orbit_rational,
    "audit": _check_audit,
    "sweep": _check_sweep,
    "iterate": _check_iterate,
}


def check(op_class: str, argv, stdout: str) -> None:
    """Raise CheckError unless stdout is the correct output of argv."""
    opts = _options(argv)
    if op_class == "point_ops":
        checker = _check_triples if argv[0] == "triples" else _check_point_op
    else:
        checker = _CHECKS[op_class]
    try:
        checker(argv, opts, stdout)
    except CheckError:
        raise
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        raise CheckError(f"unparsable output: {type(exc).__name__}: {exc}") from None
