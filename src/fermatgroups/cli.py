"""Command-line interface: exact group arithmetic behind verb-noun commands.

Every payload is exact: rationals print as "p/q" (denominator always
present), the point at infinity as "inf", and no floating-point value ever
reaches stdout.  Identical invocations print identical bytes; wall-clock
diagnostics go to stderr only.  Exit codes: 0 success, 2 invalid argument,
3 resource limit exceeded.

Every command prints through `_emit`: it passes one builder per format it
accepts, each returning that format's whole output text, and only the
chosen format's builder runs.  The text is written to stdout in one write
and flushed inside the command, after any --csv or --json file, so a call
that fails prints nothing.  Stdout is always generated ASCII, with no
terminal escapes to strip, so `click.echo` writes only stderr.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import audit as audit_lib
from . import circle as circle_lib
from . import monomial, stroboscope
from . import search as search_lib
from .conic import CIRCLE, HYPERBOLA
from .cyclotomic import CyclotomicNumber
from .errors import InvalidArgumentError, ResourceLimitError
from .rationals import (
    format_pair,
    format_point,
    format_projective,
    format_rational,
    format_triple,
    parse_point,
    parse_projective,
    parse_rational,
)

__all__ = ["cli", "main"]


def _emit(fmt: str, **builders) -> None:
    """Build the output text of the chosen format only, and write it to stdout at once."""
    text = builders[fmt]()
    sys.stdout.write(text)
    # flushed inside the command, so that a closed stdout pipe reaches click's
    # EPIPE handling (exit 1) instead of failing at interpreter exit
    sys.stdout.flush()


def _json(payload) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _lines(*lines) -> str:
    """The lines, each ended by a newline, joined with one copy."""
    return "\n".join([*lines, ""])


def _csv_text(header, rows) -> str:
    # every field is an integer, p/q, inf or space-separated integers, none of
    # which CSV quotes, so the fields are joined as they are
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _write_file(path, text: str) -> None:
    """Write the text of a --csv or --json file; a path that cannot be written is an invalid argument."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc.strerror}") from None


def _format_option(*choices, default="text"):
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(choices),
        default=default,
        show_default=True,
        help="Output serialization.",
    )


def _point_pair(from_text, to_text):
    return parse_point(from_text), parse_point(to_text)


@click.group(name="fermatgroups")
def cli() -> None:
    """Exact arithmetic for the symmetry groups of x^k + y^k = 1.

    Rationals are written "p/q" (or "p"); "inf" is the point at infinity;
    points are "x,y".  Heights are max(|p|, q) of the reduced fraction.
    All output is exact; nothing is rounded.
    """


# ---------------------------------------------------------------- conics ----


def _conic_group(name, curve, audit_verb, sweep, domain, audit_help) -> None:
    """Add one conic's command group; `sweep` is its identity sweep in the audit module."""
    motion = curve.motion
    group = click.Group(name=name, help=f"Rational {motion}s and reflections of the unit {curve.name}.")
    cli.add_command(group)

    @group.command(name="compose", help=f"Parameter of the product {motion} L(d1)·L(d2).")
    @click.option("--d1", "d1_text", required=True, metavar="PR", help=f"First parameter ({domain}).")
    @click.option("--d2", "d2_text", required=True, metavar="PR", help=f"Second parameter ({domain}).")
    @_format_option("text", "json")
    def compose_cmd(d1_text: str, d2_text: str, fmt: str) -> None:
        result = format_projective(curve.compose_delta(parse_projective(d1_text), parse_projective(d2_text)))
        _emit(fmt, text=lambda: f"{result}\n", json=lambda: _json(result))

    @group.command(name="act", help=f"Exact image of a {curve.name} point under a group element.")
    @click.option("--delta", "delta_text", required=True, metavar="PR", help=f"{motion.capitalize()} parameter.")
    @click.option("--reflect", is_flag=True, help=f"Apply the reflection diag(1,-1) after the {motion}.")
    @click.option("--point", "point_text", required=True, metavar="PT", help=f"{curve.name.capitalize()} point x,y.")
    @_format_option("text", "json")
    def act_cmd(delta_text: str, reflect: bool, point_text: str, fmt: str) -> None:
        element = curve.element(parse_projective(delta_text), reflect)
        image = element.act(parse_point(point_text))
        _emit(fmt, text=lambda: f"{format_point(image)}\n", json=lambda: _json([format_rational(c) for c in image]))

    @group.command(name="solve", help=f"{motion.capitalize()} parameter carrying one {curve.name} point to another (verified).")
    @click.option("--from", "from_text", required=True, metavar="PT", help="Start point x,y.")
    @click.option("--to", "to_text", required=True, metavar="PT", help="Target point x,y.")
    @_format_option("text", "json")
    def solve_cmd(from_text: str, to_text: str, fmt: str) -> None:
        source, target = _point_pair(from_text, to_text)
        element = curve.solve_delta(source, target)
        delta = format_projective(element.delta)
        _emit(fmt, text=lambda: f"{delta}\n", json=lambda: _json({"delta": delta, "reflected": element.reflected}))

    @group.command(name=audit_verb, help=f"Audit the two closed forms for the {curve.name}'s connecting parameter.\n\n{audit_help}")
    @click.option("--height", "bound", type=int, default=None, metavar="H", help="Sweep all point pairs up to this height (default 12).")
    @click.option("--from", "from_text", default=None, metavar="PT", help="Audit a single pair: start point.")
    @click.option("--to", "to_text", default=None, metavar="PT", help="Audit a single pair: target point.")
    @_format_option("text", "json")
    def audit_cmd(bound, from_text, to_text, fmt: str) -> None:
        if (from_text is None) != (to_text is None):
            raise click.UsageError("--from and --to must be given together")
        if from_text is not None:
            if bound is not None:
                raise click.UsageError("give either --height or a --from/--to pair, not both")
            source, target = _point_pair(from_text, to_text)
            payload = audit_lib.render_identity_audit(curve.delta_identity_audit(source, target))
        else:
            payload = sweep(12 if bound is None else bound)
        _emit(fmt, text=lambda: json.dumps(payload, indent=2) + "\n", json=lambda: _json(payload))


_conic_group(
    "circle", CIRCLE, "audit-exy", audit_lib.circle_identity_sweep, "p/q or inf",
    "Both forms are evaluated exactly on every pair of rational circle points within the height "
    "bound (or on one explicit pair) and compared against the verified transitivity solver.",
)
_conic_group(
    "hyper", HYPERBOLA, "audit", audit_lib.hyperbola_identity_sweep, "p/q or inf, |p/q| != 1",
    "The right-hand form tracks the verified solver; the left-hand form is genuinely discrepant, "
    "and the sweep preserves the disagreement with exact witnesses instead of reconciling it.",
)


@cli.command(name="triples")
@click.option("--height", "bound", type=int, required=True, metavar="H", help="Parameter height bound.")
@_format_option("text", "json", "csv")
def triples_cmd(bound: int, fmt: str) -> None:
    """Primitive Pythagorean triples from rotation parameters up to a height."""
    triples = circle_lib.primitive_triples(bound)
    _emit(
        fmt,
        text=lambda: _lines(*(f"{a} {b} {c}" for a, b, c in triples)),
        json=lambda: _json([list(t) for t in triples]),
        csv=lambda: _csv_text(("a", "b", "c"), triples),
    )


# ---------------------------------------------------------------- kgroup ----


@cli.group(name="kgroup")
def kgroup_group() -> None:
    """Finite monomial symmetry groups of x_1^k + ... + x_n^k (k >= 3)."""


@kgroup_group.command(name="order")
@click.option("--k", type=int, required=True, help="Form degree (k >= 3).")
@click.option("--n", type=int, required=True, help="Number of variables.")
@_format_option("text", "json")
def kgroup_order_cmd(k: int, n: int, fmt: str) -> None:
    """Group order k^n * n! (exact)."""
    order = monomial.group_order(k, n)
    _emit(fmt, text=lambda: f"{order}\n", json=lambda: _json(order))


def _element_line(element) -> str:
    return f"perm={','.join(map(str, element.perm))} exp={','.join(map(str, element.exponents))}"


@kgroup_group.command(name="enumerate")
@click.option("--k", type=int, required=True, help="Form degree (k >= 3).")
@click.option("--n", type=int, required=True, help="Number of variables.")
@click.option("--limit", type=int, default=None, metavar="M", help="Element cap (default 10^6 or FERMAT_ORBIT_LIMIT).")
@_format_option("text", "json", "csv")
def kgroup_enumerate_cmd(k: int, n: int, limit, fmt: str) -> None:
    """List every group element as its permutation and exponent vector."""
    elements = monomial.enumerate_group(k, n, limit)
    _emit(
        fmt,
        text=lambda: _lines(*map(_element_line, elements)),
        json=lambda: _json([e.as_dict() for e in elements]),
        csv=lambda: _csv_text(
            ("perm", "exp"), [(" ".join(map(str, e.perm)), " ".join(map(str, e.exponents))) for e in elements]
        ),
    )


def _split_top_level(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "[":
            depth += 1
            current.append(ch)
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise InvalidArgumentError(f"unbalanced brackets in vector: {text!r}")
            current.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise InvalidArgumentError(f"unbalanced brackets in vector: {text!r}")
    parts.append("".join(current))
    return parts


def _parse_vector(k: int, text: str):
    components = []
    for token in _split_top_level(text):
        token = token.strip()
        if not token:
            raise InvalidArgumentError(f"empty component in vector: {text!r}")
        if token.startswith("["):
            if not token.endswith("]"):
                raise InvalidArgumentError(f"malformed cyclotomic component: {token!r}")
            inner = token[1:-1].strip()
            coeffs = [parse_rational(part) for part in inner.split(",")] if inner else []
            components.append(CyclotomicNumber(k, coeffs))
        else:
            components.append(parse_rational(token))
    return monomial.cyclo_vector(k, components)


def _component_payload(component: CyclotomicNumber):
    value = component.is_rational()
    if value is not None:
        return format_rational(value)
    return component.as_dict()


@kgroup_group.command(name="orbit")
@click.option("--k", type=int, required=True, help="Form degree (k >= 3).")
@click.option("--point", "point_text", required=True, metavar="VEC", help='Vector: components "p/q" or cyclotomic coefficient lists "[c0,c1,...]", comma separated.')
@click.option("--limit", type=int, default=None, metavar="M", help="Element cap (default 10^6 or FERMAT_ORBIT_LIMIT).")
@_format_option("text", "json")
def kgroup_orbit_cmd(k: int, point_text: str, limit, fmt: str) -> None:
    """Full group orbit of a vector, with the orbit-stabilizer check."""
    vector = _parse_vector(k, point_text)
    components, points = monomial.orbit_ranks(vector, limit=limit)
    stabilizer_order = len(monomial.stabilizer(vector, limit=limit))
    # the indices follow the components' coefficient vectors, so the int
    # tuples sort as the points print; each component is formatted once
    points = sorted(points)
    group_order = monomial.group_order(k, len(vector))

    def as_json() -> str:
        head = _json({
            "k": k,
            "n": len(vector),
            "orbit_size": len(points),
            "stabilizer_order": stabilizer_order,
            "group_order": group_order,
        })
        # a component's JSON is the same fragment wherever it appears
        fragments = [json.dumps(_component_payload(c), separators=(",", ":")) for c in components]
        body = "],[".join([",".join(map(fragments.__getitem__, point)) for point in points])
        return f'{head[:-2]},"points":[[{body}]]}}\n'

    def as_text() -> str:
        texts = [str(c) for c in components]
        head = f"orbit size {len(points)}, stabilizer order {stabilizer_order}, group order {group_order}"
        return _lines(head, *[" | ".join(map(texts.__getitem__, point)) for point in points])

    _emit(fmt, text=as_text, json=as_json)


@kgroup_group.command(name="rational")
@click.option("--k", type=int, required=True, help="Form degree (k >= 3).")
@click.option("--n", type=int, required=True, help="Number of variables.")
@click.option("--limit", type=int, default=None, metavar="M", help="Element cap (default 10^6 or FERMAT_ORBIT_LIMIT).")
@_format_option("text", "json")
def kgroup_rational_cmd(k: int, n: int, limit, fmt: str) -> None:
    """The subgroup with rational matrix entries, certified by closure checks."""
    report = monomial.rational_elements(k, n, limit)
    _emit(
        fmt,
        text=lambda: _lines(
            f"order {report.order} (group: {report.is_group}, permutations only: {report.permutations_only})",
            *map(_element_line, report.elements),
        ),
        json=lambda: _json({
            "k": report.k,
            "n": report.n,
            "order": report.order,
            "is_group": report.is_group,
            "permutations_only": report.permutations_only,
            "elements": [e.as_dict() for e in report.elements],
        }),
    )


@kgroup_group.command(name="orbit-rational")
@click.option("--k", type=int, required=True, help="Form degree (k >= 3).")
@click.option("--limit", type=int, default=None, metavar="M", help="Element cap (default 10^6 or FERMAT_ORBIT_LIMIT).")
@_format_option("text", "json", "csv")
def kgroup_orbit_rational_cmd(k: int, limit, fmt: str) -> None:
    """Rational points of x^k + y^k = 1 in the orbit of (1, 0)."""
    points = sorted(monomial.orbit_rational_points(k, limit=limit))
    rows = [(format_rational(x), format_rational(y)) for x, y in points]
    _emit(
        fmt,
        text=lambda: _lines(*map(",".join, rows)),
        json=lambda: _json(rows),
        csv=lambda: _csv_text(("x", "y"), rows),
    )


# ---------------------------------------------------------------- search ----


@cli.command(name="search")
@click.option("--k", type=int, required=True, help="Form degree (k >= 2).")
@click.option("--height", "bound", type=int, required=True, metavar="H", help="Height bound for every coordinate.")
@click.option("--n", type=int, default=2, show_default=True, help="Number of variables.")
@click.option("--json", "json_path", type=click.Path(dir_okay=False, writable=True), default=None, help="Also write the JSON report to this file.")
@_format_option("text", "json", "csv")
def search_cmd(k: int, bound: int, n: int, json_path, fmt: str) -> None:
    """Exhaustive scan for rational solutions of x_1^k + ... + x_n^k = 1."""
    report = search_lib.search_n(k, n, bound)
    # every format prints the report's "p/q" strings, each formatted once; the
    # JSON payload is built once, only when it is printed or written
    as_json = functools.cache(lambda: _json(report.payload()))
    if json_path is not None:
        _write_file(json_path, as_json())
    click.echo(f"elapsed: {report.elapsed:.3f}s", err=True)
    _emit(
        fmt,
        text=lambda: _lines(
            f"k={report.k} n={report.n} height={report.height_bound}: {len(report.rows)} solutions "
            f"({report.trivial_count} trivial, {report.nontrivial_count} nontrivial)",
            *map(",".join, report.texts),
        ),
        json=as_json,
        csv=lambda: _csv_text(tuple(f"x{i}" for i in range(1, n + 1)), report.texts),
    )


@cli.command(name="coverage")
@click.option("--height", "bound", type=int, required=True, metavar="H", help="Height bound for circle points.")
@_format_option("text", "json", "csv")
def coverage_cmd(bound: int, fmt: str) -> None:
    """Verify every bounded circle point is reached from (1,0) by a rotation."""
    report = search_lib.verify_orbit_coverage(bound)
    rows = [
        (format_pair(a, c), format_pair(b, c), format_pair(*delta))
        for (a, b, c), delta in report.reached
    ]
    _emit(
        fmt,
        text=lambda: _lines(
            f"covered {report.covered}/{report.total} (coverage {format_rational(report.coverage)})",
            *(f"{x},{y} <- delta {delta}" for x, y, delta in rows),
        ),
        json=lambda: _json({
            "height": report.height_bound,
            "total": report.total,
            "covered": report.covered,
            "coverage": format_rational(report.coverage),
            "unreachable": [f"{format_pair(a, c)},{format_pair(b, c)}" for a, b, c in report.missed],
            "entries": [{"point": f"{x},{y}", "delta": delta} for x, y, delta in rows],
        }),
        csv=lambda: _csv_text(("x", "y", "delta"), rows),
    )


@cli.command(name="counterexample")
@click.option("--k", type=int, required=True, help="Odd form degree (k >= 3).")
@click.option("--x1", "x1_text", required=True, metavar="p/q", help="Free rational parameter.")
@_format_option("text", "json")
def counterexample_cmd(k: int, x1_text: str, fmt: str) -> None:
    """A verified 3-variable solution (x1, -x1, 1) of arbitrary height, odd k."""
    witness = [format_rational(c) for c in search_lib.n_counterexample(k, parse_rational(x1_text))]
    payload = {"k": k, "witness": witness, "verified": True}
    _emit(fmt, text=lambda: ",".join(witness) + "\n", json=lambda: _json(payload))


# ------------------------------------------------------------ stroboscope ----


@cli.command(name="iterate")
@click.option("--delta", "delta_text", required=True, metavar="PR", help="Rotation parameter.")
@click.option("--steps", type=int, required=True, metavar="N", help="Number of exact steps.")
@click.option("--start", "start_text", default="1/1,0/1", show_default=True, metavar="PT", help="Start point on the circle.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False, writable=True), default=None, help="Also write the trajectory as CSV to this file.")
@_format_option("text", "json", "csv")
def iterate_cmd(delta_text: str, steps: int, start_text: str, csv_path, fmt: str) -> None:
    """Iterate a rational rotation exactly, recording points and heights."""
    trajectory = stroboscope.iterate(parse_projective(delta_text), parse_point(start_text), steps)
    # every payload is built from these strings: each integer is converted to decimal
    # once, and a point's shared denominator, its height, is printed once
    rows = [(str(step), *format_triple(*triple)) for step, triple in enumerate(trajectory.decimal_triples, start=1)]
    as_csv = functools.cache(lambda: _csv_text(("step", "x", "y", "height"), rows))
    if csv_path is not None:
        _write_file(csv_path, as_csv())
    _emit(
        fmt,
        text=lambda: _lines(
            *(f"step {step}: {x},{y} height {h}" for step, x, y, h in rows),
            f"period: {trajectory.period if trajectory.period is not None else 'none'}",
        ),
        json=lambda: _iterate_json(trajectory, rows),
        csv=as_csv,
    )


def _iterate_json(trajectory, rows) -> str:
    """`_json` of the iterate payload, with `points` and `heights` joined from the row strings.

    A p/q string and a decimal integer need no JSON escaping, so joining them
    gives json.dumps's bytes without converting each height to decimal again.
    The coordinates, megabytes of digits, are copied once, by the final join.
    """
    head = _json({
        "delta": format_projective(trajectory.delta),
        "start": format_point(trajectory.start),
        "period": trajectory.period,
    })
    pieces = [head[:-2], ',"points":[']
    for i, (_, x, y, _) in enumerate(rows):
        pieces += (',["' if i else '["', x, '","', y, '"]')
    pieces += ('],"heights":[', ",".join(h for *_, h in rows), "]}\n")
    return "".join(pieces)


# ------------------------------------------------------------------ audit ----


@cli.command(name="audit")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for the randomized law sweeps.")
@click.option("--height", "bound", type=int, default=50, show_default=True, metavar="H", help="Height bound for the identity sweeps.")
@click.option("--pairs", type=click.IntRange(min=0), default=2000, show_default=True, help="Pairs checked by the circle law sweep; the 16 special pairs of 0, 1, -1 and inf are always checked, the rest are sampled.")
@_format_option("json", default="json")
def audit_cmd(seed: int, bound: int, pairs: int, fmt: str) -> None:
    """Run every identity audit and print one deterministic JSON report."""
    report = audit_lib.run_audit_suite(seed=seed, identity_bound=bound, law_pairs=pairs)
    _emit(fmt, json=lambda: _json(report))


def main(argv=None) -> int:
    """Programmatic entry point; returns the process exit code."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:
        return 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except InvalidArgumentError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except ResourceLimitError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
