"""Command-line interface: exact group arithmetic behind verb-noun commands.

Every payload is exact: rationals print as "p/q" (denominator always
present), the point at infinity as "inf", and no floating-point value ever
reaches stdout.  No command reads a clock, so identical invocations print
identical bytes on stdout and on stderr.  Exit codes: 0 success, 1 stdout
closed early, 2 invalid argument or usage, 3 resource limit exceeded.

Every command prints through `_emit`, the only function that writes stdout
or a file: it passes one builder per format it accepts, each returning its
output as pieces, a head and then rows joined a batch at a time.  Only the
chosen format's builder runs, and that of a --csv or --json side file when
one is asked for: written first, and read back as stdout when in its format.
Output goes a chunk at a time (`_write`), never as one whole string.  Every
refusal comes before `_emit`, so a failing call prints nothing.

`COMMANDS` maps each command path to its handler, its help line and its
options; `_parse` reads a call's arguments against the options.  An
option's value is the next token, whatever it starts with (`--point
-3/5,4/5`), or the text after "=" (`--k=3`); a repeated option keeps its
last value.  Each handler imports the library modules it uses, so a call
loads only those.
"""

from __future__ import annotations

import json
import os
import sys
from collections import namedtuple
from itertools import chain, islice, starmap

from .errors import InvalidArgumentError, ResourceLimitError
from .rationals import format_pair, format_point, format_projective, format_rational, int_digit_limit, print_limit_error
from .rationals import parse_point, parse_point_pairs, parse_projective, parse_projective_pair, parse_rational

__all__ = ["COMMANDS", "main"]


class UsageError(Exception):
    """A call that does not fit its command's options (exit code 2, printed under the usage lines)."""


# `--name VALUE` passes VALUE to the handler's parameter `dest`; `convert` is
# int, str, bool (a flag, which takes no value) or a tuple of choices
Option = namedtuple("Option", "name dest convert default required help", defaults=(str, None, False, ""))

_ABOUT = 'Exact arithmetic for the symmetry groups of x^k + y^k = 1.  Rationals are "p/q", "p" or "inf".'
# command path -> (handler, help line, options); the handler takes each option's dest
COMMANDS = {}


def _command(path: str, help: str, *options: Option):
    """Enter the decorated handler in COMMANDS under the space-separated `path`."""
    def enter(handler):
        COMMANDS[tuple(path.split())] = (handler, help, options)
        return handler
    return enter


_TJ = Option("--format", "fmt", ("text", "json"), "text", help="Output serialization.")
_TJC = _TJ._replace(convert=("text", "json", "csv"))
_K = Option("--k", "k", int, required=True, help="Form degree (k >= 3).")
_N = Option("--n", "n", int, required=True, help="Number of variables.")
_LIMIT = Option("--limit", "limit", int, help="Element cap (default 10^6 or FERMAT_ORBIT_LIMIT).")


# characters per write: a piece this long is written as it is, not copied into a chunk,
# so `iterate --steps 800` ran 3-4% faster than at 1 MiB, at the same traced peak
_CHUNK = 1 << 16
_BATCH = 4096  # items `_joined` joins into one piece


def _emit(fmt: str, side_file: "tuple[str, str | None]" = ("", None), **builders) -> None:
    """Write the chosen format's pieces to stdout, after those of `side_file`, a format and a path, when the path is given."""
    side, path = side_file
    size = None if path is None else _write_file(path, builders[side]())
    # stdout in the format of a readable regular side file is read back from it, so it is built once
    if side == fmt and size is not None and os.path.isfile(path) and os.access(path, os.R_OK):
        with open(path, encoding="utf-8", newline="") as handle:
            _write(sys.stdout, (handle.read(min(_CHUNK, size - done)) for done in range(0, size, _CHUNK)))
    else:
        _write(sys.stdout, builders[fmt]())
    # flushed here, so that a closed stdout pipe raises BrokenPipeError in `main` (exit 1), not at interpreter exit
    sys.stdout.flush()


def _write(stream, pieces) -> int:
    """Write the pieces to `stream` in writes of at most `_CHUNK` characters, a longer piece alone; return the count."""
    chunk, size, written = [], 0, 0
    for piece in pieces:
        if size + len(piece) > _CHUNK and chunk:
            written += stream.write("".join(chunk))
            chunk, size = [], 0
        chunk.append(piece)
        size += len(piece)
    return written + stream.write("".join(chunk))


def _json(payload, last: str = "") -> str:
    """The compact JSON of `payload` and a newline, or, given `last`, of the object left open for that last key's value."""
    text = json.dumps(payload, separators=(",", ":"))
    return f'{text[:-1]},"{last}":' if last else text + "\n"


def _joined(items, sep: str, size: int = _BATCH):
    """`sep.join(items)` as pieces, each joined at C level from up to `size` items."""
    items, lead = iter(items), []
    while batch := list(islice(items, size)):
        yield sep.join(lead + batch)
        lead = [""]


def _lines(lines):
    """The lines, each ended by a newline, as `_joined` pieces; a CSV line is its fields joined by ",", since
    none printed (integers, p/q, inf, space-separated integers) needs CSV quoting."""
    return _joined(chain(lines, [""]), "\n")


def _write_file(path, pieces) -> int:
    """Write a --csv or --json file and return its length; a path that cannot be written is an invalid argument."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            return _write(handle, pieces)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc.strerror}") from None


def _conic_group(group, name, motion, domain, audit_verb, audit_help) -> None:
    """Enter one conic's commands; `name` is the curve's name in the conic and audit modules."""

    def curve():
        from . import conic
        return getattr(conic, name.upper())

    # the point commands run the conic kernel on the parsed pairs, and their
    # texts, "p/q" or "inf", need no JSON escaping, so the JSON is joined directly
    @_command(f"{group} compose", f"Parameter of the product {motion} L(d1)·L(d2).",
              Option("--d1", "d1_text", required=True, help=f"First parameter ({domain})."),
              Option("--d2", "d2_text", required=True, help=f"Second parameter ({domain})."), _TJ)
    def compose_cmd(d1_text: str, d2_text: str, fmt: str) -> None:
        d1, d2 = parse_projective_pair(d1_text), parse_projective_pair(d2_text)
        result = format_pair(*curve().product_pair(d1, d2))
        _emit(fmt, text=lambda: [f"{result}\n"], json=lambda: [f'"{result}"\n'])

    @_command(f"{group} act", f"Exact image of a {name} point under a group element.",
              Option("--delta", "delta_text", required=True, help=f"{motion.capitalize()} parameter."),
              Option("--reflect", "reflect", bool, False, help=f"Apply the reflection diag(1,-1) after the {motion}."),
              Option("--point", "point_text", required=True, help=f"{name.capitalize()} point x,y."), _TJ)
    def act_cmd(delta_text: str, reflect: bool, point_text: str, fmt: str) -> None:
        conic = curve()
        delta = conic.valid_pair(*parse_projective_pair(delta_text))
        a, b, c = conic.image(delta, conic.point_triple(*parse_point_pairs(point_text)), reflect)
        x, y = format_pair(a, c), format_pair(b, c)
        _emit(fmt, text=lambda: [f"{x},{y}\n"], json=lambda: [f'["{x}","{y}"]\n'])

    @_command(f"{group} solve", f"{motion.capitalize()} parameter carrying one {name} point to another (verified).",
              Option("--from", "from_text", required=True, help="Start point x,y."),
              Option("--to", "to_text", required=True, help="Target point x,y."), _TJ)
    def solve_cmd(from_text: str, to_text: str, fmt: str) -> None:
        conic = curve()
        source, target = parse_point_pairs(from_text), parse_point_pairs(to_text)
        delta = format_pair(*conic.solve_triples(conic.point_triple(*source), conic.point_triple(*target)))
        _emit(fmt, text=lambda: [f"{delta}\n"], json=lambda: [f'{{"delta":"{delta}","reflected":false}}\n'])

    @_command(f"{group} {audit_verb}", f"Audit the two closed forms for the {name}'s connecting parameter. {audit_help}",
              Option("--height", "bound", int, help="Sweep all point pairs up to this height (default 12)."),
              Option("--from", "from_text", help="Audit a single pair: start point."),
              Option("--to", "to_text", help="Audit a single pair: target point."), _TJ)
    def audit_cmd(bound, from_text, to_text, fmt: str) -> None:
        from . import audit
        if (from_text is None) != (to_text is None):
            raise UsageError("--from and --to must be given together")
        if from_text is not None:
            if bound is not None:
                raise UsageError("give either --height or a --from/--to pair, not both")
            conic = curve()
            source, target = parse_point_pairs(from_text), parse_point_pairs(to_text)
            (pair,) = conic.identity_pairs([conic.point_triple(*source)], [conic.point_triple(*target)])
            payload = audit.render_identity_audit(pair)
        else:
            payload = getattr(audit, f"{name}_identity_sweep")(12 if bound is None else bound)
        _emit(fmt, text=lambda: [json.dumps(payload, indent=2), "\n"], json=lambda: [_json(payload)])


_conic_group("circle", "circle", "rotation", "p/q or inf", "audit-exy",
             "Both forms are evaluated exactly on every pair of rational circle points within the height bound "
             "(or on one explicit pair) and compared against the verified transitivity solver.")
_conic_group("hyper", "hyperbola", "boost", "p/q or inf, |p/q| != 1", "audit",
             "The right-hand form tracks the verified solver; the left-hand form is genuinely discrepant, and "
             "the sweep preserves the disagreement with exact witnesses instead of reconciling it.")


@_command("triples", "Primitive Pythagorean triples from rotation parameters up to a height.",
          Option("--height", "bound", int, required=True, help="Parameter height bound."), _TJC)
def triples_cmd(bound: int, fmt: str) -> None:
    from .circle import primitive_triples
    triples = primitive_triples(bound)
    _emit(
        fmt,
        text=lambda: _lines(starmap("{} {} {}".format, triples)),
        json=lambda: chain(["["], _joined(starmap("[{},{},{}]".format, triples), ","), ["]\n"]),
        csv=lambda: _lines(chain(["a,b,c"], starmap("{},{},{}".format, triples))),
    )


@_command("kgroup order", "Group order k^n * n! (exact).", _K, _N, _TJ)
def kgroup_order_cmd(k: int, n: int, fmt: str) -> None:
    from .monomial import group_order
    order = group_order(k, n)
    _emit(fmt, text=lambda: [f"{order}\n"], json=lambda: [_json(order)])


# how each format prints an element (perm, exp): the separator inside
# either vector, then the text before, between and after the two vectors
_ELEMENT_TEXT = ",", "perm=", " exp=", ""
_ELEMENT_JSON = ",", '{"perm":[', '],"exp":[', "]}"
_ELEMENT_CSV = " ", "", ",", ""


def _elements(factors, form, joiner: str):
    """Every element of a product of permutations and exponent vectors, printed in `form` and joined by `joiner`.

    The elements run through each permutation in turn with every vector,
    the order of `monomial.enumerate_group`, so each permutation's and each
    vector's text is formatted once and no element is built.  A
    permutation's elements are one piece.
    """
    permutations, vectors = factors
    sep, head, middle, tail = form
    vector_texts = [sep.join(map(str, vector)) for vector in vectors]
    lead = ""
    for perm in permutations:
        prefix = f"{head}{sep.join(map(str, perm))}{middle}"
        yield "".join([lead, prefix, f"{tail}{joiner}{prefix}".join(vector_texts), tail])
        lead = joiner


@_command("kgroup enumerate", "List every group element as its permutation and exponent vector.", _K, _N, _LIMIT, _TJC)
def kgroup_enumerate_cmd(k: int, n: int, limit, fmt: str) -> None:
    from .monomial import group_factors
    factors = group_factors(k, n, limit)
    _emit(
        fmt,
        text=lambda: chain(_elements(factors, _ELEMENT_TEXT, "\n"), ["\n"]),
        json=lambda: chain(["["], _elements(factors, _ELEMENT_JSON, ","), ["]\n"]),
        csv=lambda: chain(["perm,exp\n"], _elements(factors, _ELEMENT_CSV, "\n"), ["\n"]),
    )


def _split_top_level(text: str) -> list[str]:
    parts: list[str] = []
    depth = start = 0
    for i, ch in enumerate(text):
        depth += (ch == "[") - (ch == "]")
        if depth < 0:
            raise InvalidArgumentError(f"unbalanced brackets in vector: {text!r}")
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise InvalidArgumentError(f"unbalanced brackets in vector: {text!r}")
    parts.append(text[start:])
    return parts


def _parse_vector(text: str) -> list:
    """The components of `--point`, rationals and coefficient lists, as `monomial.cyclo_vector` lifts them."""
    parsed = []
    for token in _split_top_level(text):
        token = token.strip()
        if not token:
            raise InvalidArgumentError(f"empty component in vector: {text!r}")
        if token.startswith("["):
            if not token.endswith("]"):
                raise InvalidArgumentError(f"malformed cyclotomic component: {token!r}")
            inner = token[1:-1].strip()
            parsed.append([parse_rational(part) for part in inner.split(",")] if inner else [])
        else:
            parsed.append(parse_rational(token))
    return parsed


def _component_json(component) -> str:
    """`_json` of a component's payload, without the newline: "p/q" when it is rational, else its `as_dict`.

    A "p/q" text needs no JSON escaping, so the fragment is joined from the
    coefficient texts; a coefficient is zero exactly when it prints "0/1".
    """
    first, *rest = texts = component.coefficient_texts()
    if set(rest) <= {"0/1"}:
        return f'"{first}"'
    return '{"k":%d,"coeffs":["%s"]}' % (component.k, '","'.join(texts))


_VECTOR = 'Vector: components "p/q" or cyclotomic coefficient lists "[c0,c1,...]", comma separated.'


@_command("kgroup orbit", "Full group orbit of a vector, with the orbit-stabilizer check.",
          _K, Option("--point", "point_text", required=True, help=_VECTOR), _LIMIT, _TJ)
def kgroup_orbit_cmd(k: int, point_text: str, limit, fmt: str) -> None:
    from . import monomial
    vector = _parse_vector(point_text)
    # the indices follow the components' coefficient vectors, so the points
    # come out of `sorted_orbit` in the order they print; each component is
    # formatted once
    components, rows, stabilizer_order = monomial.orbit_rows(vector, k, limit)
    group_order = monomial.group_order(k, len(vector))

    def orbit_pieces(texts, sep: str, joiner: str, head, tail: str):
        # `head` of the orbit's size, the points each joined by `sep` and all by
        # `joiner`, then `tail`: each first text's run is one piece, joined behind it
        runs = monomial.sorted_orbit(rows, [sep + text for text in texts])
        yield head(sum(len(run) for _, run in runs))
        lead = ""
        for i, run in runs:
            yield "".join([lead, texts[i], (joiner + texts[i]).join(run)])
            lead = joiner
        yield tail

    # a component's JSON is the same fragment wherever it appears
    _emit(
        fmt,
        text=lambda: orbit_pieces(list(map(str, components)), " | ", "\n", lambda size: (
            f"orbit size {size}, stabilizer order {stabilizer_order}, group order {group_order}\n"), "\n"),
        json=lambda: orbit_pieces(list(map(_component_json, components)), ",", "],[", lambda size: _json(
            {"k": k, "n": len(vector), "orbit_size": size, "stabilizer_order": stabilizer_order,
             "group_order": group_order}, "points") + "[[", "]]}\n"),
    )


@_command("kgroup rational", "The subgroup with rational matrix entries, certified by closure checks.",
          _K, _N, _LIMIT, _TJ)
def kgroup_rational_cmd(k: int, n: int, limit, fmt: str) -> None:
    from .monomial import rational_elements
    report = rational_elements(k, n, limit)
    factors = report.permutations, report.exponent_vectors
    fields = {"k": report.k, "n": report.n, "order": report.order, "is_group": report.is_group,
              "permutations_only": report.permutations_only}
    _emit(
        fmt,
        text=lambda: chain(
            [f"order {report.order} (group: {report.is_group}, permutations only: {report.permutations_only})\n"],
            _elements(factors, _ELEMENT_TEXT, "\n"), ["\n"],
        ),
        json=lambda: chain([_json(fields, "elements"), "["], _elements(factors, _ELEMENT_JSON, ","), ["]}\n"]),
    )


@_command("kgroup orbit-rational", "Rational points of x^k + y^k = 1 in the orbit of (1, 0).", _K, _LIMIT, _TJC)
def kgroup_orbit_rational_cmd(k: int, limit, fmt: str) -> None:
    from .monomial import orbit_rational_points
    points = sorted(orbit_rational_points(k, limit=limit))
    rows = [(format_rational(x), format_rational(y)) for x, y in points]
    _emit(
        fmt,
        text=lambda: _lines(map(",".join, rows)),
        json=lambda: [_json(rows)],
        csv=lambda: _lines(chain(["x,y"], map(",".join, rows))),
    )


@_command("search", "Exhaustive scan for rational solutions of x_1^k + ... + x_n^k = 1.",
          _K._replace(help="Form degree (k >= 2)."),
          Option("--height", "bound", int, required=True, help="Height bound for every coordinate."),
          _N._replace(default=2, required=False),
          Option("--json", "json_path", help="Also write the JSON report to this file."), _TJC)
def search_cmd(k: int, bound: int, n: int, json_path, fmt: str) -> None:
    from .search import search_n
    report = search_n(k, n, bound)
    # each coordinate is formatted once; a format reads the rows through these names
    names = [format_pair(p, q) for p, q in report.coordinates]

    def rows(texts):
        # every solution's texts, read in one pass over all the indices and cut into rows of n
        return zip(*[map(texts.__getitem__, chain.from_iterable(report.ranks))] * n)

    fields = {"k": report.k, "n": report.n, "height": report.height_bound, "count": len(report.ranks),
              "trivial": report.trivial_count, "nontrivial": report.nontrivial_count}
    _emit(
        fmt,
        ("json", json_path),
        text=lambda: _lines(chain(
            [f"k={report.k} n={report.n} height={report.height_bound}: {len(report.ranks)} solutions "
             f"({report.trivial_count} trivial, {report.nontrivial_count} nontrivial)"],
            map(",".join, rows(names)),
        )),
        # a "p/q" text needs no JSON escaping, so each row is joined from the
        # quoted names; the unit vectors are solutions, so there is a row
        json=lambda: chain([_json(fields, "solutions"), "[["],
                           _joined(map(",".join, rows([f'"{name}"' for name in names])), "],["), ["]]}\n"]),
        csv=lambda: _lines(chain([",".join(f"x{i}" for i in range(1, n + 1))], map(",".join, rows(names)))),
    )


@_command("coverage", "Verify every bounded circle point is reached from (1,0) by a rotation.",
          Option("--height", "bound", int, required=True, help="Height bound for circle points."), _TJC)
def coverage_cmd(bound: int, fmt: str) -> None:
    from .search import verify_orbit_coverage
    report = verify_orbit_coverage(bound)
    # each coordinate of the scan is formatted once, as in `search`
    names = [format_pair(p, q) for p, q in report.coordinates]
    rows = [(names[i], names[j], format_pair(*delta)) for i, j, delta in report.reached]
    coverage = format_rational(report.coverage)
    fields = {"height": report.height_bound, "total": report.total, "covered": report.covered, "coverage": coverage}
    _emit(
        fmt,
        text=lambda: _lines(chain(
            [f"covered {report.covered}/{report.total} (coverage {coverage})"],
            starmap("{},{} <- delta {}".format, rows),
        )),
        # "p/q" texts need no JSON escaping, so both lists are joined from them
        json=lambda: chain(
            [_json(fields, "unreachable"), "[", ",".join([f'"{names[i]},{names[j]}"' for i, j in report.missed]),
             '],"entries":['], _joined(starmap('{{"point":"{},{}","delta":"{}"}}'.format, rows), ","), ["]}\n"],
        ),
        csv=lambda: _lines(chain(["x,y,delta"], map(",".join, rows))),
    )


@_command("counterexample", "A verified 3-variable solution (x1, -x1, 1) of arbitrary height, odd k.",
          _K._replace(help="Odd form degree (k >= 3)."),
          Option("--x1", "x1_text", required=True, help="Free rational parameter p/q."), _TJ)
def counterexample_cmd(k: int, x1_text: str, fmt: str) -> None:
    from .search import n_counterexample
    witness = [format_rational(c) for c in n_counterexample(k, parse_rational(x1_text))]
    payload = {"k": k, "witness": witness, "verified": True}
    _emit(fmt, text=lambda: [",".join(witness), "\n"], json=lambda: [_json(payload)])


@_command("iterate", "Iterate a rational rotation exactly, recording points and heights.",
          Option("--delta", "delta_text", required=True, help="Rotation parameter."),
          Option("--steps", "steps", int, required=True, help="Number of exact steps."),
          Option("--start", "start_text", default="1/1,0/1", help="Start point on the circle."),
          Option("--csv", "csv_path", help="Also write the trajectory as CSV to this file."), _TJC)
def iterate_cmd(delta_text: str, steps: int, start_text: str, csv_path, fmt: str) -> None:
    from .stroboscope import extent, walk
    delta, start = parse_projective(delta_text), parse_point(start_text)
    # |a|, |b| <= c on the circle: `extent` reads the widest height and the period off the transient
    period, fits = extent(delta, start, steps, int_digit_limit())
    if not fits:
        raise print_limit_error()

    def table(row, head: str, tail):
        # `head`, the `row` pieces of each step's number and integers, each converted to decimal
        # once, joined a list of steps at a time, then `tail`: a coordinate a/h is pieces a, "/", h
        yield head
        step = 0
        for batch in walk(delta, start, steps, period):
            pieces = []
            for a, b, c in batch:
                step += 1
                pieces += row(str(step), str(a), str(b), str(c))
            yield "".join(pieces)
        yield from tail

    def as_json():
        # a p/q text and a decimal integer need no JSON escaping; each height's text is kept for
        # the list that closes the payload, a fifth of its bytes, and joined 64 at a time as the steps
        heights = []

        def row(step, a, b, h):
            heights.append(h)
            return ('["' if step == "1" else ',["', a, "/", h, '","', b, "/", h, '"]')
        head = _json({"delta": format_projective(delta), "start": format_point(start), "period": period}, "points")
        return table(row, head + "[", chain(['],"heights":['], _joined(heights, ",", 64), ["]}\n"]))

    _emit(
        fmt,
        ("csv", csv_path),
        text=lambda: table(lambda i, a, b, h: ("step ", i, ": ", a, "/", h, ",", b, "/", h, " height ", h, "\n"),
                           "", [f"period: {period or 'none'}\n"]),
        json=as_json,
        csv=lambda: table(lambda i, a, b, h: (i, ",", a, "/", h, ",", b, "/", h, ",", h, "\n"), "step,x,y,height\n", []),
    )


@_command("audit", "Run every identity audit and print one deterministic JSON report.",
          Option("--seed", "seed", int, 0, help="Seed for the randomized law sweeps."),
          Option("--height", "bound", int, 50, help="Height bound for the identity sweeps."),
          Option("--pairs", "pairs", int, 2000, help="Pairs checked by the circle law sweep; the 16 special "
                 "pairs of 0, 1, -1 and inf are always checked, the rest are sampled."),
          _TJ._replace(convert=("json",), default="json"))
def audit_cmd(seed: int, bound: int, pairs: int, fmt: str) -> None:
    from .audit import run_audit_suite
    report = run_audit_suite(seed=seed, identity_bound=bound, law_pairs=pairs)
    _emit(fmt, json=lambda: [_json(report)])


def _parse(options, tokens):
    """The handler's keyword arguments read from `tokens`, or None when they ask for --help."""
    by_name = {option.name: option for option in options}
    given = {}
    tokens = iter(tokens)
    for token in tokens:
        if token == "--help":
            return None
        name, eq, value = token.partition("=")
        option = by_name.get(name)
        if option is None:
            raise UsageError(f"No such option '{name}'." if token[:1] == "-" else f"Got unexpected extra argument ({token})")
        if option.convert is bool and eq:
            raise UsageError(f"Option '{name}' does not take a value.")
        if not eq:
            value = True if option.convert is bool else next(tokens, None)
        if value is None:
            raise UsageError(f"Option '{name}' requires an argument.")
        given[option] = value
    for option in options:
        if option.required and option not in given:
            raise UsageError(f"Missing option '{option.name}'.")
    return {option.dest: _convert(option, given[option]) if option in given else option.default for option in options}


def _convert(option: Option, text):
    """The value of `option` given as `text`; a value it does not accept is a usage error."""
    if option.convert is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"Invalid value for '{option.name}': '{text}' is not a valid integer.") from None
    if isinstance(option.convert, tuple) and text not in option.convert:
        raise UsageError(f"Invalid value for '{option.name}': '{text}' is not one of {', '.join(map(repr, option.convert))}.")
    return text


def _usage(path) -> str:
    return f"Usage: {' '.join(('fermatgroups', *path))} [OPTIONS]" + ("" if path in COMMANDS else " COMMAND [ARGS]...")


def _option_line(option: Option) -> str:
    kind = option.convert
    metavar = f" [{'|'.join(kind)}]" if isinstance(kind, tuple) else {int: " INTEGER", str: " TEXT"}.get(kind, "")
    note = "  [required]" if option.required else "" if option.default in (None, False) else f"  [default: {option.default}]"
    return f"{option.name + metavar:<26}{option.help}{note}"


def _help(path) -> int:
    """Print the usage and the options of a command, or the commands of a group, on stdout; return 0."""
    if path in COMMANDS:
        _, about, options = COMMANDS[path]
        rows = [*map(_option_line, options), f"{'--help':<26}Show this message and exit."]
    else:
        about = _ABOUT
        rows = [f"{' '.join(p[len(path):]):<26}{text}" for p, (_, text, _) in COMMANDS.items() if p[: len(path)] == path]
    _emit("text", text=lambda: _lines([_usage(path), "", about, "", *(f"  {row}" for row in rows)]))
    return 0


def main(argv=None) -> int:
    """Programmatic entry point; returns the process exit code."""
    args = sys.argv[1:] if argv is None else list(argv)
    # a command path is one or two names long
    path = next((p for p in (tuple(args[:2]), tuple(args[:1])) if p in COMMANDS), None)
    try:
        if path is None:
            path = tuple(args[:1]) if tuple(args[:1]) in {p[:-1] for p in COMMANDS} else ()
            rest = args[len(path):]
            if rest[:1] == ["--help"]:
                return _help(path)
            raise UsageError(f"No such command '{rest[0]}'." if rest else "Missing command.")
        handler, _, options = COMMANDS[path]
        values = _parse(options, args[len(path):])
        if values is None:
            return _help(path)
        handler(**values)
    except UsageError as exc:
        command = " ".join(("fermatgroups", *path))
        sys.stderr.write(f"{_usage(path)}\nTry '{command} --help' for help.\n\nError: {exc}\n")
        return 2
    except (InvalidArgumentError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidArgumentError) else 3
    except BrokenPipeError:  # the reader closed stdout
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
