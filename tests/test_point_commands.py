"""`circle`/`hyper` `compose`, `act`, `solve` and the pair audits against the former Fraction handlers, byte for byte.

The commands parse each token into a reduced integer pair and run the conic
kernel on pairs and triples.  The oracle here is the former route: each
token read into a `Fraction` by the former `parse_rational`, the former
checks on Fractions, and the arithmetic of `conic_oracle`, which shares no
code with the kernel, printed by its own renderer for the audits.  For
every input, valid or not, the exit code, stdout and stderr must agree, so
the same error wins: in `act` the parameter's errors come before the
point's, in `solve` and the pair audits the errors of `--from` come before
those of `--to`, and parse errors come before the checks.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import conic_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatgroups.cli import main
from fermatgroups.conic import CIRCLE, HYPERBOLA
from fermatgroups.errors import InvalidArgumentError, ResourceLimitError
from fermatgroups.rationals import INF, format_projective, format_rational

GROUPS = {"circle": CIRCLE, "hyper": HYPERBOLA}


# ------------------------------------------------------------- the oracle --


def former_rational(text):
    """The former `parse_rational`: "p" or "p/q" read into a Fraction."""
    raw = text.strip()
    num_part, slash, den_part = raw.partition("/")
    try:
        num = int(num_part)
        den = int(den_part) if slash else 1
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if limit and max(sum(ch.isdigit() for ch in part) for part in (num_part, den_part)) > limit:
            raise ResourceLimitError(
                f"cannot read a rational with more than {limit} digits"
                f" (Python's int-from-str conversion limit): {raw[:20]!r}... ({len(raw)} characters)"
            ) from None
        raise InvalidArgumentError(f"malformed rational: {text!r}") from None
    if den == 0:
        raise InvalidArgumentError(f"malformed rational (zero denominator): {text!r}")
    return Fraction(num, den)


def former_projective(text):
    return INF if text.strip() == "inf" else former_rational(text)


def former_point(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidArgumentError(f"malformed point (need two components): {text!r}")
    return former_rational(parts[0]), former_rational(parts[1])


def former_valid(curve, delta):
    if curve.s < 0 and delta is not INF and abs(delta) == 1:
        raise InvalidArgumentError(f"hyperbolic parameter {format_projective(delta)} is excluded (|Delta| = 1)")
    return delta


def former_on_curve(curve, point):
    x, y = point
    if x * x + curve.s * y * y != 1:
        raise InvalidArgumentError(f"point {format_rational(x)},{format_rational(y)} is not on the unit {curve.name}")
    return point


def former_compose(curve, d1_text, d2_text, fmt):
    d1, d2 = former_projective(d1_text), former_projective(d2_text)
    result = format_projective(conic_oracle.compose_delta(curve, former_valid(curve, d1), former_valid(curve, d2)))
    return f"{result}\n" if fmt == "text" else json.dumps(result) + "\n"


def former_act(curve, delta_text, reflect, point_text, fmt):
    delta = former_valid(curve, former_projective(delta_text))
    point = former_on_curve(curve, former_point(point_text))
    image = [format_rational(c) for c in conic_oracle.act(curve, delta, reflect, point)]
    return ",".join(image) + "\n" if fmt == "text" else json.dumps(image, separators=(",", ":")) + "\n"


def former_solve(curve, from_text, to_text, fmt):
    source, target = former_point(from_text), former_point(to_text)
    source, target = former_on_curve(curve, source), former_on_curve(curve, target)
    delta = format_projective(former_valid(curve, conic_oracle.solve_delta(curve, source, target)))
    return f"{delta}\n" if fmt == "text" else json.dumps({"delta": delta, "reflected": False}, separators=(",", ":")) + "\n"


def former_pair_audit(curve, from_text, to_text, fmt):
    source, target = former_point(from_text), former_point(to_text)
    source, target = former_on_curve(curve, source), former_on_curve(curve, target)
    payload = conic_oracle.render(conic_oracle.delta_identity_audit(curve, source, target))
    return json.dumps(payload, indent=2) + "\n" if fmt == "text" else json.dumps(payload, separators=(",", ":")) + "\n"


def former(handler, *args):
    """The exit code, stdout and stderr of a former handler, as `main` reports them."""
    try:
        return 0, handler(*args), ""
    except InvalidArgumentError as exc:
        return 2, "", f"error: {exc}\n"
    except ResourceLimitError as exc:
        return 3, "", f"error: {exc}\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------- the inputs --

SPACE = st.sampled_from(["", " ", "  "])
SMALL = st.fractions(min_value=-20, max_value=20, max_denominator=20)
# 2,501 digits read, and any product of two of them is past the 4,300-digit print limit
WIDE = st.sampled_from([Fraction(10**2500 + 1, 3), Fraction(7, 10**2500 - 1)])
UNIT = st.sampled_from([Fraction(1), Fraction(-1)])
MALFORMED = st.sampled_from([
    "", " ", "abc", "1/0", "-3/0", "0/0", "1//2", "1/2/3", "1.5", "inf/1", "1/inf", "/2", "2/",
    "9" * 4301, "1/" + "9" * 5000, "-" + "9" * 4400 + "/7",
])


def spell(value, scale, flip, bare, left, right):
    """A text of `value`: "p" when integral and `bare`, else "p/q" times `scale`, both negated when `flip`, padded."""
    num, den = value.numerator * scale, value.denominator * scale
    if flip:
        num, den = -num, -den
    body = str(value.numerator) if bare and value.denominator == 1 else f"{num}/{den}"
    return f"{left}{body}{right}"


def texts(value):
    return st.builds(spell, st.just(value), st.integers(1, 4), st.booleans(), st.booleans(), SPACE, SPACE)


DELTAS = st.one_of(
    st.one_of(SMALL, SMALL, UNIT, WIDE).flatmap(texts),
    st.builds("{}inf{}".format, SPACE, SPACE),
    MALFORMED,
)


def curve_points(s):
    """L(n/m)·(1, 0) on x^2 + s*y^2 = 1, with either sign on each coordinate."""
    pairs = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(
        lambda p: p != (0, 0) and (s > 0 or abs(p[0]) != abs(p[1]))
    )

    def point(pair, sx, sy):
        n, m = pair
        scale = m * m + s * n * n
        return sx * Fraction(m * m - s * n * n, scale), sy * Fraction(2 * n * m, scale)

    return st.builds(point, pairs, st.sampled_from([1, -1]), st.sampled_from([1, -1]))


def points(s):
    spelled = st.one_of(curve_points(s), curve_points(s), st.tuples(SMALL, SMALL))
    return st.one_of(
        spelled.flatmap(lambda p: st.tuples(texts(p[0]), texts(p[1]))).map(",".join),
        st.tuples(st.one_of(SMALL.flatmap(texts), MALFORMED), MALFORMED).map(",".join),
        st.tuples(MALFORMED, SMALL.flatmap(texts)).map(",".join),
        st.sampled_from(["", "1", "1,0,0", "3/5;4/5", ",", "1,", "inf,0", "1,inf"]),
    )


FORMATS = st.sampled_from(["text", "json"])


# -------------------------------------------------------------- the tests --


@pytest.mark.parametrize("group", GROUPS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compose_matches_the_fraction_handler(group, data):
    curve = GROUPS[group]
    d1, d2, fmt = data.draw(DELTAS), data.draw(DELTAS), data.draw(FORMATS)
    argv = [group, "compose", "--d1", d1, "--d2", d2, "--format", fmt]
    assert run(argv) == former(former_compose, curve, d1, d2, fmt)


@pytest.mark.parametrize("group", GROUPS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_act_matches_the_fraction_handler(group, data):
    curve = GROUPS[group]
    delta, point = data.draw(DELTAS), data.draw(points(curve.s))
    reflect, fmt = data.draw(st.booleans()), data.draw(FORMATS)
    argv = [group, "act", "--delta", delta, "--point", point, *(["--reflect"] if reflect else []), "--format", fmt]
    assert run(argv) == former(former_act, curve, delta, reflect, point, fmt)


@pytest.mark.parametrize("group", GROUPS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_solve_matches_the_fraction_handler(group, data):
    curve = GROUPS[group]
    source, target, fmt = data.draw(points(curve.s)), data.draw(points(curve.s)), data.draw(FORMATS)
    argv = [group, "solve", "--from", source, "--to", target, "--format", fmt]
    assert run(argv) == former(former_solve, curve, source, target, fmt)


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["circle", "compose", "--d1", "6/10", "--d2", "3/-5"], 0, "0/1\n", ""),
        (["hyper", "compose", "--d1", " inf", "--d2", "-6/4 "], 0, "-2/3\n", ""),
        (["hyper", "act", "--delta", " 2/-4 ", "--point", "-10/6,8/-6"], 0, "-1/1,0/1\n", ""),
        (["hyper", "compose", "--d1", " 2/2", "--d2", "-3/3"], 2, "", "hyperbolic parameter 1/1 is excluded"),
        (["hyper", "compose", "--d1", "1/2", "--d2", "5/-5 "], 2, "", "hyperbolic parameter -1/1 is excluded"),
        (["hyper", "act", "--delta", "-1", "--point", "1,1"], 2, "", "hyperbolic parameter -1/1 is excluded"),
        (["hyper", "act", "--delta", "x", "--point", "1"], 2, "", "malformed rational: 'x'"),
        (["circle", "act", "--delta", "1/2", "--point", "1,1"], 2, "", "point 1/1,1/1 is not on the unit circle"),
        (["circle", "solve", "--from", "1,1", "--to", "1"], 2, "", "malformed point (need two components): '1'"),
        (["circle", "solve", "--from", "2,0", "--to", "3,0"], 2, "", "point 2/1,0/1 is not on the unit circle"),
        (["circle", "compose", "--d1", "9" * 4301, "--d2", "x"], 3, "", "int-from-str conversion limit"),
    ],
)
def test_pinned_inputs(argv, code, out, err):
    # unreduced tokens, negative denominators, padding and which error wins,
    # pinned where the properties draw them rarely
    result = run(argv)
    assert result[:2] == (code, out) and err in result[2]
    group, verb = argv[:2]
    handler = {"compose": former_compose, "act": former_act, "solve": former_solve}[verb]
    args = argv[3::2] if verb != "act" else [argv[3], False, argv[5]]
    assert result == former(handler, GROUPS[group], *args, "text")


AUDIT_VERBS = {"circle": "audit-exy", "hyper": "audit"}


@pytest.mark.parametrize("group", GROUPS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pair_audit_matches_the_fraction_handler(group, data):
    curve, verb = GROUPS[group], AUDIT_VERBS[group]
    maybe_point = st.one_of(st.none(), points(curve.s), points(curve.s), points(curve.s))
    source, target = data.draw(maybe_point), data.draw(maybe_point)
    if source is None and target is None:
        source = data.draw(points(curve.s))
    bound, fmt = data.draw(st.one_of(st.none(), st.none(), st.integers(1, 5))), data.draw(FORMATS)
    options = {"--from": source, "--to": target, "--height": None if bound is None else str(bound)}
    argv = [group, verb, *(token for name, value in options.items() if value is not None for token in (name, value))]
    # the former handler's usage checks, as `main` prints them
    usage = None
    if (source is None) != (target is None):
        usage = "--from and --to must be given together"
    elif bound is not None:
        usage = "give either --height or a --from/--to pair, not both"
    if usage is None:
        expected = former(former_pair_audit, curve, source, target, fmt)
    else:
        command = f"fermatgroups {group} {verb}"
        expected = 2, "", f"Usage: {command} [OPTIONS]\nTry '{command} --help' for help.\n\nError: {usage}\n"
    assert run([*argv, "--format", fmt]) == expected
