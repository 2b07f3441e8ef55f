"""Fuzzed input: malformed problem files, expressions and certificates raise
the documented input errors and nothing else.  Parse only, never complete."""

import json

from hypothesis import given, settings, strategies as st

from opcert.certify import certificate_from_dict
from opcert.freealg import AlgebraError, FreeAlgebra
from opcert.statements import ProblemFileError, parse_problem
from conftest import FIXTURES

_PROBLEMS = [p.read_text(encoding="utf-8")
             for p in sorted(FIXTURES.glob("*.prob"))]
# the one fixture with a [quiver] section is drawn half of the time
_WERNER = (FIXTURES / "werner.prob").read_text(encoding="utf-8")
_CERTIFICATE = json.loads(
    (FIXTURES / "werner_paper.cert").read_text(encoding="utf-8"))

# pieces of the problem grammar, so that mutations get past the first check
_FRAGMENTS = [
    "[ops]", "[defs]", "[quiver]", "[assume]", "[workflow]", "[claim]",
    "[options]", "vertices", "v9", "a", "b", "x", "w1", "a*", "a⁻", "adjoint",
    "selfadjoint", ":", "->", "=", "·", "*", "+", "−", "-", "/", "(", ")",
    "{", "}", ",", ";", "#", " ", "\n", "0", "1", "5", "1/0", "9" * 5000,
    "mp(", "inv(", "id(", "douglas(", "hermitian(", "ep(", "⊆", "⊇",
    "witness", "cancel right", "conclude", "max_degree", "time_budget",
    "closure", "on", "order",
]
_PIECES = st.sampled_from(_FRAGMENTS) | st.text(max_size=4)
# (line, column, kind, piece): edits are placed line by line, so short
# sections such as [quiver] are hit as often as long ones
_EDITS = st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200),
                            st.sampled_from(["insert", "delete", "line"]),
                            _PIECES),
                  min_size=1, max_size=4)


def _mutate(text: str, edits) -> str:
    """Insert a piece, delete one character more than its length, or
    replace the whole line by it."""
    for row, col, kind, piece in edits:
        lines = text.split("\n")
        row %= len(lines)
        line = lines[row]
        col %= len(line) + 1
        if kind == "insert":
            lines[row] = line[:col] + piece + line[col:]
        elif kind == "delete":
            lines[row] = line[:col] + line[col + len(piece) + 1:]
        else:
            lines[row] = piece
        text = "\n".join(lines)
    return text


@settings(max_examples=300, deadline=None)
@given(st.just(_WERNER) | st.sampled_from(_PROBLEMS), _EDITS)
def test_mutated_problem_files_raise_only_line_errors(text, edits):
    text = _mutate(text, edits)
    try:
        parse_problem(text)
    except ProblemFileError as exc:
        assert 1 <= exc.line_no <= len(text.splitlines())
        message = str(exc)
        assert message.startswith(f"line {exc.line_no}: ")
        assert len(message) < 250 and "\n" not in message


_EXPRESSION_PIECES = st.sampled_from(
    ["a", "a*", "b", "b*", "j", "j*", "d", "·", "*", "+", "-", "−", "/",
     "(", ")", " ", "0", "2", "1/0", "3/4", "9" * 5000, "((((("]) \
    | st.text(max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.lists(_EXPRESSION_PIECES, max_size=12))
def test_parse_raises_only_algebra_errors(pieces):
    alg = FreeAlgebra()
    alg.add_pair("a")
    alg.add("b")
    alg.add_self_adjoint("j")
    try:
        alg.parse("".join(pieces), defs={"d": alg.parse("a·b")})
    except AlgebraError:
        pass


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text(max_size=6) | st.sampled_from(["a", "a·b", "1", "f1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _paths(obj, prefix=()):
    """Every (container path, key) inside a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


_CERT_PATHS = list(_paths(_CERTIFICATE))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_CERT_PATHS), st.booleans(), _JSON),
                min_size=1, max_size=3))
def test_certificate_from_dict_raises_only_algebra_errors(edits):
    data = json.loads(json.dumps(_CERTIFICATE))
    for (path, key), delete, value in edits:
        try:
            node = data
            for step in path:
                node = node[step]
            if delete and isinstance(node, dict):
                node.pop(key, None)
            else:
                node[key] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed or replaced the place
    try:
        certificate_from_dict(data)
    except AlgebraError:
        pass
