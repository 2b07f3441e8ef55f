"""Noncommutative polynomials over exact rationals.

Words are tuples of indeterminate ids and multiply by concatenation; a
polynomial maps words to nonzero rational coefficients (ints where exact,
``fractions.Fraction`` otherwise).  Every sum and product, the parser's and
the reducer's included, goes through ``add_terms``, so "ints where exact"
holds for every operation.  Indeterminates live in a ``FreeAlgebra`` registry
and may carry an adjoint partner, which makes the star anti-automorphism
available on words and polynomials.  Monomials are compared degree-first,
then lexicographically by a variable ranking (deglex).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Union

Word = tuple  # tuple[int, ...]
Coeff = Union[int, Fraction]

EMPTY_WORD: Word = ()


class AlgebraError(ValueError):
    """Invalid algebraic input (bad names, unpaired adjoints, ...)."""


def clip(text: str, limit: int = 60) -> str:
    """``text`` cut to ``limit`` characters, the last one ``…``: how an
    error message echoes input."""
    return text if len(text) <= limit else text[:limit - 1] + "…"


class LineError(AlgebraError):
    """Malformed input at line ``line_no`` (from 1) of a text file."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``, without a leading byte-order
    mark; a byte that is not UTF-8 raises ``LineError`` at its line."""
    with open(path, "rb") as fh:
        # the mark is stripped here, not by the ``utf-8-sig`` codec, whose
        # error offsets would not count it
        raw = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LineError(f"not UTF-8 text ({exc.reason})",
                        raw.count(b"\n", 0, exc.start) + 1) from None


class AdjointError(AlgebraError):
    """Adjoint requested for an indeterminate without a declared partner."""


class ParseError(AlgebraError):
    """Expression text could not be parsed; ``position`` is a 0-based offset."""

    def __init__(self, message: str, text: str = "",
                 position: Optional[int] = None):
        super().__init__(message if position is None
                         else f"{message} (at offset {position})")
        self.text = text
        self.position = position


def normalize_coeff(c) -> Coeff:
    """Canonicalize a rational coefficient: int when the denominator is 1.

    Floats are rejected: the whole engine is exact.
    """
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and int subclasses
        return int(c)
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")


@dataclass(frozen=True)
class Indeterminate:
    iid: int
    name: str
    adjoint: Optional[int]  # iid of the partner; may equal iid (self-adjoint)


# Characters with grammatical meaning in expressions; they cannot occur in names.
_RESERVED = set("()+-−*·/ \t\r\n")
# the term separators ``FreeAlgebra.render`` writes
_RENDER_TERM = re.compile(" ([-+]) ")


def _digits(s: str) -> bool:
    """``s`` is a positive decimal integer as ``str`` writes it."""
    return "1" <= s[:1] <= "9" and s.isascii() and s.isdigit()


class FreeAlgebra:
    """Registry of named indeterminates plus polynomial constructors.

    Adjoint pairing is an involution on the indeterminate set: declared via
    ``add_pair`` (mutual partners) or ``add_self_adjoint``.  Display names are
    unique and must not contain expression syntax characters.
    """

    def __init__(self):
        self._inds: list[Indeterminate] = []
        self._by_name: dict[str, int] = {}

    # -- declarations ------------------------------------------------------

    def _declare(self, *inds: Indeterminate) -> None:
        for ind in inds:
            self._inds.append(ind)
            self._by_name[ind.name] = ind.iid

    def _check_name(self, name: str) -> None:
        if not name or name[0].isdigit() or any(ch in _RESERVED for ch in name):
            raise AlgebraError(f"invalid indeterminate name {name!r}")
        if name in self._by_name:
            raise AlgebraError(f"duplicate indeterminate name {name!r}")

    def add(self, name: str) -> Indeterminate:
        """Declare an indeterminate without an adjoint partner."""
        self._check_name(name)
        ind = Indeterminate(len(self._inds), name, None)
        self._declare(ind)
        return ind

    def add_pair(self, name: str, adjoint_name: Optional[str] = None):
        """Declare ``name`` and its adjoint partner (default ``name + "*"``).

        A partner name holds a ``*`` only as ``name + "*"``, which the
        grammar reads as ``name`` then a star: ``render`` writes partner
        names as they are, and ``parse`` must read them back.
        """
        if adjoint_name is None:
            adjoint_name = name + "*"
        self._check_name(name)
        if adjoint_name == name:
            raise AlgebraError("use add_self_adjoint for self-adjoint operators")
        if adjoint_name != name + "*":
            if "*" in adjoint_name:
                raise AlgebraError(
                    f"adjoint partner {adjoint_name!r} of {name!r}: a partner "
                    f"name may hold '*' only as {name + '*'!r}")
            self._check_name(adjoint_name)
        i = len(self._inds)
        ind = Indeterminate(i, name, i + 1)
        adj = Indeterminate(i + 1, adjoint_name, i)
        self._declare(ind, adj)
        return ind, adj

    def add_self_adjoint(self, name: str) -> Indeterminate:
        self._check_name(name)
        ind = Indeterminate(len(self._inds), name, len(self._inds))
        self._declare(ind)
        return ind

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._inds)

    def __iter__(self) -> Iterator[Indeterminate]:
        return iter(self._inds)

    @property
    def names(self) -> list[str]:
        return [ind.name for ind in self._inds]

    def indeterminate(self, name: str) -> Indeterminate:
        try:
            return self._inds[self._by_name[name]]
        except KeyError:
            raise AlgebraError(f"unknown indeterminate {name!r}") from None

    def by_id(self, iid: int) -> Indeterminate:
        return self._inds[iid]

    def adjoint_id(self, iid: int) -> Optional[int]:
        return self._inds[iid].adjoint

    def word(self, *names: str) -> Word:
        """Build a word from display names, e.g. ``A.word("a", "b")``."""
        return tuple(self._by_name[n] if n in self._by_name
                     else self.indeterminate(n).iid for n in names)

    # -- constructors ------------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial._make(self, {})

    def one(self) -> "Polynomial":
        return Polynomial._make(self, {EMPTY_WORD: 1})

    def monomial(self, word: Iterable[int], coeff: Coeff = 1) -> "Polynomial":
        c = normalize_coeff(coeff)
        w = tuple(word)
        if any(not 0 <= x < len(self._inds) for x in w):
            raise AlgebraError("word contains undeclared indeterminate ids")
        return Polynomial._make(self, {w: c} if c else {})

    def poly(self, terms: Mapping[Word, Coeff]) -> "Polynomial":
        acc: dict = {}
        for w, c in terms.items():
            c = normalize_coeff(c)
            if c:
                acc[tuple(w)] = c
        return Polynomial._make(self, acc)

    # -- text --------------------------------------------------------------

    def parse(self, text: str,
              defs: Optional[Mapping[str, "Polynomial"]] = None) -> "Polynomial":
        """Parse an expression into a polynomial.

        Grammar: identifiers, postfix ``*`` for adjoint, ``+``/``-``,
        juxtaposition or ``·`` for products, integer and ``p/q`` literals,
        parentheses.  ``defs`` maps abbreviation names to polynomials; they are
        spliced in as atoms.

        Text in ``render``'s form is read by ``_read_rendered`` without
        tokenizing; any other text, and every error, goes through the grammar
        above.  Both give the same polynomial.
        """
        terms = self._read_rendered(text)
        if terms is None:
            try:
                terms = _Parser(self, text, defs or {}).parse()
            except RecursionError:
                raise ParseError("expression nested too deeply", text) from None
        return Polynomial._make(self, terms)

    def render_word(self, w: Word) -> str:
        if not w:
            return "1"
        return "·".join(self._inds[x].name for x in w)

    def render(self, p: "Polynomial") -> str:
        """Deterministic text form; ``parse(render(p)) == p``.

        Terms run from the largest word down, joined by ``" + "`` or
        ``" - "``; the first carries a bare ``-`` if negative.  A term is its
        coefficient's magnitude as ``str`` writes it (``n`` or ``p/q`` in
        lowest terms; left out when it is 1 and the word is not empty),
        ``·``, then the word's names joined by ``·``.  ``_read_rendered``
        inverts it.
        """
        if p.is_zero:
            return "0"
        order = self.default_order()
        out: list[str] = []
        for w in sorted(p._terms, key=order.key, reverse=True):
            c = p._terms[w]
            neg = c < 0
            mag = -c if neg else c
            if not w:
                body = str(mag)
            elif mag == 1:
                body = self.render_word(w)
            else:
                body = f"{mag}·{self.render_word(w)}"
            if not out:
                out.append("-" + body if neg else body)
            else:
                out.append(("- " if neg else "+ ") + body)
        return " ".join(out)

    def _read_rendered(self, text: str) -> Optional[dict]:
        """The term dict of ``text`` if it is in ``render``'s form, else None;
        never raises.

        Terms are split at ``" + "``/``" - "`` and words at ``·``, each piece
        a declared name; a term may open with an ``n`` or ``p/q`` head
        (unpadded ASCII digits, ``q`` nonzero), stored as an int where
        integral.  Anything else (parentheses, blanks, ``−``, a ``*`` outside
        a declared name, a repeated word, a zero, padded, non-ASCII or
        over-long number) gives None, and ``parse`` falls back to
        ``_Parser``.
        """
        if text == "0":
            return {}
        parts = _RENDER_TERM.split(
            " - " + text[1:] if text[:1] == "-" else " + " + text)
        names = self._by_name
        acc: dict = {}
        for i in range(1, len(parts), 2):
            pieces = parts[i + 1].split("·")
            head = pieces[0]
            c = 1
            if "1" <= head[:1] <= "9":  # a name never starts with a digit
                num, slash, den = head.partition("/")
                if not _digits(num) or slash and not _digits(den):
                    return None
                try:
                    c = int(num) if not slash else \
                        normalize_coeff(Fraction(int(num), int(den)))
                except ValueError:  # more digits than int() converts
                    return None
                del pieces[0]
            try:
                w = tuple([names[p] for p in pieces])
            except KeyError:
                return None
            if w in acc:
                return None
            acc[w] = -c if parts[i] == "-" else c
        return acc

    def default_order(self) -> "DegLexOrder":
        return DegLexOrder(None)

    def __repr__(self):
        return f"FreeAlgebra({', '.join(self.names)})"


class Polynomial:
    """Immutable noncommutative polynomial; arithmetic is exact and pure."""

    __slots__ = ("alg", "_terms")

    def __init__(self):
        raise TypeError("use FreeAlgebra constructors (poly/monomial/parse)")

    @staticmethod
    def _make(alg: FreeAlgebra, terms: dict) -> "Polynomial":
        p = object.__new__(Polynomial)
        p.alg = alg
        p._terms = terms
        return p

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def constant_term(self) -> Coeff:
        return self._terms.get(EMPTY_WORD, 0)

    @property
    def degree(self) -> int:
        """Maximal word length; -1 for the zero polynomial."""
        return max((len(w) for w in self._terms), default=-1)

    def terms(self) -> dict:
        return dict(self._terms)

    def monomials(self) -> list[Word]:
        order = self.alg.default_order()
        return sorted(self._terms, key=order.key, reverse=True)

    def coefficient(self, word: Iterable[int]) -> Coeff:
        return self._terms.get(tuple(word), 0)

    # -- ring operations ---------------------------------------------------

    def _require_same(self, other: "Polynomial") -> None:
        if self.alg is not other.alg:
            raise AlgebraError("polynomials belong to different algebras")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.alg.monomial(EMPTY_WORD, other)
        self._require_same(other)
        acc = dict(self._terms)
        add_terms(acc, other._terms.items())
        return Polynomial._make(self.alg, acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.alg, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.alg.monomial(EMPTY_WORD, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        self._require_same(other)
        return Polynomial._make(self.alg, _times(self._terms, other._terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c: Coeff) -> "Polynomial":
        c = normalize_coeff(c)
        if not c:
            return Polynomial._make(self.alg, {})
        return Polynomial._make(
            self.alg, {w: normalize_coeff(v * c) for w, v in self._terms.items()})

    # -- involution and substitution ----------------------------------------

    def adjoint(self) -> "Polynomial":
        """Star anti-automorphism: reverse words, swap letters for partners."""
        return Polynomial._make(self.alg, _adjoint_terms(self.alg, self._terms))

    # -- equality ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.alg is other.alg and self._terms == other._terms

    def __hash__(self):
        return hash((id(self.alg), frozenset(self._terms.items())))

    def __repr__(self):
        return self.alg.render(self)


def add_terms(acc: dict, items: Iterable, c: Coeff = 1,
              left: Word = EMPTY_WORD, right: Word = EMPTY_WORD) -> list:
    """Add ``c·left·w·right`` for each ``(w, coefficient)`` of ``items`` into
    the term dict ``acc`` in place.  ``c`` and the coefficients are nonzero.

    A cancelled word is deleted and an integral sum is stored as an int.
    Returns the words that were not in ``acc`` before, in order.
    """
    new = []
    for w, cw in items:
        w = left + w + right
        v = acc.get(w)
        if v is None:
            v = c * cw
            new.append(w)
        else:
            v += c * cw
            if not v:
                del acc[w]
                continue
        acc[w] = v if type(v) is int or v.denominator != 1 else v.numerator
    return new


def _times(a: dict, b: dict) -> dict:
    """Product of two term dicts."""
    acc: dict = {}
    for w, c in a.items():
        add_terms(acc, b.items(), c, w)
    return acc


def _partner(alg: FreeAlgebra, iid: int) -> int:
    adj = alg._inds[iid].adjoint
    if adj is None:
        raise AdjointError(
            f"indeterminate {alg._inds[iid].name!r} has no adjoint")
    return adj


def _adjoint_terms(alg: FreeAlgebra, terms: dict) -> dict:
    """Star of a term dict; the words keep their order."""
    return {tuple([_partner(alg, x) for x in w])[::-1]: c
            for w, c in terms.items()}


@dataclass(frozen=True)
class DegLexOrder:
    """Degree-lexicographic word order.

    ``ranking`` maps iid -> rank position; ``None`` means declaration order.
    The order is total, multiplicative and well-founded on words.
    """

    ranking: Optional[tuple]  # tuple[int, ...] indexed by iid

    @classmethod
    def from_names(cls, alg: FreeAlgebra, names: Iterable[str]) -> "DegLexOrder":
        """Rank the listed names first (in order); the rest follow by
        declaration.  A name listed twice is an ``AlgebraError``."""
        listed = []
        for n in names:
            iid = alg.indeterminate(n).iid
            if iid in listed:
                raise AlgebraError(f"order ranks {n!r} twice")
            listed.append(iid)
        seen = set(listed)
        full = listed + [i for i in range(len(alg)) if i not in seen]
        ranking = [0] * len(alg)
        for pos, iid in enumerate(full):
            ranking[iid] = pos
        return cls(tuple(ranking))

    def key(self, w: Word):
        r = self.ranking
        if r is None:
            return (len(w), w)
        return (len(w), tuple(r[x] for x in w))


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------

# Tokens; blanks (space, tab, CR, LF) only separate them.
#   name   a character outside _RESERVED and 0-9, then every character up to
#          the next one in _RESERVED
#   int    [0-9]+
#   op     one of ( ) + - − * · /
# Grammar over tokens:
#   expr = [+|-] term ((+|-) term)*     term = factor (["·"] factor)*
#   factor = (name | int ["/" int] | "(" expr ")") "*"*

# token kinds: the number of the _TOKEN group that matched
_END, _NAME, _INT, _MINUS, _PLUS, _STAR, _DOT, _SLASH, _LPAR, _RPAR = range(10)
_OTHER = "".join(sorted(map(re.escape, _RESERVED)))
_TOKEN = re.compile(f"([^{_OTHER}0-9][^{_OTHER}]*)"
                    r"|([0-9]+)|([-−])|(\+)|(\*)|(·)|(/)|(\()|(\))")


class _Parser:
    """Recursive descent over ``_TOKEN`` matches; every factor is a term
    dict, each ``*`` takes its adjoint and each product is one ``_times``."""

    def __init__(self, alg: FreeAlgebra, text: str,
                 defs: Mapping[str, Polynomial]):
        self.alg = alg
        self.text = text
        self.defs = defs
        self.toks = [(m.lastindex, m.group(), m.start())
                     for m in _TOKEN.finditer(text)]
        self.toks.append((_END, "", len(text)))
        self.pos = 0

    def _error(self, message: str, at: int) -> ParseError:
        return ParseError(message, self.text, at)

    def parse(self) -> dict:
        if len(self.toks) == 1:
            raise self._error("empty expression", 0)
        terms = self._expr()
        kind, value, at = self.toks[self.pos]
        if kind != _END:
            raise self._error(f"unexpected {value!r}", at)
        return terms

    def _expr(self) -> dict:
        toks = self.toks
        kind = toks[self.pos][0]
        sign = -1 if kind == _MINUS else 1
        if kind == _MINUS or kind == _PLUS:
            self.pos += 1
        acc: dict = {}
        while True:
            add_terms(acc, self._term().items(), sign)
            kind = toks[self.pos][0]
            if kind == _MINUS:
                sign = -1
            elif kind == _PLUS:
                sign = 1
            else:
                return acc
            self.pos += 1

    def _term(self) -> dict:
        terms = self._factor()
        while True:
            kind = self.toks[self.pos][0]
            if kind == _DOT:
                self.pos += 1
            elif kind != _NAME and kind != _INT and kind != _LPAR:
                return terms
            terms = _times(terms, self._factor())

    def _int(self, value: str, at: int) -> int:
        try:
            return int(value)
        except ValueError:  # more digits than Python converts from a string
            raise self._error("integer literal too long", at) from None

    def _factor(self) -> dict:
        """A name, a number or a parenthesised sum with its postfix stars."""
        toks = self.toks
        kind, value, at = toks[self.pos]
        self.pos += 1
        if kind == _NAME:
            if value in self.alg._by_name:  # letters win over defs
                terms = {(self.alg._by_name[value],): 1}
            elif value in self.defs:
                terms = self.defs[value]._terms
            else:
                raise self._error(f"unknown name {value!r}", at)
        elif kind == _INT:
            c = self._int(value, at)
            if toks[self.pos][0] == _SLASH:
                kind, value, at = toks[self.pos + 1]
                if kind == _END:
                    raise self._error("unexpected end of expression", at)
                self.pos += 2
                den = self._int(value, at) if kind == _INT else 0
                if den == 0:
                    raise self._error("expected nonzero integer denominator",
                                      at)
                c = normalize_coeff(Fraction(c, den))
            terms = {EMPTY_WORD: c} if c else {}
        elif kind == _LPAR:
            terms = self._expr()
            kind, value, at = toks[self.pos]
            if kind == _END:
                raise self._error("unexpected end of expression", at)
            self.pos += 1
            if kind != _RPAR:
                raise self._error("expected ')'", at)
        elif kind == _END:
            raise self._error("unexpected end of expression", at)
        else:
            raise self._error(f"unexpected {value!r}", at)
        while toks[self.pos][0] == _STAR:
            at = toks[self.pos][2]
            self.pos += 1
            try:
                terms = _adjoint_terms(self.alg, terms)
            except AdjointError as exc:
                raise self._error(str(exc), at) from None
        return terms
