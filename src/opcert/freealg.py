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


class FreeAlgebra:
    """Registry of named indeterminates plus polynomial constructors.

    Adjoint pairing is an involution on the indeterminate set: declared via
    ``add_pair`` (mutual partners) or ``add_self_adjoint``.  Display names are
    unique and must not contain expression syntax characters.
    """

    def __init__(self):
        self._inds: list[Indeterminate] = []
        self._by_name: dict[str, int] = {}
        # "name" and "name*" -> the letter they denote in a run
        self._letters: dict[str, int] = {}

    # -- declarations ------------------------------------------------------

    def _declare(self, *inds: Indeterminate) -> None:
        for ind in inds:
            self._inds.append(ind)
            self._by_name[ind.name] = ind.iid
            if "*" in ind.name:  # a partner named "x*" is read as x then *
                continue
            self._letters[ind.name] = ind.iid
            if ind.adjoint is not None:
                self._letters[ind.name + "*"] = ind.adjoint

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
        """Declare ``name`` and its adjoint partner (default ``name + "*"``)."""
        if adjoint_name is None:
            adjoint_name = name + "*"
        self._check_name(name)
        if adjoint_name == name:
            raise AlgebraError("use add_self_adjoint for self-adjoint operators")
        # partner name may contain '*' only as a trailing marker; it is never
        # tokenized directly, rendering relies on that
        base = adjoint_name[:-1] if adjoint_name.endswith("*") else adjoint_name
        if not base or base[0].isdigit() or any(ch in _RESERVED for ch in base):
            raise AlgebraError(f"invalid indeterminate name {adjoint_name!r}")
        if adjoint_name in self._by_name:
            raise AlgebraError(f"duplicate indeterminate name {adjoint_name!r}")
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

    def gen(self, name: str) -> "Polynomial":
        """The indeterminate ``name`` as a polynomial."""
        return Polynomial._make(self, {(self.indeterminate(name).iid,): 1})

    # -- text --------------------------------------------------------------

    def parse(self, text: str,
              defs: Optional[Mapping[str, "Polynomial"]] = None) -> "Polynomial":
        """Parse an expression into a polynomial.

        Grammar: identifiers, postfix ``*`` for adjoint, ``+``/``-``,
        juxtaposition or ``·`` for products, integer and ``p/q`` literals,
        parentheses.  ``defs`` maps abbreviation names to polynomials; they are
        spliced in as atoms.
        """
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
        """Deterministic text form; ``parse(render(p)) == p``."""
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

    def default_order(self) -> "DegLexOrder":
        return DegLexOrder(None)

    def __repr__(self):
        return f"FreeAlgebra({', '.join(self.names)})"


class Polynomial:
    """Immutable noncommutative polynomial; arithmetic is exact and pure."""

    __slots__ = ("alg", "_terms", "_hash")

    def __init__(self):
        raise TypeError("use FreeAlgebra constructors (poly/monomial/parse)")

    @staticmethod
    def _make(alg: FreeAlgebra, terms: dict) -> "Polynomial":
        p = object.__new__(Polynomial)
        p.alg = alg
        p._terms = terms
        p._hash = None
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

    def lead_word(self, order: "DegLexOrder") -> Word:
        if not self._terms:
            raise AlgebraError("zero polynomial has no leading word")
        return max(self._terms, key=order.key)

    def lead_coeff(self, order: "DegLexOrder") -> Coeff:
        return self._terms[self.lead_word(order)]

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

    def monic(self, order: "DegLexOrder") -> "Polynomial":
        lc = self.lead_coeff(order)
        if lc == 1:
            return self
        return self.scaled(Fraction(1, 1) / lc)

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
        if self._hash is None:
            self._hash = hash((id(self.alg),
                               frozenset(self._terms.items())))
        return self._hash

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
        """Rank the listed names first (in order); the rest follow by declaration."""
        listed = [alg.indeterminate(n).iid for n in names]
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

    def compare(self, u: Word, v: Word) -> int:
        """-1, 0 or 1 as u <, =, > v."""
        ku, kv = self.key(u), self.key(v)
        return -1 if ku < kv else (0 if ku == kv else 1)


def compare_words(u: Word, v: Word, order: DegLexOrder) -> int:
    return order.compare(u, v)


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------

# Tokens; blanks (space, tab, CR, LF) only separate them.
#   run    name ([blanks] ("*" | ["·"] [blanks] name))*
#          one word: the product of its names, each "*" taking the adjoint of
#          the name before it
#   name   a character outside _RESERVED and 0-9, then every character up to
#          the next one in _RESERVED
#   int    [0-9]+
#   op     one of ( ) + - − * · /
# Grammar over tokens:
#   expr = [+|-] term ((+|-) term)*     term = factor (["·"] factor)*
#   factor = run | (int ["/" int] | "(" expr ")") "*"*

# token kinds: the number of the _TOKEN group that matched
_END, _RUN, _INT, _MINUS, _PLUS, _STAR, _DOT, _SLASH, _LPAR, _RPAR = range(10)
_OTHER = "".join(sorted(map(re.escape, _RESERVED)))
_NAME = f"[^{_OTHER}0-9][^{_OTHER}]*"
_TOKEN = re.compile(
    f"({_NAME}(?:[ \t\r\n]*(?:\\*|·?[ \t\r\n]*{_NAME}))*)"
    r"|([0-9]+)|([-−])|(\+)|(\*)|(·)|(/)|(\()|(\))")
_RUN_PART = re.compile(f"{_NAME}|\\*")


class _Parser:
    """Recursive descent over ``_TOKEN`` matches.  A term is carried as a
    monomial ``(c, w, None)`` while it is a product of runs and numbers, and as
    ``(_, _, terms)`` once a parenthesised sum or a ``defs`` atom enters it."""

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
            c, w, terms = self._term()
            add_terms(acc, terms.items() if terms is not None
                      else ((w, c),) if c else (), sign)
            kind = toks[self.pos][0]
            if kind == _MINUS:
                sign = -1
            elif kind == _PLUS:
                sign = 1
            else:
                return acc
            self.pos += 1

    def _term(self):
        toks = self.toks
        c, w, terms = 1, EMPTY_WORD, None
        while True:
            kind, value, at = toks[self.pos]
            self.pos += 1
            for f in (self._run(value, at) if kind == _RUN
                      else (self._atom(kind, value, at),)):
                c, w, terms = _product(c, w, terms, *f)
            kind = toks[self.pos][0]
            if kind == _DOT:
                self.pos += 1
            elif kind != _RUN and kind != _INT and kind != _LPAR:
                return c, w, terms

    def _run(self, run: str, at: int):
        """The factors of a run: one word when its pieces between "·"s are
        all in ``_letters``, else one factor per name (a ``defs`` atom is a
        term dict)."""
        try:
            return ((1, tuple([self.alg._letters[p] for p in run.split("·")]),
                     None),)
        except KeyError:  # blanks, two stars, no partner, a def, a typo
            pass
        alg = self.alg
        out: list = []
        for m in _RUN_PART.finditer(run):
            part = m.group()
            if part != "*":
                if part in alg._by_name:
                    out.append((1, (alg._by_name[part],), None))
                elif part in self.defs:
                    out.append((1, EMPTY_WORD, self.defs[part]._terms))
                else:
                    raise self._error(f"unknown name {part!r}", at + m.start())
                continue
            _, w, terms = out[-1]
            try:
                out[-1] = ((1, (_partner(alg, w[0]),), None) if terms is None
                           else (1, EMPTY_WORD, _adjoint_terms(alg, terms)))
            except AdjointError as exc:
                raise self._error(str(exc), at + m.start()) from None
        return out

    def _int(self, value: str, at: int) -> int:
        try:
            return int(value)
        except ValueError:  # more digits than Python converts from a string
            raise self._error("integer literal too long", at) from None

    def _atom(self, kind, value: str, at: int):
        """A number or a parenthesised sum with its postfix stars."""
        toks = self.toks
        if kind == _INT:
            c = self._int(value, at)
            terms = None
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
        elif kind == _LPAR:
            c, terms = 1, self._expr()
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
            if terms is not None:  # a number is its own adjoint
                try:
                    terms = _adjoint_terms(self.alg, terms)
                except AdjointError as exc:
                    raise self._error(str(exc), at) from None
        return c, EMPTY_WORD, terms


def _product(c, w, terms, c2, w2, terms2):
    """``(c·w or terms) · (c2·w2 or terms2)`` as a parser value."""
    if terms is None and terms2 is None:
        return c * c2, w + w2, None
    return 1, EMPTY_WORD, _times(
        terms if terms is not None else {w: c} if c else {},
        terms2 if terms2 is not None else {w2: c2} if c2 else {})
