"""Noncommutative polynomials over exact rationals.

Words are tuples of indeterminate ids and multiply by concatenation; a
polynomial maps words to nonzero rational coefficients (ints where exact,
``fractions.Fraction`` otherwise).  Indeterminates live in a ``FreeAlgebra``
registry and may carry an adjoint partner, which makes the star
anti-automorphism available on words and polynomials.  Monomials are compared
degree-first, then lexicographically by a variable ranking (deglex).
"""

from __future__ import annotations

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

    # -- declarations ------------------------------------------------------

    def _check_name(self, name: str) -> None:
        if not name or name[0].isdigit() or any(ch in _RESERVED for ch in name):
            raise AlgebraError(f"invalid indeterminate name {name!r}")
        if name in self._by_name:
            raise AlgebraError(f"duplicate indeterminate name {name!r}")

    def add(self, name: str) -> Indeterminate:
        """Declare an indeterminate without an adjoint partner."""
        self._check_name(name)
        ind = Indeterminate(len(self._inds), name, None)
        self._inds.append(ind)
        self._by_name[name] = ind.iid
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
        self._inds.extend((ind, adj))
        self._by_name[name] = i
        self._by_name[adjoint_name] = i + 1
        return ind, adj

    def add_self_adjoint(self, name: str) -> Indeterminate:
        self._check_name(name)
        i = len(self._inds)
        ind = Indeterminate(i, name, i)
        self._inds.append(ind)
        self._by_name[name] = i
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
            return _Parser(self, text, defs or {}).parse()
        except RecursionError:
            raise ParseError("expression nested too deeply", text) from None

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
        for w, c in other._terms.items():
            v = acc.get(w, 0) + c
            if v:
                acc[w] = v
            else:
                acc.pop(w, None)
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
        acc: dict = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                v = acc.get(w, 0) + c1 * c2
                if v:
                    acc[w] = v
                else:
                    del acc[w]
        return Polynomial._make(self.alg, acc)

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
        adj = [ind.adjoint for ind in self.alg]
        acc: dict = {}
        for w, c in self._terms.items():
            nw = tuple(adj[x] for x in reversed(w))
            if None in nw:
                bad = next(x for x in w if adj[x] is None)
                raise AdjointError(
                    f"indeterminate {self.alg.by_id(bad).name!r} has no adjoint")
            acc[nw] = acc.get(nw, 0) + c
        return Polynomial._make(self.alg, {w: c for w, c in acc.items() if c})

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

_T_NAME, _T_INT, _T_PLUS, _T_MINUS, _T_STAR, _T_DOT, _T_SLASH, _T_LPAR, _T_RPAR = range(9)
_ATOM_STARTERS = (_T_NAME, _T_INT, _T_LPAR)


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "(":
            toks.append((_T_LPAR, ch, i)); i += 1
        elif ch == ")":
            toks.append((_T_RPAR, ch, i)); i += 1
        elif ch == "+":
            toks.append((_T_PLUS, ch, i)); i += 1
        elif ch in "-−":
            toks.append((_T_MINUS, ch, i)); i += 1
        elif ch == "*":
            toks.append((_T_STAR, ch, i)); i += 1
        elif ch == "·":
            toks.append((_T_DOT, ch, i)); i += 1
        elif ch == "/":
            toks.append((_T_SLASH, ch, i)); i += 1
        elif "0" <= ch <= "9":  # "²" is a digit to str.isdigit but not to int
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append((_T_INT, text[i:j], i))
            i = j
        else:
            j = i
            while j < n and text[j] not in _RESERVED:
                j += 1
            toks.append((_T_NAME, text[i:j], i))
            i = j
    return toks


class _Parser:
    def __init__(self, alg: FreeAlgebra, text: str, defs: Mapping[str, Polynomial]):
        self.alg = alg
        self.text = text
        self.defs = defs
        self.toks = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.text, len(self.text))
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        if not self.toks:
            raise ParseError("empty expression", self.text, 0)
        p = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r}", self.text, tok[2])
        return p

    def _expr(self) -> Polynomial:
        sign = 1
        tok = self._peek()
        if tok and tok[0] in (_T_PLUS, _T_MINUS):
            self._next()
            sign = -1 if tok[0] == _T_MINUS else 1
        acc = self._term().scaled(sign)
        while True:
            tok = self._peek()
            if tok is None or tok[0] not in (_T_PLUS, _T_MINUS):
                return acc
            self._next()
            rhs = self._term()
            acc = acc - rhs if tok[0] == _T_MINUS else acc + rhs

    def _term(self) -> Polynomial:
        acc = self._factor()
        while True:
            tok = self._peek()
            if tok is None:
                return acc
            if tok[0] == _T_DOT:
                self._next()
                acc = acc * self._factor()
            elif tok[0] in _ATOM_STARTERS:
                acc = acc * self._factor()
            else:
                return acc

    def _factor(self) -> Polynomial:
        p = self._atom()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != _T_STAR:
                return p
            self._next()
            try:
                p = p.adjoint()
            except AdjointError as exc:
                raise ParseError(str(exc), self.text, tok[2]) from None

    def _int(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # more digits than Python converts from a string
            raise ParseError("integer literal too long", self.text,
                             tok[2]) from None

    def _atom(self) -> Polynomial:
        tok = self._next()
        kind, value, at = tok
        if kind == _T_LPAR:
            p = self._expr()
            closing = self._next()
            if closing[0] != _T_RPAR:
                raise ParseError("expected ')'", self.text, closing[2])
            return p
        if kind == _T_INT:
            num = self._int(tok)
            nxt = self._peek()
            if nxt is not None and nxt[0] == _T_SLASH:
                self._next()
                den_tok = self._next()
                den = self._int(den_tok) if den_tok[0] == _T_INT else 0
                if den == 0:
                    raise ParseError("expected nonzero integer denominator",
                                     self.text, den_tok[2])
                return self.alg.monomial(EMPTY_WORD, Fraction(num, den))
            return self.alg.monomial(EMPTY_WORD, num)
        if kind == _T_NAME:
            if value in self.alg._by_name:
                return self.alg.gen(value)
            if value in self.defs:
                return self.defs[value]
            raise ParseError(f"unknown name {value!r}", self.text, at)
        raise ParseError(f"unexpected {value!r}", self.text, at)
