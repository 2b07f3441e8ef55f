"""Reference expression parser: one token per letter, one polynomial product
per ``·``.

``FreeAlgebra.parse`` reads text in ``render``'s form without tokenizing
and any other text with a grammar over term dicts.  ``test_freealg`` checks
it against this parser, which builds every letter as a ``Polynomial`` and
every product with ``Polynomial.__mul__``: both must give equal
polynomials, or the same ``ParseError`` message and position.
"""

from fractions import Fraction
from typing import Mapping, Optional

from opcert.freealg import (EMPTY_WORD, AdjointError, FreeAlgebra,
                            ParseError, Polynomial, _RESERVED)


def oracle_parse(alg: FreeAlgebra, text: str,
                 defs: Optional[Mapping[str, Polynomial]] = None) -> Polynomial:
    """``alg.parse(text, defs)`` as the reference parser computes it."""
    try:
        return _Parser(alg, text, defs or {}).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", text) from None


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
                return self.alg.monomial(self.alg.word(value))
            if value in self.defs:
                return self.defs[value]
            raise ParseError(f"unknown name {value!r}", self.text, at)
        raise ParseError(f"unexpected {value!r}", self.text, at)
