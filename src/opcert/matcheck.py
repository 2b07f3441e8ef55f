"""Exact rational matrices: Moore-Penrose inverses, Penrose residuals, and
realizations of compatible polynomials.

Everything is computed over the rationals with no floating point; the adjoint
is the transpose (real case).  This module is the numeric counterexample and
sanity oracle for the symbolic certification pipeline: realizations that zero
all assumptions of a certified claim must zero the claim as well.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from .freealg import AlgebraError, Polynomial, clip
from .quiver import WILDCARD, LabelledQuiver, compatible


def _entry(x) -> Fraction:
    # a string is "n" or "p/q": Fraction("1e3000000") has 10 million bits
    if (re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", x) if isinstance(x, str)
            else isinstance(x, (int, Fraction)) and not isinstance(x, bool)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):  # "1/0", too many digits
            pass
    raise AlgebraError(
        f"matrix entries must be exact rationals, got {clip(repr(x))}")


class RatMatrix:
    """Dense immutable matrix over the exact rationals.

    The matrix is ``num / den``: a tuple of int rows ``num`` over one
    positive int ``den``, in lowest terms (the gcd of ``den`` and every
    entry is 1).  That form is canonical, so ``==`` and ``hash`` compare
    ints, and products, sums and row reduction use only ints.  ``data``
    and ``m[i, j]`` give the entries as ``Fraction``.  Entries are checked
    only here, in the public constructor; ``RatMatrix._of`` builds the
    results of the operations.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows_data: Iterable[Iterable]):
        data = [[_entry(x) for x in row] for row in rows_data]
        if not data or not data[0]:
            raise AlgebraError("matrices must have positive dimensions")
        if any(len(r) != len(data[0]) for r in data):
            raise AlgebraError("ragged matrix rows")
        den = lcm(*(x.denominator for row in data for x in row))
        self._fill([[x.numerator * (den // x.denominator) for x in row]
                    for row in data], den)

    def _fill(self, num, den: int) -> "RatMatrix":
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g != 1:
                den //= g
                num = [[x // g for x in row] for row in num]
        self.num = tuple(map(tuple, num))
        self.den = den
        self.rows = len(self.num)
        self.cols = len(self.num[0])
        return self

    @classmethod
    def _of(cls, num, den: int = 1) -> "RatMatrix":
        """The matrix ``num / den`` for int rows ``num`` and an int
        ``den > 0``, brought to lowest terms; entries go unchecked."""
        return cls.__new__(cls)._fill(num, den)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls._of([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._of([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def data(self):
        """The entries: a tuple of rows of ``Fraction``."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    def __getitem__(self, ij):
        return Fraction(self.num[ij[0]][ij[1]], self.den)

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.num, self.den))

    @property
    def is_zero(self) -> bool:
        return not any(chain.from_iterable(self.num))

    def _plus(self, other, sign: int) -> "RatMatrix":
        self._same_shape(other)
        den = lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)
        return RatMatrix._of([[a * f + b * g for a, b in zip(r1, r2)]
                              for r1, r2 in zip(self.num, other.num)], den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            return RatMatrix._of([[x * c for x in row] for row in self.num],
                                 self.den * other.denominator)
        if self.cols != other.rows:
            raise AlgebraError(
                f"shape mismatch: {self.shape} times {other.shape}")
        bt = list(zip(*other.num))
        return RatMatrix._of([[sum(map(mul, row, col)) for col in bt]
                              for row in self.num], self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __neg__(self):
        return self * -1

    def transpose(self) -> "RatMatrix":
        return RatMatrix._of(list(zip(*self.num)), self.den)

    @property
    def T(self) -> "RatMatrix":
        return self.transpose()

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise AlgebraError("hstack needs equal row counts")
        den = lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        return RatMatrix._of([[a * f for a in r1] + [b * g for b in r2]
                              for r1, r2 in zip(self.num, other.num)], den)

    def select_columns(self, cols: Sequence[int]) -> "RatMatrix":
        return RatMatrix._of([[row[j] for j in cols] for row in self.num],
                             self.den)

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise AlgebraError(f"shape mismatch: {self.shape} vs {other.shape}")

    def rref(self):
        """Reduced row echelon form; returns (RatMatrix, pivot column list)."""
        m = [list(row) for row in self.num]
        pivots = _eliminate(m, self.cols)
        return _over_pivots(m, pivots), pivots

    @property
    def rank(self) -> int:
        return len(_eliminate([list(row) for row in self.num], self.cols))

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise AlgebraError("only square matrices invert")
        n = self.rows
        m = [list(row) + [int(i == j) for j in range(n)]
             for i, row in enumerate(self.num)]
        pivots = _eliminate(m, n)
        if len(pivots) < n:
            raise AlgebraError("matrix is singular")
        # (num / den)^-1 = den · num^-1
        return _over_pivots(m, pivots, self.den, first_col=n)

    def __repr__(self):
        return "RatMatrix(" + "; ".join(
            " ".join(str(x) for x in row) for row in self.data) + ")"


def _eliminate(m: list, ncols: int) -> list:
    """Fraction-free Gauss-Jordan reduction of the int rows ``m``, in
    place, over their first ``ncols`` columns; returns the pivot columns.

    At the pivot ``p`` of row r, every other row i with ``f`` in the pivot
    column becomes ``p·row_i − f·row_r`` (both factors divided by their
    gcd) and is then divided by the gcd of its entries, which keeps the
    entries small.  Row k ends as a multiple of row k of the reduced row
    echelon form, its pivot ``m[k][pivots[k]]``.
    """
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        row_r = m[r]
        p = row_r[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                g = gcd(p, f)
                row = [a * (p // g) - b * (f // g) for a, b in zip(m[i], row_r)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _over_pivots(m: list, pivots: list, scale: int = 1,
                 first_col: int = 0) -> RatMatrix:
    """``scale`` times the matrix ``m`` from column ``first_col`` on, with
    each row k < len(pivots) divided by its pivot ``m[k][pivots[k]]``."""
    divisors = [m[k][c] for k, c in enumerate(pivots)]
    den = lcm(*divisors)
    rows = [row[first_col:] for row in m]
    for k, d in enumerate(divisors):
        f = den // d * scale
        rows[k] = [x * f for x in rows[k]]
    return RatMatrix._of(rows, den)


def column_space_contains(outer: RatMatrix, inner: RatMatrix) -> bool:
    """Ran(inner) within Ran(outer), decided by the exact rank test."""
    if outer.rows != inner.rows:
        raise AlgebraError("column space test needs equal row counts")
    return outer.hstack(inner).rank == outer.rank


def penrose_check(m: RatMatrix, g: RatMatrix):
    """Exact residuals of the four Penrose equations (adjoint = transpose)."""
    if (g.rows, g.cols) != (m.cols, m.rows):
        raise AlgebraError("candidate inverse has the wrong shape")
    mg = m * g
    gm = g * m
    return ((mg * m == m), (gm * g == g),
            (mg.T == mg), (gm.T == gm))


def mp_inverse(m: RatMatrix) -> RatMatrix:
    """The unique Moore-Penrose inverse, via exact rank factorization.

    m = F G with F of full column rank and G of full row rank, then
    pinv = G^T (G G^T)^-1 (F^T F)^-1 F^T = G^T (F^T m G^T)^-1 F^T, one
    inverse of an invertible r x r matrix.  A result that fails any of the
    four Penrose equations raises RuntimeError, under ``python -O`` too.
    """
    R, pivots = m.rref()
    r = len(pivots)
    if r == 0:
        return RatMatrix.zeros(m.cols, m.rows)
    F = m.select_columns(pivots)
    G = RatMatrix._of(R.num[:r], R.den)
    if F * G != m:
        raise RuntimeError("internal error: rank factorization failed")
    Gt, Ft = G.T, F.T
    pinv = Gt * (Ft * m * Gt).inverse() * Ft
    checks = penrose_check(m, pinv)
    if not all(checks):
        raise RuntimeError(f"internal error: Penrose check failed: {checks}")
    return pinv


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Realization:
    """Matrix assignment for a quiver: edge e gets shape dim(target) x dim(source)."""

    quiver: LabelledQuiver
    dims: Mapping  # vertex name -> positive int
    assign: Mapping  # iid -> RatMatrix

    def __post_init__(self):
        for iid, (src, tgt) in self.quiver.edges.items():
            mat = self.assign.get(iid)
            if mat is None:
                raise AlgebraError(
                    f"no matrix assigned to {self.quiver.alg.by_id(iid).name!r}")
            want = (self.dims[tgt], self.dims[src])
            if mat.shape != want:
                raise AlgebraError(
                    f"matrix for {self.quiver.alg.by_id(iid).name!r} has shape "
                    f"{mat.shape}, expected {want}")


def evaluate(p: Polynomial, r: Realization,
             signature: Optional[tuple] = None) -> RatMatrix:
    """Realize a compatible polynomial as an exact matrix.

    Words multiply right to left (rightmost letter applies first); the empty
    word contributes the identity.  ``signature`` fixes (source, target)
    vertices when the polynomial alone does not (constants and zero).
    """
    comp = compatible(p, r.quiver)
    if not comp.ok:
        raise AlgebraError(f"polynomial incompatible with the quiver: {comp.reason}")
    sig = comp.signature
    if sig is WILDCARD:
        sig = signature
        if sig is None:
            raise AlgebraError(
                "constant or zero polynomial needs an explicit (source, target)")
        if sig[0] != sig[1]:
            raise AlgebraError("constant polynomials live on a single vertex")
    elif signature is not None and signature != sig:
        raise AlgebraError(f"signature override {signature} contradicts {sig}")
    src, tgt = sig
    out = RatMatrix.zeros(r.dims[tgt], r.dims[src])
    for w, c in p._terms.items():
        if not w:
            acc = RatMatrix.identity(r.dims[src])
        else:
            acc = r.assign[w[0]]
            for x in w[1:]:
                acc = acc * r.assign[x]
        out = out + acc * c
    return out


# ---------------------------------------------------------------------------
# Counterexample suites
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    name: str
    checks: list  # (label, bool)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.checks)

    def push(self, label: str, ok: bool) -> None:
        self.checks.append((label, bool(ok)))

    def lines(self):
        for label, ok in self.checks:
            yield f"  [{'ok' if ok else 'FAIL'}] {label}"


def example1_check() -> CheckReport:
    """Counterexample matrices for the relaxed-inclusion combinations.

    A rank-1 A, an invertible B and the rank-1 averaging matrix C give
    PQ = 0 (idempotent) and one pair of range inclusions, yet the triple
    reverse order law fails; swapping in the Moore-Penrose inverses in
    reverse order shows the mirrored pair of inclusions fails too.
    """
    rep = CheckReport("example2_1", [])
    A = RatMatrix([[-3, 2, 2], [0, 0, 0], [0, 0, 0]])
    B = RatMatrix([[1, 0, 1], [0, 1, 1], [1, 0, 0]])
    C = RatMatrix([["1/3"] * 3] * 3)
    Adag, Bdag, Cdag = mp_inverse(A), mp_inverse(B), mp_inverse(C)
    rep.push("A+ matches the stated matrix",
             Adag == RatMatrix([["-3/17", 0, 0], ["2/17", 0, 0], ["2/17", 0, 0]]))
    rep.push("B+ matches the stated matrix",
             Bdag == RatMatrix([[0, 0, 1], [-1, 1, 1], [1, 0, -1]]))
    rep.push("C+ = C", Cdag == C)

    def both_configurations(A, B, C, Adag, Bdag, Cdag, tag, reverse_inclusions):
        P = Adag * A * B * C * Cdag
        Q = C * Cdag * Bdag * Adag * A
        PQ = P * Q
        if tag == "base":
            rep.push("PQ = 0", PQ.is_zero)
        rep.push(f"PQ idempotent ({tag})", PQ * PQ == PQ)
        lhs1 = A.T * A * P       # Ran(A*AP) vs Ran(Q*)
        rhs1 = Q.T
        lhs2 = C * C.T * P.T     # Ran(CC*P*) vs Ran(Q)
        rhs2 = Q
        if not reverse_inclusions:
            rep.push(f"Ran(A*AP) within Ran(Q*) ({tag})",
                     column_space_contains(rhs1, lhs1))
            rep.push(f"Ran(CC*P*) within Ran(Q) ({tag})",
                     column_space_contains(rhs2, lhs2))
        else:
            rep.push(f"Ran(Q*) within Ran(A*AP) ({tag})",
                     column_space_contains(lhs1, rhs1))
            rep.push(f"Ran(Q) within Ran(CC*P*) ({tag})",
                     column_space_contains(lhs2, rhs2))
        rol = mp_inverse(A * B * C) != Cdag * Bdag * Adag
        rep.push(f"(ABC)+ differs from C+B+A+ ({tag})", rol)

    both_configurations(A, B, C, Adag, Bdag, Cdag, "base", False)
    # reversed configuration: (A,B,C) := (C+, B+, A+)
    A2, B2, C2 = Cdag, Bdag, Adag
    both_configurations(A2, B2, C2, mp_inverse(A2), mp_inverse(B2),
                        mp_inverse(C2), "reversed", True)
    return rep


def example2_check() -> CheckReport:
    """Weakened-inverse counterexample: a {1,3,4}-inverse that is not the
    Moore-Penrose inverse satisfies the relaxed conditions but not the law.

    B = C = Bt = I and A the projection diag(1, 0); G = I lies in A{1,3,4}
    and differs from A+ = A.  With p = q = GA, every condition of the
    equivalence list except the reverse order law itself holds.
    """
    rep = CheckReport("example2_2", [])
    I2 = RatMatrix.identity(2)
    A = RatMatrix([[1, 0], [0, 0]])   # projection, documented fixture choice
    G = I2
    pc = penrose_check(A, G)
    rep.push("G satisfies Penrose 1, 3, 4", pc[0] and pc[2] and pc[3])
    rep.push("G is not a {2}-inverse", not pc[1])
    rep.push("G differs from A+", G != mp_inverse(A))
    p = G * A
    q = G * A
    rep.push("(ii) q in p{1}", p * q * p == p)
    rep.push("(ii) q in p{2}", q * p * q == q)
    h1 = A.T * A * p * q
    h2 = q * p * I2 * I2.T
    rep.push("(ii) A*APQ Hermitian", h1.T == h1)
    rep.push("(ii) QPCC* Hermitian", h2.T == h2)
    rep.push("(iii) A*APQ is EP", column_space_contains(h1, h1.T)
             and column_space_contains(h1.T, h1))
    rep.push("(iii) QPCC* is EP", column_space_contains(h2, h2.T)
             and column_space_contains(h2.T, h2))
    pq = p * q
    rep.push("(iv,v) PQ idempotent", pq * pq == pq)
    lhs1, rhs1 = A.T * A * p, q.T
    lhs2, rhs2 = I2 * I2.T * p.T, q
    rep.push("(iv,v) Ran(A*AP) = Ran(Q*)",
             column_space_contains(lhs1, rhs1) and column_space_contains(rhs1, lhs1))
    rep.push("(iv,v) Ran(CC*P*) = Ran(Q)",
             column_space_contains(lhs2, rhs2) and column_space_contains(rhs2, lhs2))
    abc = A * I2 * I2
    rep.push("(i) fails: (ABC)+ differs from C(124) Bt A(123)",
             mp_inverse(abc) != I2 * I2 * G)
    return rep


# ---------------------------------------------------------------------------
# Matrix fixture files (row-major rational literals)
# ---------------------------------------------------------------------------

def load_matrix_fixture(path) -> dict:
    """Read {"matrices": {name: [[...], ...]}} with "p/q" string rationals;
    malformed content, or no matrix at all, raises ``AlgebraError`` naming
    the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if type(data) is not dict or type(data.get("matrices")) is not dict:
            raise AlgebraError('not a matrix file (expected {"matrices": {...}})')
        mats = data["matrices"]
        if not mats:
            raise AlgebraError("no matrices to check")
        for name, rows in mats.items():
            if type(rows) is not list or any(type(r) is not list for r in rows):
                raise AlgebraError(f"matrix {name!r} must be a list of rows")
        return {name: RatMatrix(rows) for name, rows in mats.items()}
    except (ValueError, RecursionError) as exc:  # AlgebraError; bad UTF-8, JSON
        raise AlgebraError(f"{path}: {exc}") from None


def fixture_penrose_report(path) -> CheckReport:
    """Check every ``X_mp`` entry of a fixture file against mp_inverse(X);
    an ``X_mp`` without its ``X`` fails."""
    mats = load_matrix_fixture(path)
    rep = CheckReport(str(path), [])
    for name, mat in mats.items():
        if name.endswith("_mp"):
            if name[:-3] not in mats:
                rep.push(f"{name}: no matrix {name[:-3]} to compare with",
                         False)
            continue
        stated = mats.get(name + "_mp")
        computed = mp_inverse(mat)
        rep.push(f"{name}: Penrose equations hold for computed inverse",
                 all(penrose_check(mat, computed)))
        if stated is not None:
            rep.push(f"{name}: stated inverse matches entry for entry",
                     stated == computed)
    return rep
