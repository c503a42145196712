"""Truncated multivariate power series in Miwa-type variables, plus Laurent windows.

Series live in one or more "blocks" of variables t_1, t_2, ...; the variable
t_j carries weight j and a series is truncated at a fixed weighted degree cap.
Extra blocks serve two purposes: a second full Miwa alphabet (bilinear
identities in two sets of times) and single "point symbols" of weight one
(shift parameters that must participate in the grading).  Coefficients are
exact rationals (int or Fraction); a float is rejected, never coerced.

The ring operations work on a graded view of each series: its terms grouped
by monomial weight, in increasing weight, computed once per series.  A
product visits only the bucket pairs whose weights sum to at most the cap,
and its result carries its own graded view, so no monomial weight is
recomputed per pair.  Results are built by a trusted constructor that skips
validation.  Series are immutable after construction (memoised builders
share them), so nothing may write to `terms` once a series exists.
"""

from fractions import Fraction
from operator import add, mul


class FieldMismatch(TypeError):
    """Raised when a non-rational (e.g. float) value meets an exact series."""


class WindowError(ValueError):
    """Raised when a Laurent window cannot support the requested operation."""


def _exact(c):
    """c itself if it is an exact rational scalar, else FieldMismatch."""
    if isinstance(c, (int, Fraction)):
        return c
    raise FieldMismatch(f"series coefficients must be int or Fraction, got {type(c).__name__}")


def _strip(exps):
    exps = tuple(exps)
    n = len(exps)
    while n and exps[n - 1] == 0:
        n -= 1
    return exps[:n]


def _block_weight(exps):
    return sum(map(mul, range(1, len(exps) + 1), exps))


def _mono_weight(mono):
    return sum(map(_block_weight, mono))


def _block_mul(b1, b2):
    # exponents are non-negative, so the sum of two stripped blocks is stripped
    if not b1:
        return b2
    if not b2:
        return b1
    if len(b1) < len(b2):
        b1, b2 = b2, b1
    return tuple(map(add, b1, b2)) + b1[len(b2):]


def _mono_mul(m1, m2):
    return tuple(map(_block_mul, m1, m2))


class TruncatedSeries:
    """Sparse series with weighted-degree truncation.

    terms maps a monomial to its coefficient; a monomial is a tuple with one
    exponent tuple per block, trailing zeros stripped.  No stored coefficient
    is zero and no stored monomial exceeds the cap, so equality of series is
    structural equality.
    """

    __slots__ = ("cap", "nblocks", "terms", "_graded")

    def __init__(self, cap, terms=None, nblocks=1):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.cap = cap
        self.nblocks = nblocks
        self.terms = {}
        self._graded = None
        if terms:
            for mono, c in terms.items():
                if _exact(c) == 0:
                    continue
                mono = tuple(_strip(b) for b in mono)
                if len(mono) != nblocks:
                    raise ValueError("monomial block count mismatch")
                if _mono_weight(mono) > cap:
                    continue
                self.terms[mono] = self.terms.get(mono, 0) + c
            for mono in [m for m, c in self.terms.items() if c == 0]:
                del self.terms[mono]

    @classmethod
    def _trusted(cls, cap, terms, nblocks, graded=None):
        """Wrap terms that already hold the invariants (stripped monomials,
        no zero coefficient, no weight above cap) without checking them;
        graded, if given, is the matching graded view."""
        s = object.__new__(cls)
        s.cap = cap
        s.nblocks = nblocks
        s.terms = terms
        s._graded = graded
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, cap, nblocks=1):
        return cls(cap, {}, nblocks)

    @classmethod
    def const(cls, value, cap, nblocks=1):
        return cls(cap, {((),) * nblocks: value}, nblocks)

    @classmethod
    def one(cls, cap, nblocks=1):
        return cls.const(1, cap, nblocks)

    @classmethod
    def variable(cls, j, cap, block=0, nblocks=1):
        """The variable t_j (weight j) of the given block."""
        if j < 1:
            raise ValueError("variable index must be >= 1")
        if j > cap:
            return cls.zero(cap, nblocks)
        mono = tuple(((0,) * (j - 1) + (1,)) if b == block else () for b in range(nblocks))
        return cls(cap, {mono: 1}, nblocks)

    # -- plumbing ----------------------------------------------------------

    def _grades(self):
        """[(weight, [(mono, coeff), ...]), ...] in increasing weight."""
        g = self._graded
        if g is None:
            buckets = {}
            for mono, c in self.terms.items():
                buckets.setdefault(_mono_weight(mono), []).append((mono, c))
            g = self._graded = sorted(buckets.items())
        return g

    def _at_cap(self, cap):
        """This series truncated at cap <= self.cap."""
        if cap >= self.cap:
            return self
        graded = [(w, items) for w, items in self._grades() if w <= cap]
        terms = {m: c for _, items in graded for m, c in items}
        return TruncatedSeries._trusted(cap, terms, self.nblocks, graded)

    def _operand(self, other):
        """other as a series of the same block count: a scalar becomes a
        constant series at this cap."""
        if not isinstance(other, TruncatedSeries):
            c = _exact(other)
            return TruncatedSeries._trusted(
                self.cap, {((),) * self.nblocks: c} if c else {}, self.nblocks)
        if self.nblocks != other.nblocks:
            raise ValueError("block count mismatch")
        return other

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get(((),) * self.nblocks, 0)

    def coeff(self, mono):
        mono = tuple(_strip(b) for b in mono)
        return self.terms.get(mono, 0)

    def weight(self):
        """Largest stored monomial weight (0 for the zero series)."""
        g = self._grades()
        return g[-1][0] if g else 0

    def __repr__(self):
        n = len(self.terms)
        return f"<TruncatedSeries cap={self.cap} blocks={self.nblocks} terms={n}>"

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("TruncatedSeries is unhashable")

    # -- ring operations ---------------------------------------------------

    def _combine(self, other, sign):
        other = self._operand(other)
        cap = min(self.cap, other.cap)
        a, b = self._at_cap(cap), other._at_cap(cap)
        out = dict(a.terms)
        for mono, c in b.terms.items():
            v = out.get(mono)
            if v is None:
                out[mono] = c if sign > 0 else -c
            else:
                v = v + c if sign > 0 else v - c
                if v:
                    out[mono] = v
                else:
                    del out[mono]
        return TruncatedSeries._trusted(cap, out, self.nblocks)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return TruncatedSeries._trusted(
            self.cap, {m: -c for m, c in self.terms.items()}, self.nblocks)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = _exact(other)
            if c == 0:
                return TruncatedSeries._trusted(self.cap, {}, self.nblocks)
            return TruncatedSeries._trusted(
                self.cap, {m: v * c for m, v in self.terms.items()}, self.nblocks)
        other = self._operand(other)
        cap = min(self.cap, other.cap)
        mono_mul = _mono_mul
        right = other._grades()
        byweight = {}
        for w1, left_items in self._grades():
            if w1 > cap:
                break
            for w2, right_items in right:
                w = w1 + w2
                if w > cap:
                    break
                acc = byweight.get(w)
                if acc is None:
                    acc = byweight[w] = {}
                for m1, c1 in left_items:
                    for m2, c2 in right_items:
                        m = mono_mul(m1, m2)
                        v = acc.get(m)
                        acc[m] = c1 * c2 if v is None else v + c1 * c2
        terms = {}
        graded = []
        for w in sorted(byweight):
            items = [(m, c) for m, c in byweight[w].items() if c]
            if items:
                graded.append((w, items))
                terms.update(items)
        return TruncatedSeries._trusted(cap, terms, self.nblocks, graded)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, TruncatedSeries):
            raise TypeError("series division is not supported")
        return self * Fraction(1, _exact(scalar))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative series power")
        out = TruncatedSeries.one(self.cap, self.nblocks)
        for _ in range(n):
            out = out * self
        return out

    def flip_signs(self):
        """Substitute t_j -> -t_j in every block."""
        out = {}
        for mono, c in self.terms.items():
            tot = sum(sum(b) for b in mono)
            out[mono] = -c if tot % 2 else c
        return TruncatedSeries._trusted(self.cap, out, self.nblocks)

    def substitute_point(self, block, value):
        """Evaluate a point-symbol block at a scalar, dropping that block.

        The block must only involve its first variable (a weight-one symbol).
        """
        if self.nblocks < 2:
            raise ValueError("cannot drop the last block")
        out = {}
        for mono, c in self.terms.items():
            b = mono[block]
            if len(b) > 1:
                raise ValueError("block is not a point symbol")
            e = b[0] if b else 0
            red = mono[:block] + mono[block + 1:]
            out[red] = out.get(red, 0) + c * value ** e
        return TruncatedSeries(self.cap, out, self.nblocks - 1)


def series_exp(f):
    """exp(f) = sum f^k/k! truncated at cap; f must have zero constant term."""
    if f.constant_term() != 0:
        raise ValueError("series_exp requires a zero constant term")
    out = TruncatedSeries.one(f.cap, f.nblocks)
    term = out
    for k in range(1, f.cap + 1):
        term = term * f / k
        if term.is_zero():
            break
        out = out + term
    return out


def miwa_eval(f, points, block=0):
    """Substitute t_j = sum_i sign_i * c_i^j / j in one block and sum.

    points is a list of (c, sign) with exact rational c and sign = +1 or -1.
    All other blocks must be absent from f's monomials.
    """
    tj = {}

    def tval(j):
        if j not in tj:
            acc = Fraction(0)
            for c, sign in points:
                acc += Fraction(sign) * Fraction(_exact(c)) ** j / j
            tj[j] = acc
        return tj[j]

    total = Fraction(0)
    for mono, coef in f.terms.items():
        val = coef
        for b, exps in enumerate(mono):
            if b != block and exps:
                raise ValueError("miwa_eval: series involves another block")
        for i, e in enumerate(mono[block]):
            if e:
                val = val * tval(i + 1) ** e
        total += val
    return total


class LaurentSlice:
    """Finite window of a formal Laurent series in z.

    Coefficients may be scalars or TruncatedSeries (homogeneous within one
    slice).  Powers outside [lo, hi] are implicitly zero; operations that
    would have to reach beyond the window raise WindowError instead of
    silently truncating.
    """

    __slots__ = ("lo", "hi", "coeffs")

    def __init__(self, lo, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise WindowError("empty Laurent window")
        self.lo = lo
        self.hi = lo + len(coeffs) - 1
        self.coeffs = coeffs

    def get(self, power):
        if power < self.lo or power > self.hi:
            raise WindowError(f"power {power} outside window [{self.lo}, {self.hi}]")
        return self.coeffs[power - self.lo]

    def powers(self):
        return range(self.lo, self.hi + 1)

    def shifted(self, k):
        """Multiply by z^k."""
        return LaurentSlice(self.lo + k, self.coeffs)

    def __add__(self, other):
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        out = []
        for p in range(lo, hi + 1):
            a = self.coeffs[p - self.lo] if self.lo <= p <= self.hi else None
            b = other.coeffs[p - other.lo] if other.lo <= p <= other.hi else None
            if a is None:
                out.append(b)
            elif b is None:
                out.append(a)
            else:
                out.append(a + b)
        return LaurentSlice(lo, out)

    def __neg__(self):
        return LaurentSlice(self.lo, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product over the full convolution support."""
        if not isinstance(other, LaurentSlice):
            return NotImplemented
        return laurent_mul(self, other)

    def scaled(self, factor):
        """Multiply every coefficient by a scalar or series."""
        return LaurentSlice(self.lo, [factor * c for c in self.coeffs])

    def __repr__(self):
        return f"<LaurentSlice [{self.lo}, {self.hi}]>"


def laurent_residue(L):
    """Coefficient of z^-1; the window must cover power -1."""
    if L.lo > -1 or L.hi < -1:
        raise WindowError(f"window [{L.lo}, {L.hi}] does not cover power -1")
    return L.get(-1)


def laurent_mul(A, B, keep=None):
    """Convolution of two slices restricted to the keep window.

    Every kept power must lie inside the full convolution support
    [A.lo+B.lo, A.hi+B.hi]; powers outside would depend on coefficients the
    windows do not carry.
    """
    full_lo, full_hi = A.lo + B.lo, A.hi + B.hi
    if keep is None:
        keep = (full_lo, full_hi)
    klo, khi = keep
    if klo > khi:
        raise WindowError("empty keep window")
    if klo < full_lo or khi > full_hi:
        raise WindowError(
            f"keep [{klo}, {khi}] exceeds convolution support [{full_lo}, {full_hi}]")
    template = None
    for c in list(A.coeffs) + list(B.coeffs):
        if isinstance(c, TruncatedSeries):
            template = c
            break
    out = []
    for p in range(klo, khi + 1):
        acc = None
        for i in range(max(A.lo, p - B.hi), min(A.hi, p - B.lo) + 1):
            term = A.coeffs[i - A.lo] * B.coeffs[p - i - B.lo]
            acc = term if acc is None else acc + term
        if acc is None:
            acc = 0 if template is None else TruncatedSeries.zero(
                template.cap, template.nblocks)
        out.append(acc)
    return LaurentSlice(klo, out)
