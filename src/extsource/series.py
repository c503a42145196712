"""Truncated multivariate power series in Miwa-type variables, plus Laurent windows.

Series live in one or more "blocks" of variables t_1, t_2, ...; the variable
t_j carries weight j and a series is truncated at a fixed weighted degree cap.
Series that meet in one operation share the cap their computation fixed
once (dkp.TauConfig); mul_sum rejects a mismatch.
Extra blocks serve two purposes: a second full Miwa alphabet (bilinear
identities in two sets of times) and single "point symbols" of weight one
(shift parameters that must participate in the grading).  Coefficients are
exact rationals (int or Fraction); a float is rejected, never coerced.

Internally a series is integer data.  Each monomial is packed into one int
by Kronecker substitution: variable t_j of each block owns a bit slot wide
enough for cap // j, the largest exponent of t_j within the cap, so a
product of monomials is one int addition (Monagan & Pearce 2007, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC).  A product
only forms monomials of weight at most cap, so no slot overflows.  The
coefficients are int numerators over one positive int denominator per
series, reduced by a single gcd after every operation, so the stored form is
canonical and equality is structural.

The numerators are grouped by monomial weight, in increasing weight.  A
product visits only the bucket pairs whose weights sum to at most the cap.
Every sum of products is one call of the fused multiply-accumulate kernel
mul_sum: sum_i s_i x_i y_i over one common denominator, the lcm of the
terms' denominators, accumulated into one dict per weight and canonicalised
once, so a sum of n products builds one series, not n products and n - 1
partial sums.  Products, sums and scalings are its one- and two-term
cases, and laurent_mul_sum applies it to Laurent windows one power at a
time.  Results are built by a trusted constructor that skips validation.
Series are immutable after construction (memoised builders share them);
`terms` decodes them into a dict {monomial: int | Fraction} on first use.
"""

import functools
from fractions import Fraction
from math import gcd, lcm


class FieldMismatch(TypeError):
    """Raised when a non-rational (e.g. float) value meets an exact series."""


class WindowError(ValueError):
    """Raised when a Laurent window cannot support the requested operation."""


def _exact(c):
    """c itself if it is an exact rational scalar, else FieldMismatch."""
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return c
    raise FieldMismatch(f"series coefficients must be int or Fraction, got {type(c).__name__}")


def _strip(exps):
    exps = tuple(exps)
    n = len(exps)
    while n and exps[n - 1] == 0:
        n -= 1
    return exps[:n]


@functools.lru_cache(maxsize=64)
def _slots(cap):
    """Bit layout of one block at this cap: the (shift, mask) slot of each
    of t_1..t_cap, and the block's total width.  Block b starts at bit
    b * width."""
    slots = []
    shift = 0
    for j in range(1, cap + 1):
        bits = (cap // j).bit_length()
        slots.append((shift, (1 << bits) - 1))
        shift += bits
    return tuple(slots), shift


def _encode(mono, cap):
    """(weight, packed int) of a monomial of stripped blocks, or None when
    its weight exceeds the cap."""
    slots, width = _slots(cap)
    w = packed = 0
    for b, exps in enumerate(mono):
        for j, e in enumerate(exps, 1):
            if e < 0:
                raise ValueError("negative exponent")
            if e:
                w += j * e
                if w > cap:
                    return None
                packed |= e << (b * width + slots[j - 1][0])
    return w, packed


def _decode(packed, cap, nblocks):
    """The monomial (one stripped exponent tuple per block) of a packed int."""
    slots, width = _slots(cap)
    block = (1 << width) - 1
    return tuple(_strip([(q >> s) & m for s, m in slots])
                 for q in ((packed >> (b * width)) & block for b in range(nblocks)))


class TruncatedSeries:
    """Sparse series with weighted-degree truncation.

    _graded lists (weight, {packed monomial: int numerator}) in increasing
    weight and _den is the common positive denominator.  No numerator and
    no bucket is empty or zero, no monomial exceeds the cap, and _den
    shares no factor with all the numerators, so equality of series at one
    cap is structural equality.
    """

    __slots__ = ("cap", "nblocks", "_den", "_graded", "_terms")

    def __init__(self, cap, terms=None, nblocks=1):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        sums = {}
        weights = {}
        if terms:
            for mono, c in terms.items():
                if _exact(c) == 0:
                    continue
                mono = tuple(_strip(b) for b in mono)
                if len(mono) != nblocks:
                    raise ValueError("monomial block count mismatch")
                enc = _encode(mono, cap)
                if enc is None:
                    continue
                w, packed = enc
                weights[packed] = w
                sums[packed] = sums.get(packed, 0) + c
        den = lcm(*(c.denominator for c in sums.values()))
        byweight = {}
        for packed, c in sums.items():
            byweight.setdefault(weights[packed], {})[packed] = \
                c.numerator * (den // c.denominator)
        self._set(cap, nblocks, den, byweight)

    def _set(self, cap, nblocks, den, byweight):
        """Store {weight: {packed: numerator}} over den in canonical form:
        zero numerators and empty buckets dropped, den reduced."""
        graded = []
        for w in sorted(byweight):
            nums = byweight[w]
            if 0 in nums.values():
                nums = {m: c for m, c in nums.items() if c}
            if nums:
                graded.append((w, nums))
        if den != 1:
            g = den
            for _, nums in graded:
                g = gcd(g, *nums.values())
                if g == 1:
                    break
            if g != 1:
                den //= g
                graded = [(w, {m: c // g for m, c in nums.items()}) for w, nums in graded]
        self.cap = cap
        self.nblocks = nblocks
        self._den = den
        self._graded = graded
        self._terms = None

    @classmethod
    def _trusted(cls, cap, nblocks, den, byweight):
        """Build from {weight: {packed: numerator}} over den without
        checking monomials: every packed monomial must already belong to
        this cap's layout and weigh at most cap."""
        s = object.__new__(cls)
        s._set(cap, nblocks, den, byweight)
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, cap, nblocks=1):
        return cls(cap, {}, nblocks)

    @classmethod
    def const(cls, value, cap, nblocks=1):
        c = _exact(value)
        return cls._trusted(cap, nblocks, c.denominator, {0: {0: c.numerator}})

    @classmethod
    def one(cls, cap, nblocks=1):
        return cls.const(1, cap, nblocks)

    @classmethod
    def variable(cls, j, cap, block=0, nblocks=1):
        """The variable t_j (weight j) of the given block."""
        if j < 1:
            raise ValueError("variable index must be >= 1")
        if not 0 <= block < nblocks:
            raise ValueError(f"block {block} out of range")
        if j > cap:
            return cls.zero(cap, nblocks)
        mono = tuple(((0,) * (j - 1) + (1,)) if b == block else () for b in range(nblocks))
        return cls(cap, {mono: 1}, nblocks)

    # -- plumbing ----------------------------------------------------------

    @property
    def terms(self):
        """{monomial: coefficient}, decoded once; a monomial is a tuple with
        one exponent tuple per block, trailing zeros stripped."""
        t = self._terms
        if t is None:
            cap, nblocks, den = self.cap, self.nblocks, self._den
            t = self._terms = {
                _decode(m, cap, nblocks): c if den == 1 else Fraction(c, den)
                for _, nums in self._graded for m, c in nums.items()}
        return t

    def is_zero(self):
        return not self._graded

    def constant_term(self):
        return self.terms.get(((),) * self.nblocks, 0)

    def coeff(self, mono):
        mono = tuple(_strip(b) for b in mono)
        return self.terms.get(mono, 0)

    def weight(self):
        """Largest stored monomial weight (0 for the zero series)."""
        g = self._graded
        return g[-1][0] if g else 0

    def __repr__(self):
        n = sum(len(nums) for _, nums in self._graded)
        return f"<TruncatedSeries cap={self.cap} blocks={self.nblocks} terms={n}>"

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.cap == other.cap and self.nblocks == other.nblocks
                and self._den == other._den and self._graded == other._graded)

    def __hash__(self):
        raise TypeError("TruncatedSeries is unhashable")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        return mul_sum(((1, self, 1), (1, other, 1)))

    __radd__ = __add__

    def __sub__(self, other):
        return mul_sum(((1, self, 1), (-1, other, 1)))

    def __rsub__(self, other):
        return mul_sum(((1, other, 1), (-1, self, 1)))

    def __neg__(self):
        return mul_sum(((-1, self, 1),))

    def __mul__(self, other):
        return mul_sum(((1, self, other),))

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
        cap, nblocks = self.cap, self.nblocks
        return TruncatedSeries._trusted(
            cap, nblocks, self._den,
            {w: {m: -c if sum(map(sum, _decode(m, cap, nblocks))) % 2 else c
                 for m, c in nums.items()} for w, nums in self._graded})

    def substitute_point(self, block, value):
        """Evaluate a point-symbol block at a scalar, dropping that block.

        The block must only involve its first variable (a weight-one symbol).
        """
        if self.nblocks < 2:
            raise ValueError("cannot drop the last block")
        return self._at_point(block, value, drop=True)

    def scale_point(self, block, value):
        """Substitute s -> value * s for the point symbol s of a block.  The
        map keeps every monomial's weight, so it commutes with truncation."""
        return self._at_point(block, value, drop=False)

    def _at_point(self, block, value, drop):
        """Each term times value^e, e its exponent of the block's point
        symbol; with drop the symbol is set to one and its block removed."""
        if not 0 <= block < self.nblocks:
            raise ValueError(f"block {block} out of range")
        value = _exact(value)
        slots, width = _slots(self.cap)
        lo, hi = block * width, (block + 1) * width
        first_bits = slots[0][1].bit_length() if slots else 0
        # c s^e / den at s = p/q is c p^e q^(emax - e) / (den q^emax)
        found = []
        for w, nums in self._graded:
            for m, c in nums.items():
                bits = (m >> lo) & ((1 << width) - 1)
                if bits >> first_bits:
                    raise ValueError("block is not a point symbol")
                if drop:
                    found.append((w - bits, (m & ((1 << lo) - 1)) | ((m >> hi) << lo), c, bits))
                else:
                    found.append((w, m, c, bits))
        emax = max((e for *_, e in found), default=0)
        p, q = value.numerator, value.denominator
        byweight = {}
        for w, m, c, e in found:
            acc = byweight.setdefault(w, {})
            acc[m] = acc.get(m, 0) + c * p ** e * q ** (emax - e)
        return TruncatedSeries._trusted(
            self.cap, self.nblocks - drop, self._den * q ** emax, byweight)


def mul_sum(terms):
    """s_1 x_1 y_1 + s_2 x_2 y_2 + ... over terms (s, x, y), in one pass.

    s is an int (a sign); x and y are each a TruncatedSeries or an exact
    scalar.  Every product goes over one common denominator, the lcm of the
    terms' denominators; the numerators of all terms accumulate in one dict
    per monomial weight, and the result is canonicalised once.  It equals
    the left fold of * and + structurally.  Its series share one cap and
    block count, else ValueError; with no series it is the exact scalar sum
    (0 for no terms).
    """
    parts = []  # (scalar numerator, denominator, series, series or None)
    const = 0  # the sum of the scalar-only products
    cap = nblocks = None
    for s, x, y in terms:
        if not isinstance(x, TruncatedSeries):
            x, y = y, x
        if not isinstance(x, TruncatedSeries):
            const += s * _exact(x) * _exact(y)
            continue
        if cap is None:
            cap, nblocks = x.cap, x.nblocks
        for z in (x, y) if isinstance(y, TruncatedSeries) else (x,):
            if z.nblocks != nblocks:
                raise ValueError("block count mismatch")
            if z.cap != cap:
                raise ValueError(f"cap mismatch: {z.cap} != {cap}")
        if isinstance(y, TruncatedSeries):
            parts.append((s, x._den * y._den, x, y))
        elif _exact(y):
            parts.append((s * y.numerator, y.denominator * x._den, x, None))
    if cap is None:
        return const
    if const:
        parts.append((const.numerator, const.denominator, None, None))
    den = lcm(*(d for _, d, _, _ in parts))
    byweight = {}
    for k, d, x, y in parts:
        f = k * (den // d)
        if x is None:  # the constant monomial packs to 0 and weighs 0
            acc = byweight.setdefault(0, {})
            acc[0] = acc.get(0, 0) + f
            continue
        if y is None:
            for w, nums in x._graded:
                acc = byweight.get(w)
                if acc is None:
                    byweight[w] = {m: c * f for m, c in nums.items()}
                else:
                    get = acc.get
                    for m, c in nums.items():
                        acc[m] = get(m, 0) + c * f
            continue
        right = [(w, list(nums.items())) for w, nums in y._graded]
        for w1, left in x._graded:
            for w2, right_items in right:
                w = w1 + w2
                if w > cap:
                    break
                acc = byweight.get(w)
                if acc is None:
                    acc = byweight[w] = {}
                get = acc.get
                for m1, c1 in left.items():
                    c1 *= f
                    for m2, c2 in right_items:
                        m = m1 + m2
                        acc[m] = get(m, 0) + c1 * c2
    return TruncatedSeries._trusted(cap, nblocks, den, byweight)


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

    def __repr__(self):
        return f"<LaurentSlice [{self.lo}, {self.hi}]>"


def _powers(terms, klo, khi):
    """The slice over [klo, khi] of sum s X Y over terms (s, X, Y) of
    LaurentSlices: each power is one mul_sum over every pair of
    coefficients that meets there.  A power no pair reaches is zero, a zero
    series when the slices hold series."""
    out = []
    for p in range(klo, khi + 1):
        pairs = [(s, X.coeffs[i - X.lo], Y.coeffs[p - i - Y.lo])
                 for s, X, Y in terms
                 for i in range(max(X.lo, p - Y.hi), min(X.hi, p - Y.lo) + 1)]
        if pairs:
            out.append(mul_sum(pairs))
            continue
        like = next((c for _, X, Y in terms for c in X.coeffs + Y.coeffs
                     if isinstance(c, TruncatedSeries)), None)
        out.append(0 if like is None else TruncatedSeries.zero(like.cap, like.nblocks))
    return LaurentSlice(klo, out)


def laurent_mul_sum(terms, lo=None):
    """sum s X Y over terms (s, X, Y), X a LaurentSlice and Y a LaurentSlice
    or a coefficient (scalar or series) that multiplies every power.

    The window is the union of the products' full supports, cut below at
    lo; each of its powers is one mul_sum.
    """
    terms = [(s, X, Y if isinstance(Y, LaurentSlice) else LaurentSlice(0, [Y]))
             for s, X, Y in terms]
    klo = min(X.lo + Y.lo for _, X, Y in terms)
    return _powers(terms, klo if lo is None else max(lo, klo),
                   max(X.hi + Y.hi for _, X, Y in terms))


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
    return _powers(((1, A, B),), klo, khi)
