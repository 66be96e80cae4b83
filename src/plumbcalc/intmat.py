"""Exact integer linear algebra.

All arithmetic uses Python's arbitrary-precision integers; nothing here
touches floating point or fractions.  One fraction-free (Bareiss) pass gives
the determinant, the rank and the signature.  A square symmetric matrix of
at least ``_SPARSE_MIN`` (80) rows with at most 3n nonzeros, such as a
plumbing form, gets its determinant and signature from the same elimination
on its nonzeros instead, pivoting in least-degree order; ``_unit_core``
takes a form's nonzeros to a cokernel by its +-1 pivots.  Smith reduction
with certificates pivots on the smallest entry and starts over with Hermite
forms kept reduced should its entries outgrow the Hadamard bound of its
input; a large dense input starts on the Hermite forms.  Without
certificates, A of rank r is reduced modulo D, the absolute value of a
nonzero r x r minor from the Bareiss pass: d_1 ... d_r divides D, so that
is exact, and it keeps every entry below D.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress, islice
from math import gcd, inf, isqrt, lcm, prod

from .errors import DomainError, _ints

__all__ = [
    "IntMatrix",
    "SNFResult",
    "AbelianGroupDesc",
    "det",
    "snf",
    "smith_diagonal",
    "abelian_group_of",
    "rank",
    "signature",
    "is_perfect_square",
    "parse_matrix_text",
    "format_matrix_text",
    "inline_matrix",
]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DomainError("bad-shape", "matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise DomainError(
                "bad-shape",
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}",
            )

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DomainError("bad-shape", "ragged rows")
        return cls(len(rows), ncols, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DomainError("bad-shape", "inner dimensions differ")
        a, b = self.to_rows(), other.to_rows()
        entries = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                entries.append(sum(ai[k] * b[k][j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(entries))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_symmetric(self) -> bool:
        e, n = self.entries, self.cols
        return self.is_square and all(e[i * n:(i + 1) * n] == e[i::n] for i in range(n))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form with unimodular certificates: ``u @ a @ v == d``."""

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()


@dataclass(frozen=True)
class AbelianGroupDesc:
    """A finitely generated abelian group: Z^free_rank plus cyclic factors.

    Torsion factors are >= 2 and form a divisibility chain, so the
    description is unique.
    """

    free_rank: int
    torsion_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise DomainError("bad-group", "free rank must be nonnegative")
        fs = self.torsion_factors
        if any(f < 2 for f in fs):
            raise DomainError("bad-group", "torsion factors must be >= 2")
        if any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)):
            raise DomainError("bad-group", "torsion factors must form a divisor chain")

    @property
    def torsion_order(self) -> int:
        return prod(self.torsion_factors)

    def describe(self) -> str:
        """Render as e.g. ``Z+Z/4`` or ``Z^2+Z/2+Z/2``; trivial group is ``0``."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{f}" for f in self.torsion_factors)
        return "+".join(parts) if parts else "0"


def _bareiss(a: list[list[int]], symmetric: bool = False) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of ``a`` in place; returns
    ``(minors, sign)``.  ``minors`` starts at 1 and gains the leading minor of
    the permuted ``a`` at each step (its length less one is the rank), and
    ``sign`` is that of the permutations.  Rows the pivot column misses are
    not rescaled but keep the minor they are over in ``base``, so sparse
    forms cost about O(n^2).  ``symmetric`` pivots on the diagonal; a zero
    diagonal splits off a hyperbolic pair, recorded as 0 and the next minor."""
    nr, nc = len(a), len(a[0]) if a else 0
    base, minors, sign, k = [1] * nr, [1], 1, 0
    while k < nr and k < nc:
        prev = minors[-1]
        step = 1
        if not a[k][k]:  # bring (row, column) pairs to the pivot positions
            if symmetric:
                i = next((i for i in range(k, nr) if a[i][i]), nr)
                moves = [(i, i)] if i < nr else next(
                    ([(i, i), (j, j)] for i in range(k, nr) for j in range(i + 1, nc) if a[i][j]),
                    [])
            else:
                moves = next(([(i, j)] for j in range(k, nc) for i in range(k, nr) if a[i][j]), [])
            if not moves:
                break
            for d, (i, j) in enumerate(moves, k):
                if i != d:
                    a[i], a[d], base[i], base[d], sign = a[d], a[i], base[d], base[i], -sign
                if j != d:
                    for row in a:
                        row[j], row[d] = row[d], row[j]
                    sign = -sign
            step = len(moves)
        for d in range(k, k + step) if step > 1 or base[k] != prev else ():
            a[d] = [x * prev // base[d] for x in a[d]]
        rk = a[k]
        if step == 1:
            p = rk[k]
            for r in range(k + 1, nr):
                row = a[r]
                x = row[k]
                if x:
                    d = base[r]
                    for j in range(k + 1, nc):
                        row[j] = (row[j] * p - x * rk[j]) // d
                    base[r] = p
            minors.append(p)
        else:  # the pair [[0, b], [b, 0]]: D_(k+2) = -b^2 / D_k
            rl, b = a[k + 1], rk[k + 1]
            p = -b * b // prev
            for r in range(k + 2, nr):
                row = a[r]
                x, y = row[k], row[k + 1]
                if x or y:
                    d = prev * base[r]
                    for j in range(k + 2, nc):
                        row[j] = b * (x * rl[j] + y * rk[j] - b * row[j]) // d
                    base[r] = p
            minors += [0, p]
        k += step
    return minors, sign


def _sparse_minors(rows: list[dict[int, int]]) -> list[int]:
    """Symmetric fraction-free elimination of a symmetric matrix stored as
    rows ``{column: nonzero entry}`` (consumed); returns the minors that
    ``_bareiss(a, symmetric=True)`` gives on a symmetric permutation of it.
    Each pivot is a live row with the fewest nonzeros and a nonzero diagonal
    (minimum degree, from a heap whose stale entries are skipped): on a tree
    that eliminates leaves first, and on a cycle every row keeps at most
    three nonzeros.  Rows keep the lazy ``base`` of ``_bareiss``.  With no
    diagonal left, a row and its sparsest neighbour split off as a
    hyperbolic pair; a row left empty adds nothing to the rank."""
    base, minors = [1] * len(rows), [1]
    heap = [(not r.get(i), len(r), i) for i, r in enumerate(rows)]
    heapify(heap)
    while heap:
        zero, size, i = heappop(heap)
        ri = rows[i]
        if ri is None or (zero, size) != (not ri.get(i), len(ri)):
            continue  # stale: the row is gone or has changed since
        rows[i], prev = None, minors[-1]
        if not size:
            continue
        if base[i] != prev:
            ri = {c: v * prev // base[i] for c, v in ri.items()}
        if zero:  # the pair [[0, b], [b, 0]]: D_(k+2) = -b^2 / D_k
            j = min(ri, key=lambda c: len(rows[c]))
            rj, rows[j] = rows[j], None
            if base[j] != prev:
                rj = {c: v * prev // base[j] for c, v in rj.items()}
            b, _ = ri.pop(j), rj.pop(i)
            s, nbrs = -b * b, ri.keys() | rj
            minors += [0, s // prev]
        else:
            s, nbrs = ri.pop(i), ri
            minors.append(s)
        for r in nbrs:  # row r becomes (s row - x w) / d
            row = rows[r]
            key = (not row.get(r), len(row))
            if zero:
                x, y = row.pop(i, 0), row.pop(j, 0)
                w = {c: -b * (x * rj.get(c, 0) + y * ri.get(c, 0)) for c in nbrs}
                x, d = 1, prev * base[r]
            else:
                x, w, d = row.pop(i), ri, base[r]
            new = {c: (s * v - x * w.get(c, 0)) // d for c, v in row.items()}
            for c in w.keys() - new.keys():
                new[c] = -x * w[c] // d
            if 0 in new.values():
                new = {c: v for c, v in new.items() if v}
            rows[r], base[r] = new, minors[-1]
            if key != (not new.get(r), len(new)):  # else its heap entry still holds
                heappush(heap, (not new.get(r), len(new), r))
    return minors


def _unit_core(rows: list[dict[int, int]]) -> IntMatrix:
    """Eliminate the +-1 entries of a symmetric matrix, stored as rows
    ``{column: nonzero entry}`` (consumed); returns the core left, of the
    same cokernel.  Each pivot is a unit in a live row of fewest nonzeros, in
    its column of fewest; a row with no unit waits, parked, until it changes."""
    n, parked = len(rows), set()
    cols = [set(r) for r in rows]  # by symmetry, column c's rows are row c's columns
    heap = [len(r) * n + i for i, r in enumerate(rows)]  # size * n + row: int keys
    heapify(heap)
    while heap:
        size, i = divmod(heappop(heap), n)
        ri = rows[i]
        if ri is None or size != len(ri):
            continue  # stale: the row is gone or has changed since
        units = [(len(cols[c]), c) for c, x in ri.items() if x == 1 or x == -1]
        if not units:
            parked.add(i)
            continue
        j = min(units)[1]
        p, col = ri.pop(j), cols[j]
        col.discard(i)
        for r in col:  # row r -= (its entry / p) row i, which clears column j
            row = rows[r]
            size, x = len(row), row.pop(j) * p
            for c, y in ri.items():
                v = row.get(c, 0) - x * y
                if v:
                    row[c] = v
                    cols[c].add(r)
                else:
                    del row[c]
                    cols[c].discard(r)
            if size != len(row) or r in parked:  # else its heap entry still holds
                parked.discard(r)
                heappush(heap, len(row) * n + r)
        col.clear()
        for c in ri:
            cols[c].discard(i)
        rows[i] = None
    occupied = [c for c, s in enumerate(cols) if s]
    return IntMatrix.from_rows([r.get(c, 0) for c in occupied] for r in rows if r is not None)


def _axpy(dst: list[int], src: list[int], c: int) -> None:
    """``dst += c * src`` in place."""
    for j, y in enumerate(src):
        if y:
            dst[j] += c * y


def _hermite(w: list[list[int]], c: list[list[int]]) -> None:
    """Row Hermite normal form of ``w`` in place (positive pivots reducing the
    entries above them, zero rows last), doing the same row operations on
    ``c``.  Rows go in one at a time and those so far are kept reduced
    (Kannan-Bachem), so entries stay bounded by the minors of ``w``."""
    hw, hc, cols, zw, zc = [], [], [], [], []  # pivot rows, companions, pivot columns
    for row, crow in zip(w, c):
        first = len(hw)  # pivot rows from here on need reducing again
        lead = 0
        while True:
            lead = next((j for j in range(lead, len(row)) if row[j]), -1)
            s = next((s for s, col in enumerate(cols) if col >= lead), len(cols))
            if lead < 0 or s == len(cols) or cols[s] != lead:
                break
            q = row[lead] // hw[s][lead]
            _axpy(row, hw[s], -q)
            _axpy(crow, hc[s], -q)
            while row[lead]:  # the pivot does not divide: Euclid on the pair
                q = hw[s][lead] // row[lead]
                _axpy(hw[s], row, -q)
                _axpy(hc[s], crow, -q)
                hw[s], row, hc[s], crow = row, hw[s], crow, hc[s]
                first = min(first, s)
        if lead < 0:
            zw.append(row)
            zc.append(crow)
        else:
            if row[lead] < 0:
                row, crow = [-x for x in row], [-x for x in crow]
            cols.insert(s, lead)
            hw.insert(s, row)
            hc.insert(s, crow)
            first = min(first, s)
        for s in range(first, len(hw)):
            for s2 in range(s):
                q = hw[s2][cols[s]] // hw[s][cols[s]]
                _axpy(hw[s2], hw[s], -q)
                _axpy(hc[s2], hc[s], -q)
    w[:] = hw + zw
    c[:] = hc + zc


def _hadamard(k: int, b: int) -> int:
    """A power of two at least the Hadamard bound ``(sqrt(k) b)^k``."""
    return 1 << k * (b.bit_length() + (k.bit_length() + 1) // 2)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _smith(m: IntMatrix):
    """Diagonalize ``m`` by unimodular row and column operations; returns
    the form, ``u`` and the transpose of ``v``, where ``u @ m @ v`` is the form.

    Pivot rule: smallest nonzero absolute value in the remaining block (in
    its row and column while remainders are left), with the divisor chain
    enforced at each pivot: cheap on sparse forms, whose pivots are mostly
    units.  Should an entry exceed the Hadamard bound ``H = (sqrt(k) B)^k``
    of ``m`` (``k`` the smaller dimension, ``B`` the largest entry), or a
    finished certificate row ``H^2``, it starts over from ``m`` with row and
    column Hermite forms kept reduced (Kannan-Bachem 1979), then only
    enforces the divisor chain and checks no size.  A dense ``m`` (at least
    ``_HERMITE_MIN`` rows and columns, over half of the entries nonzero)
    starts there, which the README's crossover table measures as faster."""
    nr, nc, mat = m.rows, m.cols, m.to_rows()
    u, vt = _identity(nr), _identity(nc)
    grown = min(nr, nc) >= _HERMITE_MIN and 2 * m.entries.count(0) < nr * nc
    limit, full, t = inf if grown else None, True, 0  # full: search all the block
    while True:
        best, top, pi, pj = 0, 0, -1, -1
        for i in range(t, nr):
            row = mat[i]
            for j in range(t, nc) if full or i == t else (t,):
                x = row[j]
                if x:
                    x = -x if x < 0 else x
                    if pi < 0 or x < best:
                        best, pi, pj = x, i, j
                    if x > top:
                        top = x
        if limit is None:
            limit = _hadamard(min(nr, nc), top)
        elif top > limit or grown:
            limit, grown, full, t, mat = inf, False, True, 0, m.to_rows()
            u, vt = _identity(nr), _identity(nc)
            while any(x for i, row in enumerate(mat) for j, x in enumerate(row) if i != j):
                _hermite(mat, u)
                mat = [list(col) for col in zip(*mat)]
                _hermite(mat, vt)
                mat = [list(col) for col in zip(*mat)]
            continue
        if pi < 0:
            if any(max(r) > limit**2 or -min(r) > limit**2 for r in u[t:] + vt[t:]):
                grown = True
                continue
            return mat, u, vt
        mat[t], mat[pi], u[t], u[pi] = mat[pi], mat[t], u[pi], u[t]
        if pj != t:
            for row in mat[t:]:
                row[t], row[pj] = row[pj], row[t]
            vt[t], vt[pj] = vt[pj], vt[t]
        rt = mat[t]
        p = rt[t]
        clean = True
        for i in range(t + 1, nr):
            ri = mat[i]
            if ri[t]:
                q = ri[t] // p
                if q:
                    _axpy(ri, rt, -q)
                    _axpy(u[i], u[t], -q)
                clean = clean and not ri[t]
        for j in range(t + 1, nc):
            if rt[j]:
                q = rt[j] // p
                if q:
                    for row in mat[t:]:
                        if row[t]:
                            row[j] -= q * row[t]
                    _axpy(vt[j], vt[t], -q)
                clean = clean and not rt[j]
        full = clean
        if not clean:
            continue  # a remainder is left: it is the next, smaller pivot
        if p != 1 and p != -1:
            # enforce the divisor chain: the pivot must divide the whole block
            dirty = next((i for i in range(t + 1, nr) if any(x % p for x in mat[i][t + 1:])), 0)
            if dirty:
                _axpy(rt, mat[dirty], 1)
                _axpy(u[t], u[dirty], 1)
                full = False
                continue
        if p < 0:
            rt[t], u[t] = -p, [-x for x in u[t]]
        grown = max(map(abs, u[t] + vt[t])) > limit * limit
        t += not grown


def _smith_mod(a: list[list[int]], d: int) -> tuple[int, ...]:
    """Invariant factors over Z/d (``d > 0``) of ``a``, of any shape, each as
    ``gcd(f, d)``, by elimination over Z/d (Cohen, GTM 138, Alg. 2.4.14).  A
    unit in the pivot column clears it with one multiply per entry and
    gives the factor 1; otherwise extended-gcd row sweeps alternate with
    transposes (which keep the factors) until the pivot ``p`` divides its
    row and column, and it gives ``gcd(p, d)``.  Entries stay below d."""
    a, fs = [[x % d for x in row] for row in a], []
    while a and a[0]:
        i = next((i for i, row in enumerate(a) if gcd(row[0], d) == 1), -1)
        if i >= 0:  # a unit pivot: scale it to 1, clear its column, factor 1
            inv = pow(a[i][0], -1, d)
            rt = [x * inv % d for x in a.pop(i)[1:]]
            a = [[(x - r[0] * y) % d for x, y in zip(r[1:], rt)] if r[0] else r[1:] for r in a]
            fs.append(1)
            continue
        while True:
            rt = a[0]
            for i in range(1, len(a)):
                ri, p, y = a[i], rt[0], a[i][0]
                if p and not y % p:  # one multiple clears y; Bezout could swap equal entries
                    q = y // p
                    a[i] = [(z - q * x) % d for x, z in zip(rt, ri)]
                elif y:  # [[u, v], [-y/g, p/g]] has determinant 1 and pivot g
                    g = gcd(p, y)
                    u = pow(p // g, -1, y // g)
                    v, s, t = (g - u * p) // y, p // g, y // g
                    rt, a[i] = ([(u * x + v * z) % d for x, z in zip(rt, ri)],
                                [(s * z - t * x) % d for x, z in zip(rt, ri)])
            a[0], p = rt, rt[0]
            if not any(x % p if p else x for x in rt[1:]):
                break  # column operations clear row 0 and change nothing else
            a = [list(c) for c in zip(*a)]
        fs.append(gcd(a[0][0], d))
        a = [r[1:] for r in a[1:]]
    for i in range(len(fs)):  # Z/x + Z/y = Z/gcd + Z/lcm, into a divisor chain
        for j in range(i + 1, len(fs)):
            fs[i], fs[j] = gcd(fs[i], fs[j]), lcm(fs[i], fs[j])
    return tuple(fs)


def smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of ``m`` (nonnegative, divisor chain), without the
    unimodular witnesses.  Cheaper than :func:`snf` for bulk homology work.
    One Bareiss pass gives the rank r and a nonzero r x r minor D, and
    ``_smith_mod`` reduces ``m`` modulo |D|: d_1 ... d_r divides D, so the
    first r factors over Z/D are d_1, ..., d_r (all 1, with no elimination,
    when |D| = 1), and the rest are 0."""
    minors = _bareiss(m.to_rows())[0]
    r, d = len(minors) - 1, abs(minors[-1])
    fs = _smith_mod(m.to_rows(), d) if d > 1 else (1,) * r
    return fs[:r] + (0,) * (min(m.rows, m.cols) - r)


def snf(m: IntMatrix) -> SNFResult:
    """Smith normal form with certificates.

    Returns ``SNFResult(d, u, v)`` with ``u @ m @ v == d``, ``u`` and ``v``
    unimodular, and ``d`` diagonal with nonnegative entries in a divisor
    chain.  ``d`` is the unique such diagonal; ``u`` and ``v`` are one valid
    choice; the README's Smith note says how their size is bounded.
    """
    work, u, vt = _smith(m)
    return SNFResult(
        d=IntMatrix(m.rows, m.cols, tuple(x for r in work for x in r)),
        u=IntMatrix(m.rows, m.rows, tuple(x for r in u for x in r)),
        v=IntMatrix(m.cols, m.cols, tuple(x for r in zip(*vt) for x in r)),
    )


# Below this size the dense loops win.  On path and cycle forms (weights -2
# to -4; least of 25 interleaved runs, 2-vCPU VM, Python 3.11) the sparse
# path's det and signature cost 2.0-2.6x Bareiss's at n = 16, 1.3-1.9x at
# 32, 0.8-1.3x at 64, 0.8-1.07x at 80 and 0.5-0.8x at 128.
_SPARSE_MIN = 80
# From this size a dense snf starts on Hermite forms: table in README.md.
_HERMITE_MIN = 16


def _sparse_rows(m: IntMatrix) -> list[dict[int, int]] | None:
    """Rows ``{column: entry}`` of ``m`` when it is symmetric, has at least
    ``_SPARSE_MIN`` rows and at most three nonzeros a row on average (the
    shape of a plumbing form); else None.  The zeros are counted and
    skipped at C speed, so the cost past that scan is O(nonzeros)."""
    n, e = m.rows, m.entries
    if m.cols != n or n < _SPARSE_MIN or n * n - e.count(0) > 3 * n:
        return None
    cols, flat = tuple(range(n)), iter(e)
    rows = [{j: e[a + j] for j in compress(cols, islice(flat, n))} for a in range(0, n * n, n)]
    if any(rows[j].get(i) != x for i, row in enumerate(rows) for j, x in row.items()):
        return None
    return rows


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free elimination: ``_sparse_minors``
    on a large sparse symmetric matrix, else Bareiss."""
    if not m.is_square:
        raise DomainError("non-square", "determinant needs a square matrix")
    rows = _sparse_rows(m)
    minors, sign = _bareiss(m.to_rows()) if rows is None else (_sparse_minors(rows), 1)
    return sign * minors[-1] if len(minors) > m.rows else 0


def rank(m: IntMatrix) -> int:
    """Rank over Q (equivalently over Z), by Bareiss with full pivoting."""
    return len(_bareiss(m.to_rows())[0]) - 1


def abelian_group_of(m: IntMatrix) -> AbelianGroupDesc:
    """Cokernel of ``m`` acting by column relations on Z^rows.

    ``free_rank = rows - rank(m)``; the torsion factors are the invariant
    factors that exceed 1.
    """
    diag = smith_diagonal(m)
    r = sum(1 for x in diag if x)
    return AbelianGroupDesc(m.rows - r, tuple(x for x in diag if x > 1))


def _det_signature(m: IntMatrix) -> tuple[int, int]:
    """``(det, signature)`` of a symmetric ``m`` from the leading minors
    ``D_k`` of one symmetric elimination (``_sparse_minors`` or Bareiss, as
    for :func:`det`).  By Sylvester's rule each single step adds the sign of
    ``D_(k-1) D_k`` and each hyperbolic pair adds 0; with full rank the last
    minor is det."""
    rows = _sparse_rows(m)
    if rows is None and not m.is_symmetric:
        raise DomainError("non-symmetric", "signature needs a symmetric matrix")
    minors = _bareiss(m.to_rows(), symmetric=True)[0] if rows is None else _sparse_minors(rows)
    sigma = sum((x * y > 0) - (x * y < 0) for x, y in zip(minors, minors[1:]))
    return minors[-1] if len(minors) > m.rows else 0, sigma


def signature(m: IntMatrix) -> int:
    """Signature of a symmetric matrix, by :func:`_det_signature`."""
    if not m.is_square:
        raise DomainError("non-square", "signature needs a square matrix")
    return _det_signature(m)[1]


def is_perfect_square(n: int) -> bool:
    """True iff ``n = s*s`` for some integer ``s`` (exact, no floats)."""
    if n < 0:
        return False
    s = isqrt(n)
    return s * s == n


def parse_matrix_text(text: str) -> IntMatrix:
    """Parse the matrix interchange format: ``rows cols`` then the entries,
    whitespace-separated in row-major order."""
    tokens = text.split()
    if len(tokens) < 2:
        raise DomainError("matrix-syntax", "expected 'rows cols' header")
    nr, nc, *entries = _ints(tokens, "matrix-syntax", "non-integer token")
    if nr < 0 or nc < 0:
        raise DomainError("matrix-syntax", "negative dimensions")
    if len(entries) != nr * nc:
        raise DomainError(
            "matrix-syntax", f"expected {nr * nc} entries, got {len(entries)}"
        )
    return IntMatrix(nr, nc, tuple(entries))


def format_matrix_text(m: IntMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    lines.extend(" ".join(str(x) for x in row) for row in m.to_rows())
    return "\n".join(lines)


def inline_matrix(m: IntMatrix) -> str:
    """Single-line rendering for CLI output: rows joined by ';', entries by ','."""
    return ";".join(",".join(str(x) for x in row) for row in m.to_rows())
