"""Exact integer linear algebra.

All arithmetic uses Python's arbitrary-precision integers; nothing here
touches floating point or fractions.  The determinant, the rank, the
signature and the Smith modulus are leading minors of one fraction-free
(Bareiss) elimination, and ``_minors`` alone picks its kernel: a square
symmetric matrix of at least ``_SPARSE_MIN`` (80) rows with at most 3n
nonzeros, such as a plumbing form, is eliminated on its nonzeros in
least-degree order.  A symmetric elimination with no live diagonal entry
adds row and column j to row and column i, a congruence that makes a_ii =
2 a_ij, so every step is one pivot.  ``_unit_core`` takes a form's
nonzeros to a cokernel by its +-1 pivots.  Smith reduction with
certificates takes +-1 pivots while any is left, and row Hermite forms
kept reduced, the sides alternating, on what they leave; Bezout steps make
the diagonal a divisor chain.  Without certificates, a large sparse
symmetric input first loses its +-1 pivots to ``_unit_core``; then A of
rank r is reduced modulo M by extended-gcd sweeps alone, every entry kept
below M, where the Bareiss pass's last minors give an M that the factors
needed divide: on a square nonsingular A, gcd(D_(r-1), D_r), as the gcd
d_1 ... d_(r-1) of all (r-1)-minors divides both, and d_r = |D_r| /
(d_1 ... d_(r-1)); else |D_r|, which d_1 ... d_r divides.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress, islice
from math import gcd, lcm, prod

from .errors import DomainError, _ints, _Value, is_perfect_square

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


class IntMatrix(_Value):
    """Immutable integer matrix; entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise DomainError("bad-shape", "matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise DomainError(
                "bad-shape",
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}",
            )
        self.__dict__.update(rows=rows, cols=cols, entries=entries)

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


class SNFResult(_Value):
    """Smith normal form with unimodular certificates: ``u @ a @ v == d``."""

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    def __init__(self, d: IntMatrix, u: IntMatrix, v: IntMatrix) -> None:
        self.__dict__.update(d=d, u=u, v=v)

    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()


class AbelianGroupDesc(_Value):
    """A finitely generated abelian group: Z^free_rank plus cyclic factors.

    Torsion factors are >= 2 and form a divisibility chain, so the
    description is unique.
    """

    free_rank: int
    torsion_factors: tuple[int, ...]

    def __init__(self, free_rank: int, torsion_factors: tuple[int, ...]) -> None:
        if free_rank < 0:
            raise DomainError("bad-group", "free rank must be nonnegative")
        fs = torsion_factors
        if any(f < 2 for f in fs):
            raise DomainError("bad-group", "torsion factors must be >= 2")
        if any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)):
            raise DomainError("bad-group", "torsion factors must form a divisor chain")
        self.__dict__.update(free_rank=free_rank, torsion_factors=torsion_factors)

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
    forms cost about O(n^2).  ``symmetric`` pivots on the diagonal; when
    no live diagonal entry is left, a nonzero a_ij gets row j added to row
    i and column j to column i, a congruence of det 1 that makes a_ii =
    2 a_ij, and that pivot follows."""
    nr, nc = len(a), len(a[0]) if a else 0
    base, minors, sign, k = [1] * nr, [1], 1, 0
    while k < nr and k < nc:
        prev = minors[-1]
        if not a[k][k]:  # bring a nonzero entry (i, j) to the pivot position
            if symmetric:
                i = j = next((i for i in range(k, nr) if a[i][i]), nr)
                if i == nr:
                    pairs = ((i, j) for i in range(k, nr) for j in range(i + 1, nc) if a[i][j])
                    i, j = next(pairs, (nr, nr))
                if i < j:  # rows i and j over the current minor, then the congruence
                    for r in (i, j):
                        a[r], base[r] = [x * prev // base[r] for x in a[r]], prev
                    a[i] = [x + y for x, y in zip(a[i], a[j])]
                    for row in a[k:]:
                        row[i] += row[j]
                    j = i
            else:
                i, j = next(((i, j) for j in range(k, nc) for i in range(k, nr) if a[i][j]),
                            (nr, nc))
            if i == nr:
                break
            if i != k:
                a[i], a[k], base[i], base[k], sign = a[k], a[i], base[k], base[i], -sign
            if j != k:
                for row in a:
                    row[j], row[k] = row[k], row[j]
                sign = -sign
        if base[k] != prev:
            a[k] = [x * prev // base[k] for x in a[k]]
        rk, p = a[k], a[k][k]
        for r in range(k + 1, nr):
            row = a[r]
            x = row[k]
            if x:
                d = base[r]
                for j in range(k + 1, nc):
                    row[j] = (row[j] * p - x * rk[j]) // d
                base[r] = p
        minors.append(p)
        k += 1
    return minors, sign


def _sparse_minors(rows: list[dict[int, int]]) -> list[int]:
    """Symmetric fraction-free elimination of a symmetric matrix stored as
    rows ``{column: nonzero entry}`` (consumed), the steps of
    ``_bareiss(a, symmetric=True)`` in another pivot order; returns its
    minors, so det, rank and signature are those of ``_bareiss``.  Each
    pivot is a live row with the fewest nonzeros and a nonzero diagonal
    (minimum degree, from a heap whose stale entries are skipped): on a tree
    that eliminates leaves first, and on a cycle every row keeps at most
    three nonzeros.  Rows keep the lazy ``base`` of ``_bareiss``.  With no
    diagonal left, the row i of fewest nonzeros takes the congruence of
    ``_bareiss`` with its sparsest neighbour j and is the pivot; a row left
    empty adds nothing to the rank."""
    base, minors = [1] * len(rows), [1]
    heap = [(not r.get(i), len(r), i) for i, r in enumerate(rows)]
    heapify(heap)
    while heap:
        zero, size, i = heappop(heap)
        ri = rows[i]
        if ri is None or (zero, size) != (not ri.get(i), len(ri)):
            continue  # stale: the row is gone or has changed since
        rows[i], prev, j = None, minors[-1], i
        if not size:
            continue
        if base[i] != prev:
            ri = {c: v * prev // base[i] for c, v in ri.items()}
        if zero:  # the congruence: a_ii becomes a_ji + a_ij = 2 a_ij
            j = min(ri, key=lambda c: len(rows[c]))
            rj, bj = rows[j], base[j]  # row j over the current minor
            ri = {c: ri.get(c, 0) + rj.get(c, 0) * prev // bj for c in ri.keys() | rj}
            ri[i] += ri[j]
        s = ri.pop(i)
        minors.append(s)
        for r in ri:  # row r becomes (s row - x ri) / base[r]
            row = rows[r]
            key = (not row.get(r), len(row))
            x, d = row.pop(i, 0) + row.get(j, 0), base[r]  # j == i adds 0 once i is popped
            new = {c: (s * v - x * ri.get(c, 0)) // d for c, v in row.items()}
            for c in ri.keys() - new.keys():
                new[c] = -x * ri[c] // d
            if 0 in new.values():
                new = {c: v for c, v in new.items() if v}
            rows[r], base[r] = new, s
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
    n = len(w[0]) if w else 0
    for row, crow in zip(w, c):
        first = len(hw)  # pivot rows from here on need reducing again
        lead = s = 0
        while True:
            while lead < n and not row[lead]:
                lead += 1
            while s < len(cols) and cols[s] < lead:
                s += 1
            if lead == n or s == len(cols) or cols[s] != lead:
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
        if lead == n:
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
                if q:
                    _axpy(hw[s2], hw[s], -q)
                    _axpy(hc[s2], hc[s], -q)
    w[:] = hw + zw
    c[:] = hc + zc


def _bezout(p: int, y: int) -> tuple[int, int, int]:
    """``(g, s, t)`` with ``g = gcd(p, y) = s p + t y``, for ``p >= 0`` and ``y > 0``:
    ``[[s, t], [-y/g, p/g]]`` has determinant 1 and takes ``(p, y)`` to ``(g, 0)``."""
    g = gcd(p, y)
    s = pow(p // g, -1, y // g)
    return g, s, (g - s * p) // y


def _smith(m: IntMatrix):
    """Diagonalize ``m`` by unimodular row and column operations; returns
    the form, ``u`` and the transpose of ``v``, where ``u @ m @ v`` is the form.

    While the live block holds a +-1, the first in its live row of fewest
    nonzeros is the pivot: row operations clear its column and column
    operations its row.  A block left with no unit and not diagonal gets one
    row Hermite pass (Kannan-Bachem 1979), and the matrix is transposed,
    ``u`` and ``vt`` trading places, before the unit pivots resume.  Last,
    Bezout steps on pairs of diagonal entries make a divisor chain, and the
    rows of ``u`` and ``vt`` at its zeros, a basis of a kernel of ``m``, go
    to Hermite form and reduce the other rows when there are two or more;
    neither changes the form."""
    nr, nc, mat, flipped, t = m.rows, m.cols, m.to_rows(), False, 0
    u, vt = IntMatrix.identity(nr).to_rows(), IntMatrix.identity(nc).to_rows()
    while True:
        units = [(len(live) - live.count(0), i) for i in range(t, nr)
                 for live in (mat[i][t:],) if 1 in live or -1 in live]
        if units:
            i = min(units)[1]
            j = next(j for j in range(t, nc) if mat[i][j] in (1, -1))
            mat[t], mat[i], u[t], u[i] = mat[i], mat[t], u[i], u[t]
            if j != t:
                for row in mat[t:]:
                    row[t], row[j] = row[j], row[t]
                vt[t], vt[j] = vt[j], vt[t]
            rt, p = mat[t], mat[t][t]
            for i in range(t + 1, nr):
                if mat[i][t]:
                    q = -mat[i][t] * p
                    _axpy(mat[i], rt, q)
                    _axpy(u[i], u[t], q)
            for j in range(t + 1, nc):
                if rt[j]:
                    _axpy(vt[j], vt[t], -rt[j] * p)
                    rt[j] = 0
            t += 1
            continue
        if not any(x for i in range(t, nr) for j, x in enumerate(mat[i][t:], t) if i != j):
            break
        w, c = [row[t:] for row in mat[t:]], u[t:]
        _hermite(w, c)
        mat[t:], u[t:] = [[0] * t + row for row in w], c
        mat = [list(col) for col in zip(*mat)]
        u, vt, nr, nc, flipped = vt, u, nc, nr, not flipped
    d = [mat[i][i] for i in range(min(nr, nc))]
    for i, x in enumerate(d):
        if x < 0:
            d[i], u[i] = -x, [-y for y in u[i]]
    for i in range(t, len(d)):  # Z/a + Z/b = Z/g + Z/(ab/g), g = gcd(a, b)
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a if a else b:
                g, s, q = _bezout(a, b)
                u[i], u[j] = ([s * x + q * y for x, y in zip(u[i], u[j])],
                              [(a * y - b * x) // g for x, y in zip(u[i], u[j])])
                _axpy(vt[i], vt[j], 1)
                _axpy(vt[j], vt[i], -q * b // g)
                d[i], d[j] = g, a * b // g
    # The rows at zeros of the form span a kernel of m.  One such row is the
    # primitive vector of the minors of m over their gcd, so it is small as
    # it is; two or more go to Hermite form, which those minors bound, and
    # reduce the other rows.
    r = len(d) - d.count(0)
    for c in (u, vt):
        if len(c) > r + 1:
            w = c[r:]
            _hermite(w, [[] for _ in w])
            c[r:] = w
            for h in w:
                j = next(j for j, x in enumerate(h) if x)
                for row in c[:r]:
                    _axpy(row, h, -(row[j] // h[j]))
    if flipped:
        u, vt = vt, u
    return [[d[i] if i == j else 0 for j in range(m.cols)] for i in range(m.rows)], u, vt


def _smith_mod(a: list[list[int]], d: int) -> tuple[int, ...]:
    """Invariant factors over Z/d (``d > 0``) of ``a``, of any shape, each as
    ``gcd(f, d)``, by elimination over Z/d (Cohen, GTM 138, Alg. 2.4.14).
    Each step is one kind: extended-gcd row sweeps alternate with transposes
    (which keep the factors) until the pivot ``p`` divides its row and
    column, and it gives ``gcd(p, d)``.  A column holding a unit mod d
    gives 1, as its gcd divides that unit.  Entries stay below d."""
    a, fs = [[x % d for x in row] for row in a], []
    while a and a[0]:
        while True:
            rt = a[0]
            for i in range(1, len(a)):
                ri, p, y = a[i], rt[0], a[i][0]
                if p and not y % p:  # one multiple clears y; Bezout could swap equal entries
                    q = y // p
                    a[i] = [(z - q * x) % d for x, z in zip(rt, ri)]
                elif y:  # [[u, v], [-y/g, p/g]] has determinant 1 and pivot g
                    g, u, v = _bezout(p, y)
                    s, t = p // g, y // g
                    rt, a[i] = ([(u * x + v * z) % d for x, z in zip(rt, ri)],
                                [(s * z - t * x) % d for x, z in zip(rt, ri)])
            a[0], p = rt, rt[0]
            if not any(x % p if p else x for x in rt[1:]):
                break  # column operations clear row 0 and change nothing else
            a = [list(c) for c in zip(*a)]
        fs.append(gcd(a[0][0], d))
        a = [r[1:] for r in a[1:]]
    ones, fs = fs.count(1), [f for f in fs if f != 1]  # a 1 changes no gcd or lcm
    for i in range(len(fs)):  # Z/x + Z/y = Z/gcd + Z/lcm, into a divisor chain
        for j in range(i + 1, len(fs)):
            fs[i], fs[j] = gcd(fs[i], fs[j]), lcm(fs[i], fs[j])
    return (1,) * ones + tuple(fs)


def smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of ``m`` (nonnegative, divisor chain), without the
    unimodular witnesses.  Cheaper than :func:`snf` for bulk homology work.
    A large sparse symmetric ``m`` (see :func:`_sparse_rows`) first loses
    its +-1 pivots to ``_unit_core``, a factor 1 each, and the rest runs on
    the core they leave.  One elimination (:func:`_minors`) gives the rank
    r and nonzero minors D_(r-1) and D_r.  On a nonsingular square core
    ``_smith_mod`` reduces modulo g = gcd(D_(r-1), D_r), which d_1 ...
    d_(r-1), the gcd of all (r-1)-minors, divides: its first r - 1 factors over Z/g are
    d_1, ..., d_(r-1), and d_r = |D_r| / (d_1 ... d_(r-1)).  A singular or
    non-square core keeps the modulus |D_r|, which d_1 ... d_r divides, and
    the factors past r are 0.  Over Z/1 every factor is 1, with no pass."""
    rows = _sparse_rows(m)
    core = m if rows is None else _unit_core(rows)
    minors = _minors(core)[0]
    r, d = len(minors) - 1, abs(minors[-1])
    full = r == core.rows == core.cols > 0
    mod, k = (gcd(minors[-2], d), r - 1) if full else (d, r)
    fs = _smith_mod(core.to_rows(), mod)[:k] if mod > 1 else (1,) * k
    fs = (1,) * (m.rows - core.rows) + fs + ((d // prod(fs),) if full else ())
    return fs + (0,) * (min(m.rows, m.cols) - len(fs))


def snf(m: IntMatrix) -> SNFResult:
    """Smith normal form with certificates.

    Returns ``SNFResult(d, u, v)`` with ``u @ m @ v == d``, ``u`` and ``v``
    unimodular, and ``d`` diagonal with nonnegative entries in a divisor
    chain.  ``d`` is the unique such diagonal; ``u`` and ``v`` are one valid
    choice; the README's Smith note says how their size is bounded.  Raises
    ``too-large`` before building anything when ``u`` and ``v`` would have
    more than ``_MAX_CERTIFICATE`` entries.
    """
    if m.rows ** 2 + m.cols ** 2 > _MAX_CERTIFICATE:
        raise DomainError(
            "too-large", f"{m.rows}x{m.cols} certificates exceed {_MAX_CERTIFICATE} entries")
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


def _minors(m: IntMatrix, symmetric: bool = False) -> tuple[list[int], int]:
    """``(minors, sign)`` of one fraction-free elimination of ``m``, the one
    place that picks its kernel: ``_sparse_minors`` on what
    :func:`_sparse_rows` accepts (a symmetric permutation, sign 1), else
    ``_bareiss``, or ``([1], 1)`` with no row built when a dimension is 0.
    ``symmetric`` pivots on the diagonal, for signatures, and first rejects
    a non-symmetric ``m`` (``_sparse_rows`` checks its nonzeros)."""
    rows = _sparse_rows(m)
    if rows is not None:
        return _sparse_minors(rows), 1
    if symmetric and not m.is_symmetric:
        raise DomainError("non-symmetric", "signature needs a symmetric matrix")
    return _bareiss(m.to_rows(), symmetric) if m.rows and m.cols else ([1], 1)


def det(m: IntMatrix) -> int:
    """Exact determinant by one fraction-free elimination (:func:`_minors`)."""
    if not m.is_square:
        raise DomainError("non-square", "determinant needs a square matrix")
    minors, sign = _minors(m)
    return sign * minors[-1] if len(minors) > m.rows else 0


def rank(m: IntMatrix) -> int:
    """Rank over Q (equivalently over Z): the number of pivots of :func:`_minors`."""
    return len(_minors(m)[0]) - 1


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
    ``D_k`` of one symmetric elimination (:func:`_minors`).  Its steps are
    congruences, so by Sylvester's rule each adds the sign of
    ``D_(k-1) D_k``; with full rank the last minor is det."""
    minors = _minors(m, symmetric=True)[0]
    sigma = sum((x * y > 0) - (x * y < 0) for x, y in zip(minors, minors[1:]))
    return minors[-1] if len(minors) > m.rows else 0, sigma


def signature(m: IntMatrix) -> int:
    """Signature of a symmetric matrix, by :func:`_det_signature`."""
    if not m.is_square:
        raise DomainError("non-square", "signature needs a square matrix")
    return _det_signature(m)[1]


_MAX_DIMENSION = 10**6  # largest dimension parse_matrix_text reads
_MAX_CERTIFICATE = 10**7  # most entries of snf's u and v together: 80 MB of pointers a copy


def parse_matrix_text(text: str) -> IntMatrix:
    """Parse the matrix interchange format: ``rows cols`` then the entries,
    whitespace-separated in row-major order."""
    tokens = text.split()
    if len(tokens) < 2:
        raise DomainError("matrix-syntax", "expected 'rows cols' header")
    nr, nc, *entries = _ints(tokens, "matrix-syntax", "non-integer token")
    if nr < 0 or nc < 0:
        raise DomainError("matrix-syntax", "negative dimensions")
    if max(nr, nc) > _MAX_DIMENSION:
        raise DomainError("too-large", f"dimension {max(nr, nc)} exceeds {_MAX_DIMENSION}")
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
