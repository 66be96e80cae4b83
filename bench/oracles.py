"""Reference answers computed without plumbcalc.

Each function reaches its answer by a different route from the library:
2x2 monodromy products instead of n x n forms, integer continuants and
leaf elimination over Q instead of dense elimination, elimination modulo
primes and modulo the determinant instead of Smith reduction over Z.  A
wrong answer from the library therefore cannot be confirmed by the code
that produced it.  Nothing here imports plumbcalc.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

# ---------------------------------------------------------------- SL(2,Z)


def mul2(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def word_matrix(coeffs, sign=1):
    """``sign * T^{-a_1} S ... T^{-a_n} S`` as a flat (a, b, c, d)."""
    m = (1, 0, 0, 1)
    for a in coeffs:
        m = mul2(m, (a, 1, -1, 0))
    return m if sign > 0 else tuple(-x for x in m)


def trace(m) -> int:
    return m[0] + m[3]


def inverse2(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def chain_matrix(framings, eps=1):
    """``eps * T^{f_1} S ... T^{f_n} S`` for a framed chain."""
    return word_matrix([-f for f in framings], eps)


# ---------------------------------------------------------------- strings


def neg_cf(b) -> Fraction:
    """b_1 - 1/(b_2 - 1/(...)) evaluated from the right."""
    val = Fraction(b[-1])
    for x in reversed(b[:-1]):
        val = x - 1 / val
    return val


def is_dual_pair(b, dual) -> bool:
    """cf(b) = p/q must give cf(dual) = p/(p-q)."""
    if not dual or any(x < 2 for x in dual):
        return False
    pq = neg_cf(b)
    return neg_cf(dual) == Fraction(pq.numerator, pq.numerator - pq.denominator)


def family_blocks(k, xs):
    """Blocks (3 + x_i, 2^[x_{i+1}]) in the order i = 1, 3, ..., 2k+1, 2, 4,
    ..., 2k with indices cyclic mod 2k+1 (1-based)."""
    n = 2 * k + 1
    order = [(1 + 2 * j - 1) % n for j in range(n)]
    return [(3 + xs[i], xs[(i + 1) % n]) for i in order]


def family_word(k, xs) -> tuple[int, ...]:
    out: list[int] = []
    for head, run in family_blocks(k, xs):
        out.append(head)
        out.extend([2] * run)
    return tuple(out)


def family_split(k, xs):
    """The dual segments (d, e) of a family string: the first k+1 blocks
    with the last block's run dropped, ends decremented, and the rest."""
    blocks = family_blocks(k, xs)
    first: list[int] = []
    for head, run in blocks[:k]:
        first.append(head)
        first.extend([2] * run)
    first.append(blocks[k][0])
    second = [2] * blocks[k][1]
    for head, run in blocks[k + 1:]:
        second.append(head)
        second.extend([2] * run)
    if len(first) == 1:
        d = (first[0] - 2,)
    else:
        d = (first[0] - 1, *first[1:-1], first[-1] - 1)
    return d, tuple(second)


# ---------------------------------------------------------------- groups


def describe_group(free_rank, torsion) -> str:
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append(f"Z^{free_rank}")
    parts.extend(f"Z/{f}" for f in torsion)
    return "+".join(parts) if parts else "0"


def smith_2x2(m):
    """Invariant factors of a 2x2 integer matrix, zeros last."""
    a, b, c, d = m
    g = gcd(gcd(a, b), gcd(c, d))
    if g == 0:
        return (0, 0)
    return (g, abs(a * d - b * c) // g)


def group_from_factors(factors):
    """(free_rank, torsion) of Z^r / diag(factors) where r = len(factors)."""
    return (
        sum(1 for f in factors if f == 0),
        tuple(f for f in factors if f > 1),
    )


def cycle_homology(weights, sign):
    """H_1 of the torus bundle of a pure cycle plumbing: Z + coker(A - I),
    with A the signed monodromy product of T^{w} S over the cycle."""
    a, b, c, d = word_matrix([-w for w in weights], sign)
    free, torsion = group_from_factors(smith_2x2((a - 1, b, c, d - 1)))
    return free + 1, torsion


# ---------------------------------------------------------------- trees


def tree_det_signature(weights, edges):
    """Determinant and signature of a tree's form by leaf elimination over Q.

    A vertex whose Schur pivot is zero pairs with its parent into a
    hyperbolic block (det -1, signature 0) that decouples from the rest;
    a second zero child of the same parent is an isolated zero (det 0).
    """
    n = len(weights)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    order, parent, seen = [], [-1] * n, [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for c in adj[v]:
            if not seen[c]:
                seen[c] = True
                parent[c] = v
                stack.append(c)
    pivot: list[Fraction | None] = [None] * n  # None: paired off
    det, sig = Fraction(1), 0
    for v in reversed(order):
        x = Fraction(weights[v])
        zeros = 0
        for c in adj[v]:
            if c == parent[v] or pivot[c] is None:
                continue
            if pivot[c] == 0:
                zeros += 1
            else:
                x -= 1 / pivot[c]
                det *= pivot[c]
                sig += 1 if pivot[c] > 0 else -1
        if zeros:
            det = -det if zeros == 1 else det * 0
            pivot[v] = None
        else:
            pivot[v] = x
    root = pivot[order[0]]
    if root is not None:
        det *= root
        sig += (root > 0) - (root < 0)
    assert det.denominator == 1
    return int(det), sig


def path_det(weights) -> int:
    """Continuant of a path with positive edges: D_k = w_k D_{k-1} - D_{k-2}."""
    prev, cur = 0, 1
    for w in weights:
        prev, cur = cur, w * cur - prev
    return cur


def prefix_continuants(weights, start=(0, 1)):
    """All continuants D_1..D_n of the prefixes of a path, given (D_{-1}, D_0)."""
    prev, cur = start
    out = []
    for w in weights:
        prev, cur = cur, w * cur - prev
        out.append(cur)
    return out


def canonical_key(vertices, edges) -> str:
    """The graph key used in ledger descriptors: vertices renumbered by a
    breadth-first traversal with sorted neighbours, started from the sorted
    names, then weights and sorted edges rendered."""
    adj: dict[str, list[str]] = {name: [] for name, _ in vertices}
    for u, v, _ in edges:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    ident: dict[str, int] = {}
    for start in sorted(adj):
        if start in ident:
            continue
        ident[start] = len(ident)
        frontier = [start]
        while frontier:
            nxt = []
            for cur in frontier:
                for nb in sorted(adj[cur]):
                    if nb not in ident:
                        ident[nb] = len(ident)
                        nxt.append(nb)
            frontier = nxt
    weight = dict(vertices)
    vparts = ",".join(
        f"v{ident[name]}:{weight[name]}" for name in sorted(ident, key=ident.get)
    )
    eparts = ",".join(
        sorted(
            f"v{min(ident[u], ident[v])}-v{max(ident[u], ident[v])}:{'+' if s > 0 else '-'}"
            for u, v, s in edges
        )
    )
    return f"{vparts}|{eparts}" if eparts else vparts


# ---------------------------------------------------------------- matrices


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(r) for r in zip(*a)]


def _is_probable_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _primes_below(top: int):
    p = top - 1
    while True:
        if _is_probable_prime(p):
            yield p
        p -= 2


def det_mod(rows, p: int) -> int:
    a = [[x % p for x in r] for r in rows]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        pk = a[k][k]
        det = det * pk % p
        inv = pow(pk, -1, p)
        rk = a[k]
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                ri = a[i]
                for j in range(k, n):
                    ri[j] = (ri[j] - f * rk[j]) % p
    return det % p


def det_exact(rows) -> int:
    """Exact determinant by elimination modulo primes of 61 bits, combined by
    the Chinese remainder theorem past twice Hadamard's bound."""
    n = len(rows)
    if n == 0:
        return 1
    bound = 1
    for r in rows:
        bound *= isqrt(sum(x * x for x in r)) + 1
    residue, modulus = 0, 1
    for p in _primes_below(1 << 61):
        r = det_mod(rows, p)
        # combine residue mod modulus with r mod p
        t = (r - residue) * pow(modulus, -1, p) % p
        residue += modulus * t
        modulus *= p
        if modulus > 2 * bound:
            break
    return residue - modulus if residue > modulus // 2 else residue


def is_unimodular(rows) -> bool:
    """det = +-1, tested modulo four 61-bit primes: exact up to a chance of
    about 2^-240, and cheap however large the entries are."""
    return all(det_mod(rows, p) in (1, p - 1) for p in UNIMODULAR_PRIMES)


UNIMODULAR_PRIMES = tuple(p for p, _ in zip(_primes_below(1 << 61), range(4)))


def _xgcd(a: int, b: int):
    """(u, v, g) with u*a + v*b = g = gcd(a, b) >= 0, and (1, 0, a) whenever
    a > 0 divides b, so that a pivot that already divides is never moved."""
    if a > 0 and b % a == 0:
        return 1, 0, a
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    if a < 0:
        return -u0, -v0, -a
    return u0, v0, a


def invariant_factors(rows) -> tuple[int, ...]:
    """Smith invariant factors of a nonsingular square matrix, ascending.

    Elimination over Z/R, with R starting at |det| and divided by each
    factor as it is split off (Cohen, GTM 138, Algorithm 2.4.14): every
    entry stays below |det|, so the sizes never explode.
    """
    n = len(rows)
    big_r = abs(det_exact(rows))
    if big_r == 0:
        raise ValueError("invariant_factors needs a nonsingular matrix")
    a = [[x % big_r for x in r] for r in rows]
    out = []
    for i in range(n - 1, -1, -1):
        while True:
            dirty = False
            for j in range(i):  # clear row i by column operations
                if a[i][j] % big_r == 0:
                    continue
                u, v, g = _xgcd(a[i][i], a[i][j])
                p, q = a[i][i] // g, a[i][j] // g
                for row in a[: i + 1]:
                    ci, cj = row[i], row[j]
                    row[i] = (u * ci + v * cj) % big_r
                    row[j] = (p * cj - q * ci) % big_r
            for j in range(i):  # clear column i by row operations
                if a[j][i] % big_r == 0:
                    continue
                u, v, g = _xgcd(a[i][i], a[j][i])
                p, q = a[i][i] // g, a[j][i] // g
                ri, rj = a[i], a[j]
                for k in range(i + 1):
                    xi, xj = ri[k], rj[k]
                    ri[k] = (u * xi + v * xj) % big_r
                    rj[k] = (p * xj - q * xi) % big_r
                dirty = True
            if dirty and any(a[i][j] % big_r for j in range(i)):
                continue
            g = gcd(a[i][i], big_r)
            bad = next(
                (k for k in range(i) if any(a[k][l] % g for l in range(i))), None
            )
            if bad is None:
                break
            a[i] = [(x + y) % big_r for x, y in zip(a[i], a[bad])]
        d = gcd(a[i][i], big_r)
        out.append(d)
        big_r //= d
        if big_r == 1:  # the remaining factors multiply to 1
            out.extend([1] * i)
            break
        a = [[x % big_r for x in r[:i]] for r in a[:i]]
    return tuple(out)
