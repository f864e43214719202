"""Pure Python mod-p matrix kernels.

The two hot operations (matrix product and reduced row echelon form);
the test suite checks them against schoolbook and Gauss-Jordan
references.

Matrices are flat row-major lists of ints already reduced mod p.
"""

from __future__ import annotations


def mat_mul(p, m, n, k, a, b):
    """Return the m-by-k product of a (m-by-n) and b (n-by-k) mod p.

    Args:
        p: prime modulus.
        m, n, k: shape parameters.
        a: flat row-major entries of the left factor, length m*n.
        b: flat row-major entries of the right factor, length n*k.

    Returns:
        Flat row-major list of length m*k.
    """
    out = [0] * (m * k)
    for i in range(m):
        row = a[i * n : (i + 1) * n]
        base = i * k
        for t in range(n):
            x = row[t]
            if x == 0:
                continue
            off = t * k
            for j in range(k):
                out[base + j] += x * b[off + j]
        for j in range(k):
            out[base + j] %= p
    return out


def rref(p, rows, cols, data):
    """Reduce a rows-by-cols matrix mod p to reduced row echelon form.

    Args:
        p: prime modulus.
        rows, cols: shape parameters.
        data: flat row-major entries, length rows*cols.

    Returns:
        Pair (entries, pivots): the reduced matrix as a flat list of the
        same shape, and the list of pivot column indices in order.
    """
    a = [list(data[i * cols : (i + 1) * cols]) for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = -1
        for i in range(r, rows):
            if a[i][c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], p - 2, p)
        if inv != 1:
            arow = a[r]
            for j in range(c, cols):
                arow[j] = arow[j] * inv % p
        arow = a[r]
        for i in range(rows):
            if i == r:
                continue
            x = a[i][c]
            if x == 0:
                continue
            irow = a[i]
            for j in range(c, cols):
                irow[j] = (irow[j] - x * arow[j]) % p
        pivots.append(c)
        r += 1
    flat = []
    for row in a:
        flat.extend(row)
    return flat, pivots
