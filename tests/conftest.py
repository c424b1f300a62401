import random

import pytest

from msg_lab import poly
from msg_lab.errors import UnsupportedCaseError
from msg_lab.gf import GF
from msg_lab.groups import random_invertible
from msg_lab.linalg import Matrix, evaluate_poly_at

# the six fields the randomized batteries rotate through
FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(3, 2)]


@pytest.fixture
def rng():
    return random.Random(987654321)


def near_root_input(field, n, dim_l, rng, alpha_one=None, attempts=200,
                    k=None):
    """(y, k, alpha) with dim ker(y^k - alpha I) = dim_l, or None when no
    draw gives it.  y is a random conjugate of diag(c I, M) with alpha =
    c^k, where M is random or c times one Jordan block; such a block adds
    one dimension to the kernel, which is how dim_l = n - 1 is reached
    over GF(2).  alpha_one forces alpha = 1 (True) or alpha != 1 (False);
    k is drawn from the values <= 6 coprime to p unless given."""
    fixed_k = k
    for attempt in range(attempts):
        k = fixed_k or rng.choice([k for k in range(1, 7) if k % field.p])
        c = rng.randrange(1, field.q)
        alpha = field.pow(c, k)
        if alpha_one is not None and (alpha == field.one) != alpha_one:
            continue
        a = dim_l - attempt % 2
        if a < 0:
            continue
        m = n - a
        if attempt % 2:
            M = Matrix.from_packed(field, [[c if j in (i, i + 1) else 0
                                            for j in range(m)]
                                           for i in range(m)])
        else:
            M = random_invertible(m, field, rng)
        if not a:
            block = M
        elif not m:
            block = Matrix.scalar(field, n, c)
        else:
            block = Matrix.block2(Matrix.scalar(field, a, c),
                                  Matrix.zeros(field, a, m),
                                  Matrix.zeros(field, m, a), M)
        Q = random_invertible(n, field, rng)
        y = Q @ block @ Q.inverse()
        if n - (y.matpow(k) - Matrix.scalar(field, n, alpha)).rank() == dim_l:
            return y, k, alpha
    return None


def primary_blocks_unfiltered(x, k, alpha):
    """primary_blocks before the charpoly filter: every irreducible factor
    of T^k - alpha, and T - 1, is evaluated at x."""
    field = x.field
    target = [field.neg(alpha)] + [field.zero] * (k - 1) + [field.one]
    factors = set(poly.pfactor_distinct(field, tuple(target)))
    factors.add((field.neg(field.one), field.one))
    blocks = []
    total = 0
    for f in sorted(factors, key=lambda t: (len(t), t)):
        ker = evaluate_poly_at(f, x).kernel_basis()
        if ker.ncols:
            blocks.append((f, ker))
            total += ker.ncols
    if total != x.nrows:
        raise UnsupportedCaseError("primary blocks cover %d of %d dimensions"
                                   % (total, x.nrows))
    return blocks
