"""The antisymmetrized sine basis on the reference triangle, and its assembly.

On the triangle of ``billiard``'s chart the antisymmetrized sine products
h_{n,m} form a complete Dirichlet basis; a ``sector`` here is that chart, a
``billiard.FlattenedSector``, read through its ``grid_weights`` alone.
Quadrature is tensor Gauss-Legendre collapsed onto the triangle at the
(-1, 1) vertex, which keeps t a function of one quadrature coordinate.
Both matrices come from four-tensors over the sine indices, which are
never stored.  By the product-to-sum identities, a product of two
s-factors (sines or their derivatives) at p and q is a sum of
trig(j alpha) at j = |p - q| and p + q, and likewise on the t side, so
every term is fixed by one (2n+1) x (2n+1) table of grid moments of
trig(a alpha) trig(b theta).  The tables are summed over xi in blocks of
eta columns; then each slab T[p, :, :, :] is one sparse t-side map times
the s-side rows of the tables, and is gathered onto the basis pairs
before the next is built.  A and B are built at once, B on a helper
thread, since their heavy calls (the sparse products, the gathers and the
ufuncs) release the GIL.

When the chart is mirror-symmetric under (s, t) -> (t, s), as the octant,
the A3 Coxeter sector and every palindromic mass sequence through
``flatten_sector`` are, h_(n,m)(t, s) = (-1)^(n+m+1) h_(n,m)(s, t), so the
forms vanish between pairs whose n + m differ in parity.  Such a chart is
assembled and solved as its two parity blocks of about N/2 functions, one
block at a time from one set of moment tables, each bit for bit its
sub-block of the whole pencil; a slab of a parity block is built only where
that block reads it.  The chart alone decides.  The basis pairs are ordered
by m, in each parity block too, so a lower truncation n' is the leading
block of any larger one.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_legendre

from .errors import QuadratureError

__all__ = [
    "BasisTruncation", "basis_size", "quadrature_floor", "chart_blocks", "moment_tables", "assemble",
]


@dataclass(frozen=True)
class BasisTruncation:
    n_max: int
    # (n, m), 1 <= n < m <= n_max, m-major: the pairs of a lower truncation
    # n' are the first n'(n'-1)/2
    index_pairs: tuple = field(init=False)

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError(f"n_max must be at least 2, got {self.n_max}")
        pairs = tuple((n, m) for m in range(2, self.n_max + 1) for n in range(1, m))
        object.__setattr__(self, "index_pairs", pairs)

    def __len__(self):
        return len(self.index_pairs)


def basis_size(n_max: int) -> int:
    """Basis functions of truncation n_max: its n_max (n_max - 1) / 2 sine pairs."""
    return len(BasisTruncation(n_max))


# side of the square tiles ``_symmetrize`` walks, each with its mirror: at
# N 4005 on two cores one call took 0.08-0.10 s, against 0.12-0.13 s with
# tiles of 64 or 256 and 0.15-0.18 s for strips of 16 rows that read their
# mirror column by column
_TILE = 128
# Gauss-Legendre points a side of the grid that ``_mirror_symmetric`` checks
_MIRROR_ORDER = 24
# eta columns of the quadrature grid per block of alpha moments: bounds the
# trig temporaries at a few MB at n_max 90
_ETA_BLOCK = 8
# Gauss-Legendre order per truncation index: the floor of ``assemble`` and the
# order of every study.  Higher orders move no level by more than about 2e-7
# mean spacings, over mass ratios from 1e-6 to 1e3.
_QUADRATURE_FACTOR = 3


def quadrature_floor(n_max: int) -> int:
    """Gauss-Legendre order of truncation n_max: ``assemble``'s floor, a study's order."""
    return _QUADRATURE_FACTOR * n_max


def _quadrature_grid(order: int):
    """Tensor Gauss-Legendre grid collapsed at the (-1, 1) vertex.

    Returns s (Q,Q), t (Q,), and the full quadrature weight including the
    triangle collapse Jacobian 4 (1 - eta), laid out as [xi, eta].
    """
    x, w = roots_legendre(order)
    x01 = 0.5 * (x + 1.0)
    w01 = 0.5 * w
    eta = x01
    xi = x01
    t = -1.0 + 2.0 * eta
    s = -1.0 + 2.0 * xi[:, None] * (1.0 - eta)[None, :]
    weight = (w01[:, None] * w01[None, :]) * (4.0 * (1.0 - eta))[None, :]
    return s, t, weight


def _trig_multiples(angle: np.ndarray, count: int) -> tuple:
    """cos(a x) and sin(a x) for a = 0..count-1 (count >= 2), on a new leading axis.

    One cos and one sin per point; the higher multiples follow from the
    Chebyshev recurrence f_{a+1} = 2 cos(x) f_a - f_{a-1}, which both
    satisfy.
    """
    cos_a, sin_a = np.empty((2, count) + angle.shape)
    cos_a[0], sin_a[0] = 1.0, 0.0
    cos_a[1], sin_a[1] = np.cos(angle), np.sin(angle)
    twice_cos = 2.0 * cos_a[1]
    for a in range(1, count - 1):
        for table in (cos_a, sin_a):
            np.multiply(twice_cos, table[a], out=table[a + 1])
            table[a + 1] -= table[a - 1]
    return cos_a, sin_a


def moment_tables(sector, n_max: int, order: int) -> dict:
    """W[a, b] = sum over the grid of w trig(a alpha) trig(b theta), a, b = 0..2 n_max.

    alpha = pi (s+1)/2 and theta = pi (t-1)/2 are the arguments of the s-
    and t-direction sine factors.  The sqrt(g), g_ss and g_tt weights give
    cos-cos tables, the g_st weight a sin-sin table.  The alpha moments are
    summed over xi in blocks of eta columns, so no (2 n_max + 1, Q, Q) table
    of trig values is ever alive.
    """
    s, t, quad_w = _quadrature_grid(order)
    w_b, w_ss, w_st, w_tt = sector.grid_weights(s, t, quad_w)
    width = 2 * n_max + 1
    alpha = (0.5 * math.pi * (s + 1.0)).T  # [eta, xi]
    theta = 0.5 * math.pi * (t - 1.0)
    # [eta, xi, weight]: the three cos weights, then the sin weight
    weights = np.stack([w_b, w_ss, w_tt, w_st], axis=-1).transpose(1, 0, 2)
    moments = np.empty((order, width, 4))  # [eta, a, weight]
    for start in range(0, order, _ETA_BLOCK):
        cols = slice(start, start + _ETA_BLOCK)
        cos_a, sin_a = _trig_multiples(alpha[cols], width)  # [a, eta, xi]
        moments[cols, :, :3] = cos_a.transpose(1, 0, 2) @ weights[cols, :, :3]
        moments[cols, :, 3:] = sin_a.transpose(1, 0, 2) @ weights[cols, :, 3:]
    # Q (2 n_max + 1) direct calls: cheap, and closer to exact than the recurrence
    phase = theta[:, None] * np.arange(width)[None, :]  # [eta, b]
    cos_t, sin_t = np.cos(phase), np.sin(phase)
    return {
        "b": moments[:, :, 0].T @ cos_t,
        "ss": moments[:, :, 1].T @ cos_t,
        "tt": moments[:, :, 2].T @ cos_t,
        "st": moments[:, :, 3].T @ sin_t,
    }


def _product_to_sum(d1: int, d2: int, p, q) -> tuple:
    """Coefficients (u, v) of f1_p f2_q = u trig(|p-q| x) + v trig((p+q) x).

    f_p(x) is sin(p x), or for d = 1 its chart derivative (pi/2) p cos(p x);
    trig is cos when d1 = d2 and sin otherwise.
    """
    scale = 0.5 * (0.5 * math.pi * p) ** d1 * (0.5 * math.pi * q) ** d2
    u = scale if d1 == d2 else (d2 - d1) * np.sign(p - q) * scale
    v = -scale if d1 == d2 == 0 else scale
    return u, v


def _mirror_symmetric(sector) -> bool:
    """Whether the chart's operator commutes with the swap (s, t) -> (t, s).

    The swap maps the triangle onto itself.  It is a symmetry of the forms
    when it maps sqrt(g) to itself, g_ss to g_tt and g_st to itself.  The
    largest miss over a collapsed Gauss grid, relative to the largest
    weight, is below 2e-15 on the mirror-symmetric charts measured and at
    least 0.05 on the asymmetric ones, so 1e-12 sits in a gap of ten
    decades.  The weights are algebraic functions of (s, t) of low degree,
    so an asymmetry shows on a small grid, which costs about a millisecond.
    """
    s, t, _ = _quadrature_grid(_MIRROR_ORDER)
    t = np.broadcast_to(t, s.shape)
    sqrt_g, g_ss, g_st, g_tt = sector.grid_weights(s, t, 1.0)
    m_sqrt_g, m_ss, m_st, m_tt = sector.grid_weights(t, s, 1.0)
    pairs = ((sqrt_g, m_sqrt_g), (g_ss, m_tt), (g_st, m_st), (g_tt, m_ss))
    miss = max(float(np.abs(here - there).max()) for here, there in pairs)
    scale = max(float(np.abs(here).max()) for here, _ in pairs)
    return miss <= 1e-12 * scale


def chart_blocks(sector, trunc: BasisTruncation) -> tuple:
    """The pairs of ``trunc`` the forms couple, as index arrays in m-major order.

    Under the swap (s, t) -> (t, s), alpha goes to theta + pi and theta to
    alpha - pi, so h_(n,m)(t, s) = (-1)^(n+m+1) h_(n,m)(s, t).  On a
    mirror-symmetric chart the forms vanish between pairs whose n + m differ
    in parity, and the pairs fall into two blocks, n + m even and then odd
    (one block when the other is empty, at n_max 2); any other chart has the
    one block of the whole basis.
    """
    if not _mirror_symmetric(sector):
        return (np.arange(len(trunc)),)
    parity = np.array(trunc.index_pairs).sum(axis=1) % 2
    return tuple(block for block in (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1))
                 if len(block))


def _slab_plan(c_map, n: int, n_i: np.ndarray, m_i: np.ndarray) -> tuple:
    """How ``_pair_matrix`` builds and gathers the slabs of one block of pairs.

    Returns (parity, step, maps, lower, upper, by_n, first).  A block of
    mixed n + m reads every slab row r and column (s, q), the whole product
    of ``c_map``.  A parity block (n + m = parity mod 2) reads the rows
    r = start + 2 j, start = parity + p (mod 2), and in them the columns
    with s + q = parity (mod 2), so its slab is two products, s even and s
    odd, each of a quarter of ``c_map``'s rows with every second q; the
    entries it reads have the same arithmetic either way.  ``maps[start]``
    lists the products as (rows of ``c_map``, columns q); ``lower`` and
    ``upper`` are the slab columns of (s, q) = (m_i, n_i) and (n_i, m_i);
    ``by_n[p]`` are the block rows with n_i = p, and ``first[p]`` where the
    rows with m_i = p start (m_i ascends).
    """
    first = np.searchsorted(m_i, np.arange(n + 1))
    by_n = [np.flatnonzero(n_i == p) for p in range(n)]
    mixed = np.unique((n_i + m_i) % 2)
    if len(mixed) == 2:
        return 0, 1, {0: [(c_map, slice(None))]}, m_i * n + n_i, n_i * n + m_i, by_n, first
    parity = int(mixed[0])
    rows = np.arange(n * n).reshape(n, n)  # the c_map row of (r, s)
    maps = {start: [(c_map[rows[start::2, s_par::2].ravel()], slice((parity + s_par) % 2, None, 2))
                    for s_par in (0, 1)]
            for start in (0, 1)}
    # (s, q) with s + q = parity sits in the s-parity product, at
    # [s // 2, q // 2] of its (s, q) layout
    halves = np.array([len(range(0, n, 2)), len(range(1, n, 2))])

    def column(s, q):
        offset = np.where(s % 2, halves[0] * halves[parity], 0)
        return offset + (s // 2) * halves[q % 2] + q // 2

    return parity, 2, maps, column(m_i, n_i), column(n_i, m_i), by_n, first


def _pair_matrix(terms, trunc: BasisTruncation, block: np.ndarray) -> np.ndarray:
    """Matrix of the antisymmetrized basis h_(n,m) on one block of pairs, from moment tables.

    Each term is (d1, d2, d3, d4, W): the four-tensor
    T[p,q,r,s] = sum W-weighted f1_p f2_q g1_r g2_s, whose s-factors f and
    t-factors g are sines (d = 0) or their derivatives (d = 1).  By product
    to sum, T[p,q,r,s] = sum_b G[(p,q), b] C[(r,s), b]: G reads the rows
    |p-q| and p+q of W, and C is sparse with two entries per term and row.
    T is built one slab T[p,:,:,:] at a time, laid out [r, s, q].  Entry
    (i, j) is D_i[n_j,m_j] - D_i[m_j,n_j] with
    D_i = T[n_i,:,m_i,:] - T[m_i,:,n_i,:], so slab p adds to the rows with
    n_i = p and subtracts from those with m_i = p.  The block is an
    ascending index array of pairs, the whole basis or one parity class of
    ``chart_blocks``, and builds only the slab entries it reads
    (``_slab_plan``), so an entry has the same arithmetic in any block.
    """
    # imported here, so that the commands that never assemble do not load it
    from scipy.sparse import csr_array

    n = trunc.n_max
    width = 2 * n + 1
    idx = np.arange(1, n + 1)
    p_grid, q_grid = np.meshgrid(idx, idx, indexing="ij")
    dist, total = np.abs(p_grid - q_grid), p_grid + q_grid
    g_side, c_cols, c_vals = [], [], []
    for i, (d1, d2, d3, d4, table) in enumerate(terms):
        u, v = _product_to_sum(d1, d2, p_grid, q_grid)
        g_side.append((table, u[:, :, None], v[:, :, None]))
        u, v = _product_to_sum(d3, d4, p_grid, q_grid)
        c_cols += [i * width + dist.ravel(), i * width + total.ravel()]
        c_vals += [u.ravel(), v.ravel()]
    c_rows = np.tile(np.arange(n * n), len(c_cols))
    c_map = csr_array(
        (np.concatenate(c_vals), (c_rows, np.concatenate(c_cols))),
        shape=(n * n, len(terms) * width),
    )
    n_all, m_all = np.array(trunc.index_pairs).T - 1
    parity, step, maps, lower, upper, by_n, first = _slab_plan(
        c_map, n, n_all[block], m_all[block])
    out = np.empty((len(block), len(block)))
    for p in range(n):
        # gathered as contiguous rows of W, then transposed: half the cost
        # of gathering the strided columns of W^T
        g = np.concatenate([
            (table[dist[p]] * u[p] + table[total[p]] * v[p]).T
            for table, u, v in g_side
        ])  # [(term, b), q]
        start = (parity + p) % 2 if step == 2 else 0
        # T[p, q, r, s] at [j, the plan's column of (s, q)], r = start + step j
        parts = [(c_part @ g[:, q_cols]).reshape(len(range(start, n, step)), -1)
                 for c_part, q_cols in maps[start]]
        slab = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        z = np.take(slab, lower, axis=1)
        z -= np.take(slab, upper, axis=1)
        # slab p is the first to reach the rows with n_i = p, which read
        # r = m_i > p; the rows with m_i = p read r = n_i < p
        out[by_n[p]] = z[(p - start) // step + 1:]
        out[first[p]:first[p + 1]] -= z[:(p - start + step - 1) // step]
        # freed before the next slab is built: A's and B's builds run at
        # once, and each then holds one slab and its gather, not two
        del parts, slab, z
    return out


def _symmetrize(mat: np.ndarray, name: str) -> None:
    """Replace mat by (mat + mat.T) / 2 in place, tile by tile.

    Raises QuadratureError if mat and mat.T differ by more than 1e-10 of
    the largest entry.
    """
    asym = scale = 0.0
    for start in range(0, len(mat), _TILE):
        stop = start + _TILE
        for col in range(0, stop, _TILE):
            # a tile of the lower triangle and its mirror, which are one
            # tile on the diagonal; no earlier tile wrote into either
            lower, upper = mat[start:stop, col:col + _TILE], mat[col:col + _TILE, start:stop].T
            asym = max(asym, float(np.abs(lower - upper).max()))
            scale = max(scale, float(np.abs(lower).max()), float(np.abs(upper).max()))
            lower[...] = upper[...] = 0.5 * (lower + upper)
    asym /= max(scale, 1e-300)
    if asym > 1e-10:
        raise QuadratureError(f"{name} asymmetry {asym:.2e} exceeds 1e-10")


def _pencil(w: dict, trunc: BasisTruncation, block: np.ndarray) -> tuple:
    """(A, B) on one block of pairs, from the moment tables ``w``.

    B is built and symmetrized on one helper thread while this thread
    builds A, each with the arithmetic of a serial build, and the helper is
    joined before this returns or raises.
    """
    def overlap():
        b_mat = _pair_matrix([(0, 0, 0, 0, w["b"])], trunc, block)
        _symmetrize(b_mat, "B")
        return b_mat

    with ThreadPoolExecutor(max_workers=1) as helper:
        b_job = helper.submit(overlap)
        a_mat = _pair_matrix([
            (1, 1, 0, 0, w["ss"]),
            (1, 0, 0, 1, w["st"]),
            (0, 1, 1, 0, w["st"]),
            (0, 0, 1, 1, w["tt"]),
        ], trunc, block)
        _symmetrize(a_mat, "A")
        return a_mat, b_job.result()


def assemble(sector, trunc: BasisTruncation, quadrature_order: int,
             blocks=None, moments=None):
    """Stiffness and overlap matrices of the weighted Galerkin problem.

    B is one term, (sin, sin | sin, sin) under sqrt(g).  A sums the g_ss
    term, the g_st cross term, that term's (1,0,3,2) transpose (what
    cross + cross.T is after the gather) and the g_tt term.  A and B are
    built at once, on two threads (``_pencil``).

    ``blocks`` None builds the whole basis and returns (A, B).  Otherwise
    it is a sequence of ascending index arrays into ``trunc.index_pairs``,
    each the whole basis or one parity class (``chart_blocks``), and one
    (A, B) is returned per block, built one after the other, each bit for
    bit the rows and columns of its pairs in the whole-basis (A, B).
    ``moments`` are ``moment_tables(sector, trunc.n_max, quadrature_order)``,
    computed here when None: a caller that builds its blocks one call at a
    time passes the one set of tables to every call.
    """
    floor = quadrature_floor(trunc.n_max)
    if quadrature_order < floor:
        raise QuadratureError(
            f"quadrature_order {quadrature_order} < {_QUADRATURE_FACTOR} n_max = {floor}"
        )
    w = moment_tables(sector, trunc.n_max, quadrature_order) if moments is None else moments
    if blocks is None:
        return _pencil(w, trunc, np.arange(len(trunc)))
    return [_pencil(w, trunc, block) for block in blocks]
