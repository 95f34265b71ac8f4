"""The hinge dual's interior-point solver, every lambda of a grid in lockstep.

The dual of the hinge surrogate (``classifier.train_hinge``) is the box
QP ``min alpha^T Q alpha / 2 - sum(alpha)`` over ``0 <= alpha <= 1/n``, one
variable per sibling pair, with ``Q`` block-diagonal by parent.
:func:`lockstep` runs a Mehrotra predictor-corrector method on it for a
whole grid of lambdas at once: each round takes one step of every lambda
still running.  Parents are grouped into packs (:func:`_hinge_packs`); a
pack of small blocks solves its Newton systems for every lambda in one
stacked call, and a large block is solved one lambda at a time, so a
grid holds one lambda's large matrices at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

HINGE_TOL = 1e-6  # duality gap train_hinge certifies, relative to the objective at A = 0
STEP_FRACTION = 0.99  # share of the way to the boundary an interior-point step takes


def _solve(K, R, failed):
    """``x`` solving ``K[l] x[l] = R[l]`` for each row ``l`` of stacked systems.

    ``K[l]`` may itself be a stack of matrices; each matrix is one LAPACK
    call, as a lone system is.  When some matrix is numerically singular,
    the rows are solved one by one: a row that meets a singular matrix is
    marked in ``failed`` and gets zeros.
    """
    try:
        return np.linalg.solve(K, R[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.zeros_like(R)
        for row in range(len(R)):
            try:
                out[row] = np.linalg.solve(K[row], R[row][..., None])[..., 0]
            except np.linalg.LinAlgError:
                failed[row] = True
        return out


@dataclass(eq=False)
class _Block:
    """One parent's share of the hinge dual, the same for every lambda.

    Parent ``P``'s pairs are ``lo:hi`` of the pairs grouped by parent,
    sample major, ``f - 1`` a sample.  ``samples`` are its samples' rows
    and ``X`` their features, ``t`` and ``s`` each pair's true child and
    sibling as positions among the children ``first .. first + f - 1``,
    and ``kappa`` is the scale of its stack (``classifier._sibling_scale``).
    """

    P: int
    lo: int
    hi: int
    first: int
    f: int
    kappa: float
    samples: np.ndarray
    X: np.ndarray
    t: np.ndarray
    s: np.ndarray


def _hinge_blocks(table, Xa, sample, parent, true, sib, kappa) -> list[_Block]:
    """One :class:`_Block` per parent of pairs grouped by parent (see :func:`lockstep`)."""
    tree = table.tree
    cuts = (np.flatnonzero(np.diff(parent)) + 1).tolist()
    blocks = []
    for lo, hi in zip([0, *cuts], [*cuts, len(parent)]):
        P = int(parent[lo])
        first, f = int(tree.first_children[P]), int(tree.node_fanouts[P])
        rows, t, s = sample[lo : hi : f - 1], true[lo:hi] - first, sib[lo:hi] - first
        blocks.append(_Block(P, lo, hi, first, f, float(kappa[first]), rows, Xa[rows], t, s))
    return blocks


def _packs(blocks, size, slack=2) -> list[list]:
    """``blocks`` ascending by ``size``, in runs that pad to at most ``slack`` times their size.

    A run pads every block to its last, largest one: a block joins the
    run while the run's count times its size stays within ``slack`` times
    the run's total.
    """
    packs, total = [], 0
    for b in sorted(blocks, key=size):
        if packs and (len(packs[-1]) + 1) * size(b) <= slack * (total + size(b)):
            packs[-1].append(b)
            total += size(b)
        else:
            packs.append([b])
            total = size(b)
    return packs


def _slots(blocks, width: int) -> np.ndarray | None:
    """Flat positions of the blocks' pairs when each block pads to ``width`` pairs.

    None when no block needs padding.
    """
    if all(b.hi - b.lo == width for b in blocks):
        return None
    return np.concatenate([j * width + np.arange(b.hi - b.lo) for j, b in enumerate(blocks)])


def _padded(R, slots, size: int, fill: float = 0.0) -> np.ndarray:
    """Rows ``R`` placed at ``slots`` of ``size`` columns, ``fill`` elsewhere."""
    if slots is None:
        return R
    out = np.full((len(R), size), fill)
    out[:, slots] = R
    return out


class _NodeRows:
    """Node rows ``G_P`` and pair margins of a pack of blocks of one fan-out.

    Every block pads to the most samples of the pack, its features
    gathered from ``Xa`` as they are needed.  A pair puts ``+alpha`` on its
    true child and ``-alpha`` on its sibling, so ``G_P = W X~_P`` with
    ``W`` the block's signed child-by-sample scatter; ``C_P = kappa_P G_P /
    2 lam`` are its children's coefficients and a pair's margin is the
    gap of its two children's scores ``C_P X~_P^T``.
    No node-by-sample scatter and no ``(n, q + 1)`` score matrix are formed.
    """

    def __init__(self, blocks, Xa):
        f, n = blocks[0].f, max(len(b.X) for b in blocks)
        self.shape, self.kappa = (len(blocks), f, n), np.array([b.kappa for b in blocks])
        self.Xa, self.rows_of = Xa, np.zeros((len(blocks), n), dtype=np.intp)
        sib, true = [], []
        for j, b in enumerate(blocks):
            self.rows_of[j, : len(b.X)] = b.samples  # padding reads row 0 with weight 0
            local = np.arange(b.hi - b.lo) // (f - 1)  # each pair's sample in the block
            sib.append((j * f + b.s) * n + local)
            true.append((j * f + b.t) * n + local)
        self.sib, self.true = np.concatenate(sib), np.concatenate(true)
        self.starts = np.arange(0, len(self.sib), f - 1)  # each (block, sample)'s first pair
        self.kids = np.concatenate([np.arange(b.first, b.first + f) for b in blocks])

    def rows(self, alpha, X):
        """``G_P`` of every block at dual rows ``alpha``, ``(L, blocks, f, p + 1)``."""
        W = np.zeros((len(alpha), int(np.prod(self.shape))))
        W[:, self.sib] = -alpha
        W[:, self.true[self.starts]] = np.add.reduceat(alpha, self.starts, axis=1)
        return W.reshape(len(alpha), *self.shape) @ X

    def margins(self, alpha, lams):
        """The pairs' margins at dual rows ``alpha`` of ``lams``."""
        X = self.Xa[self.rows_of]
        G = self.rows(alpha, X) * (self.kappa / (2.0 * lams[:, None]))[:, :, None, None]
        N = (G @ X.transpose(0, 2, 1)).reshape(len(alpha), -1)
        return N[:, self.true] - N[:, self.sib]

    def node_rows(self, alpha, out):
        """Write ``G_P`` at dual rows ``alpha`` into the children's rows of ``out``."""
        G = self.rows(alpha, self.Xa[self.rows_of])
        out[:, self.kids] = G.reshape(len(alpha), -1, G.shape[-1])


class _PairSpace:
    """Newton solver of a pack of blocks in pair space, ``K_P + diag(sig)``.

    ``K_P = kappa_P / 2 lam * (U U^T) o (X~ X~^T)`` over a block's pairs,
    ``U`` the child indicator of the true node minus that of the sibling:
    on a regular simplex two gaps meet as ``kappa_P (u_k . u_l)``.  The
    pairs are sample major, ``f - 1`` a sample, so the feature Gram scales
    the pattern ``(U U^T) o (X~ X~^T)`` as a broadcast over a 4-D view.
    The patterns serve every lambda: they are padded with an identity to
    the largest order and stacked once, and a system is solved scaled by
    ``2 lam / kappa_P``, so only the diagonal changes between iterations
    and lambdas.  A stacked pack solves on copies and keeps its patterns,
    which also give its margins ``Q alpha``; a lone large block, solved
    one lambda at a time, sets its pattern's diagonal in place.
    """

    def __init__(self, blocks, stacked: bool):
        m = max(b.hi - b.lo for b in blocks)
        self.stacked, self.K = stacked, np.zeros((len(blocks), m, m))
        self.K.reshape(len(blocks), m * m)[:, :: m + 1] = 1.0  # the padding's identity
        for j, b in enumerate(blocks):
            U = np.eye(b.f)[b.t] - np.eye(b.f)[b.s]
            K, n, d = U @ U.T, len(b.X), b.f - 1
            K.reshape(n, d, n, d)[...] *= (b.X @ b.X.T)[:, None, :, None]
            self.K[j, : len(K), : len(K)] = K
        self.slots = _slots(blocks, m)
        at = np.arange(len(blocks) * m) if self.slots is None else self.slots
        self.diag_at = at // m * (m * m) + at % m * (m + 1)
        self.diag = self.K.reshape(-1)[self.diag_at]
        self.kappa = np.concatenate([np.full(b.hi - b.lo, b.kappa) for b in blocks])

    def factor(self, lams, sig):
        """A solve of ``(K_P + diag(sig[l])) x = R[l]`` for each row ``l``, as ``lams``."""
        L, (nb, m, _) = len(lams), self.K.shape
        scale = 2.0 * lams[:, None] / self.kappa
        in_place = L == 1 and not self.stacked
        K = self.K[None] if in_place else np.repeat(self.K[None], L, axis=0)
        K.reshape(L, -1)[:, self.diag_at] = self.diag + sig * scale

        def solve(R, failed):
            x = _solve(K, _padded(R * scale, self.slots, nb * m).reshape(L, nb, m), failed)
            x = x.reshape(L, nb * m)
            return x if self.slots is None else x[:, self.slots]

        return solve

    def margins(self, alpha, lams):
        """The pairs' margins ``Q alpha`` at dual rows ``alpha`` of ``lams`` (stacked packs)."""
        L, (nb, m, _) = len(alpha), self.K.shape
        y = (self.K @ _padded(alpha, self.slots, nb * m).reshape(L, nb, m, 1)).reshape(L, nb * m)
        y = y if self.slots is None else y[:, self.slots]
        return y * (self.kappa / (2.0 * lams[:, None]))


def _gap_vectors(stack, t):
    """``(samples, f - 1, f - 1)`` gaps ``stack[t] - stack[s]`` of each true child ``t``,
    one per sibling ``s`` in order, on the parent's coordinates."""
    f, d = stack.shape
    others = np.arange(d) + (np.arange(d) >= np.arange(f)[:, None])  # siblings of each child
    return (stack[:, None, :] - stack[others])[t]


class _CoefStack:
    """Newton solver of a pack of small blocks in coefficient space, by Woodbury.

    A pair's gap row is ``Z_k = d_k (x) x~_k``, ``d_k`` the gap ``stack[t] -
    stack[s]`` of its true child against its sibling on the parent's
    coordinates (:func:`_gap_vectors`), so ``Q_P = Z Z^T / 2 lam`` and
    ``(Q_P + S)^-1 r = S^-1 (r - Z y)`` with ``(2 lam I + Z^T S^-1 Z) y =
    Z^T S^-1 r``, ``(f - 1)(p + 1)`` square.  A sample's pairs share
    ``x~``, so the matrix is ``sum_i M_i (x) x~_i x~_i^T`` with ``M_i =
    sum_s d d^T / sig``.  For blocks this small the rows ``Z``, every
    ``d d^T`` and every ``x~ x~^T`` are formed once, the samples zero-padded
    to the pack's most; ``M`` and ``x~ x~^T`` are symmetric, so only their
    upper triangles are multiplied, in one product per lambda, and the
    matrix is gathered from it.
    """

    def __init__(self, blocks, stacks):
        nb, n = len(blocks), max(len(b.X) for b in blocks)
        w, d = blocks[0].X.shape[1], blocks[0].f - 1
        D3, X = np.zeros((nb, n, d, d)), np.zeros((nb, n, w))
        for j, (b, stack) in enumerate(zip(blocks, stacks)):
            D3[j, : len(b.X)], X[j, : len(b.X)] = _gap_vectors(stack, b.t[::d]), b.X
        self.Z = (D3[..., :, None] * X[:, :, None, None, :]).reshape(nb, n * d, d * w)
        (a, b), (c, e) = np.triu_indices(d), np.triu_indices(w)
        self.DD, self.XX = D3[..., a] * D3[..., b], X[..., c] * X[..., e]
        upper_d, upper_w = np.zeros((d, d), dtype=np.intp), np.zeros((w, w), dtype=np.intp)
        upper_d[a, b] = upper_d[b, a] = np.arange(len(a))
        upper_w[c, e] = upper_w[e, c] = np.arange(len(c))
        # H[(a, c), (b, e)] = H4[upper_d[a, b], upper_w[c, e]]
        self.gather = (upper_d[:, None, :, None] * len(c) + upper_w[None, :, None, :]).ravel()
        self.slots, self.shape = _slots(blocks, n * d), (nb, n, d, d * w)

    def factor(self, lams, sig):
        """A solve of ``(Q_P + diag(sig[l])) x = R[l]`` for each row ``l``, as ``lams``."""
        L, (nb, n, d, o) = len(lams), self.shape
        inv = _padded(1.0 / sig, self.slots, nb * n * d, 1.0)  # padded samples have no gaps
        M = np.einsum("lbis,bisk->lbki", inv.reshape(L, nb, n, d), self.DD)
        H = (M @ self.XX).reshape(L, nb, -1)[:, :, self.gather]
        H[:, :, :: o + 1] += 2.0 * lams[:, None, None]
        H = H.reshape(L, nb, o, o)
        inv = inv.reshape(L, nb, 1, n * d)

        def solve(R, failed):
            v = _padded(R, self.slots, nb * n * d).reshape(L, nb, 1, n * d) * inv
            y = _solve(H, (v @ self.Z)[:, :, 0], failed)
            x = (v[:, :, 0] - (self.Z @ y[..., None])[..., 0] * inv[:, :, 0]).reshape(L, -1)
            return x if self.slots is None else x[:, self.slots]

        return solve

    def margins(self, alpha, lams):
        """The pairs' margins ``Q alpha = Z Z^T alpha / 2 lam`` at dual rows ``alpha``."""
        L, (nb, n, d, _) = len(alpha), self.shape
        v = _padded(alpha, self.slots, nb * n * d).reshape(L, nb, 1, n * d)
        y = ((v @ self.Z) @ self.Z.transpose(0, 2, 1)).reshape(L, nb * n * d)
        return (y if self.slots is None else y[:, self.slots]) / (2.0 * lams[:, None])


def _grams_by_child(n: int, f: int) -> bool:
    """Whether a coefficient-space block builds its matrix from per-child Grams.

    For ``n`` samples under a parent of fan-out ``f = d + 1``, the Grams and
    their mix take ``(n d + f d^3) (p + 1)^2`` flops against the per-sample
    build's ``n d^2 (p + 1)^2``; they are used at a quarter of that or less.
    """
    d = f - 1
    return n * d * d >= 4 * (n * d + f * d**3)


class _CoefSpace:
    """Newton solver of one large block in coefficient space, by Woodbury.

    As :class:`_CoefStack`, without forming the ``x~ x~^T``: the matrix is
    built one ``(p + 1)``-square block at a time, ``sum_i M_i[a, b] x~_i
    x~_i^T`` for ``a <= b``, the others mirrored.  With
    many samples a child, it is cheaper to sum ``x~ x~^T / sig`` over the
    samples of each (true child, sibling) first, in one Gram per true
    child, and mix the ``f (f - 1)`` Grams by ``d d^T`` in one product.
    """

    def __init__(self, block, stack):
        f, d = stack.shape
        t = block.t[:: f - 1]
        self.X, self.D3 = block.X, _gap_vectors(stack, t)
        self.grouped = _grams_by_child(len(self.X), f)
        if self.grouped:
            self.order = np.argsort(t, kind="stable")
            self.Xs = self.X[self.order]
            self.bounds = np.searchsorted(t[self.order], np.arange(f + 1)).tolist()
            gaps = _gap_vectors(stack, np.arange(f))
            self.mix = np.einsum("tsa,tsb->tsab", gaps, gaps).reshape(f * d, d * d)

    def factor(self, lams, sig):
        """A solve of ``(Q_P + diag(sig[l])) x = R[l]`` for each row ``l``, as ``lams``."""
        (n, w), d, D3, X, L = self.X.shape, self.D3.shape[1], self.D3, self.X, len(lams)
        inv = 1.0 / sig.reshape(L, n, d)
        H = np.empty((L, d * w, d * w))
        if self.grouped:
            I, Xs, f = inv[:, self.order], self.Xs, len(self.bounds) - 1
            grams = np.empty((L, f, d * w, w))
            for c, (lo, hi) in enumerate(zip(self.bounds, self.bounds[1:])):
                rows = (I[:, lo:hi, :, None] * Xs[lo:hi, None, :]).reshape(L, hi - lo, d * w)
                np.matmul(rows.transpose(0, 2, 1), Xs[lo:hi], out=grams[:, c])
            H4 = (self.mix.T @ grams.reshape(L, f * d, w * w)).reshape(L, d, d, w, w)
            H.reshape(L, d, w, d, w)[...] = H4.transpose(0, 1, 3, 2, 4)
        else:
            M, H4 = np.einsum("lis,isa,isb->liab", inv, D3, D3), H.reshape(L, d, w, d, w)
            for a, b in zip(*np.triu_indices(d)):
                H4[:, a, :, b] = (X * M[:, :, a, b, None]).transpose(0, 2, 1) @ X
                H4[:, b, :, a] = H4[:, a, :, b].transpose(0, 2, 1)
        H.reshape(L, -1)[:, :: d * w + 1] += 2.0 * lams[:, None]

        def solve(R, failed):
            v = R.reshape(L, n, d) * inv
            rhs = (np.einsum("lis,isa->lai", v, D3) @ X).reshape(L, d * w)
            y = _solve(H, rhs, failed).reshape(L, d, w)
            zy = np.einsum("isa,lia->lis", D3, X @ y.transpose(0, 2, 1))
            return (v - zy * inv).reshape(L, n * d)

        return solve


STACK_ORDER = 64  # largest Newton matrix order stacked across lambdas and blocks
STACK_GRAMS = 2**15  # most upper-triangle entries of a stacked block's x~ x~^T


@dataclass(eq=False)
class _Pack:
    """Blocks of one fan-out whose pairs are ``pairs`` of the solver's order.

    ``solver`` solves their Newton systems: a ``stacked`` pack for every
    lambda of a round in one call, any other one lambda at a time.
    ``rows`` gives their node rows, and the margins of a pack that does
    not stack; a stacked pack's solver gives its margins from the
    structures it keeps.
    """

    pairs: slice
    solver: object
    stacked: bool
    rows: _NodeRows

    def margins(self, alpha, lams):
        """The pairs' margins at dual rows ``alpha`` of ``lams``."""
        return (self.solver if self.stacked else self.rows).margins(alpha, lams)


def _kind(block, w: int):
    """The Newton solver class of ``block`` with ``w`` features, and whether it stacks.

    A block solves in pair space or coefficient space, whichever is
    smaller.  It stacks when its matrix is of order up to
    ``STACK_ORDER`` (and, in coefficient space, its samples' ``x~ x~^T``
    are small enough to keep).
    """
    pairs, order = block.hi - block.lo, (block.f - 1) * w
    if pairs <= order:
        return _PairSpace, pairs <= STACK_ORDER
    stacked = order <= STACK_ORDER and len(block.X) * w * (w + 1) // 2 <= STACK_GRAMS
    return (_CoefStack if stacked else _CoefSpace), stacked


def _hinge_packs(table, Xa, blocks):
    """The blocks in packs (see :func:`lockstep`), and the solver's pair order.

    The solver orders the blocks by fan-out, then by sample count, and
    their pairs likewise; ``order`` lists the pairs, as indices of the
    pairs grouped by parent, in that order.  Within a fan-out, stacking
    blocks of one solver class are packed by size (:func:`_packs`), and
    each pack is solved for every lambda in one call per step; any other
    block is a pack of its own, solved one lambda at a time.  Sorted so,
    each pack's pairs are a slice.
    """
    w = Xa.shape[1]
    blocks = sorted(blocks, key=lambda b: (b.f, len(b.X)))
    order = np.concatenate([np.arange(b.lo, b.hi) for b in blocks])
    packs, lo = [], 0
    for (_, kind, stacked), same in itertools.groupby(blocks, key=lambda b: (b.f, *_kind(b, w))):
        same = list(same)
        if not stacked:
            runs = [[b] for b in same]
        elif kind is _PairSpace:
            runs = _packs(same, lambda b: (b.hi - b.lo) ** 2)
        else:
            runs = _packs(same, lambda b: b.hi - b.lo)
        for run in runs:
            stacks = [table.sibling_blocks[b.P][1] for b in run]
            if kind is _PairSpace:
                solver = _PairSpace(run, stacked)
            elif stacked:
                solver = _CoefStack(run, stacks)
            else:
                solver = _CoefSpace(run[0], stacks[0])
            hi = lo + sum(b.hi - b.lo for b in run)
            packs.append(_Pack(slice(lo, hi), solver, stacked, _NodeRows(run, Xa)))
            lo = hi
    return packs, order


def _boundary_step(alpha, s, z, w, da, dz, dw) -> np.ndarray:
    """Largest ``t`` per row keeping ``alpha``, ``s = u - alpha``, ``z`` and ``w`` positive.

    All four are positive, so the boundary is where ``dx / x`` is most negative.
    """
    dx = np.concatenate([da, -da, dz, dw], axis=1)
    ratio = (dx / np.concatenate([alpha, s, z, w], axis=1)).min(axis=1)
    return np.divide(-1.0, ratio, out=np.full_like(ratio, np.inf), where=ratio < 0.0)


def _mehrotra_direction(packs, lams, alpha, s, z, w, g, floor, final):
    """Predictor-corrector directions ``(d alpha, d z, d w, failed)`` of the box QP.

    Row ``l`` of every array belongs to ``lams[l]``.  ``alpha`` lies
    strictly inside ``0 < alpha < u`` with slack ``s = u - alpha``; ``z``
    and ``w`` are the multipliers of its lower and upper bounds and ``g``
    is the gradient ``Q alpha - 1``.  The affine predictor aims at
    ``mu = 0``; the corrector adds its second-order term and a centring
    target ``sigma mu``, ``sigma = (mu_aff / mu)**3`` (Mehrotra), kept at
    or above ``floor``; rows marked ``final`` take no centring target.
    Both steps solve the Newton matrix ``Q + diag(z / alpha + w / s)``,
    set up once per pack and row.  A stacked pack serves every row at
    once; any other one row at a time, its matrices set up, used for both
    steps and dropped before the next row's, so a grid holds one lambda's
    large matrices at a time; the stacked packs' matrices are then not
    held through that loop but set up again for the corrector.
    ``failed`` marks the rows that met a numerically singular matrix;
    their directions are meaningless.
    """
    za, ws = z / alpha, w / s
    sig = za + ws
    failed = np.zeros(len(lams), dtype=bool)
    da, cz, cw, dc = np.empty_like(alpha), [], [], []

    def newton(solves, R, out, rows):
        for pairs, solve in solves:
            out[:, pairs] = solve(R[:, pairs], failed[rows])

    def stacked_factors():
        return [(p.pairs, p.solver.factor(lams, sig[:, p.pairs])) for p in packs if p.stacked]

    stacked, each = stacked_factors(), [p for p in packs if not p.stacked]
    newton(stacked, -g, da, slice(None))
    if each:  # set up again for the corrector rather than held through the loop
        stacked = None
    for rows in [slice(r, r + 1) for r in range(len(lams))] if each else [slice(None)]:
        solves = [(p.pairs, p.solver.factor(lams[rows], sig[rows, p.pairs])) for p in each]
        newton(solves, -g[rows], da[rows], rows)
        a, sl, d, zr, wr = alpha[rows], s[rows], da[rows], z[rows], w[rows]
        dz, dw = -zr - za[rows] * d, -wr + ws[rows] * d
        t = np.minimum(1.0, _boundary_step(a, sl, zr, wr, d, dz, dw))
        # alpha dz + d z = -alpha z and s dw - d w = -s w, so the affine
        # step's complementarity is mu (1 - t) + t^2 <d, dz - dw> / 2M
        mu = (np.einsum("ij,ij->i", a, zr) + np.einsum("ij,ij->i", sl, wr)) / (2 * a.shape[1])
        mu_aff = mu * (1.0 - t) + t * t * np.einsum("ij,ij->i", d, dz - dw) / (2 * a.shape[1])
        target = np.where(final[rows], 0.0, np.maximum((mu_aff / mu) ** 3 * mu, floor))[:, None]
        cz.append((target - d * dz) / a)
        cw.append((target + d * dw) / sl)
        dc.append(np.empty_like(a))
        newton(solves, cz[-1] - cw[-1] - g[rows], dc[-1], rows)
        del solves  # before the next row's matrices are set up
    cz, cw, dc = (np.concatenate(x) if len(x) > 1 else x[0] for x in (cz, cw, dc))
    newton(stacked or stacked_factors(), cz - cw - g, dc, slice(None))
    return dc, cz - z - za * dc, cw - w + ws * dc, failed


def lockstep(table, X, pairs, kappa, lams, max_iter):
    """Fit the hinge dual at every lambda of ``lams`` in lockstep.

    ``X`` holds the samples' features as the solver uses them, ``pairs``
    the sample, parent, true node and sibling of every sibling gap
    (``classifier._sibling_pairs``), and ``kappa`` the scale of each
    node's parent (``classifier._sibling_scale``).  Returns ``nodes(r)``,
    the node rows ``G`` of the best primal point of ``lams[r]``, ``(q + 1,
    X.shape[1])``, and per lambda the history, the reason the fit stopped
    uncertified (None once certified), the best objective and its duality
    gap, and the gap tolerance.
    """
    n, L, M = len(X), len(lams), len(pairs[0])
    order = np.argsort(pairs[1], kind="stable")  # each parent's pairs form a slice
    pairs = [a[order] for a in pairs]
    packs = _hinge_packs(table, X, _hinge_blocks(table, X, *pairs, kappa))[0]
    del order, pairs  # the packs keep what they need
    lams, u = np.array(lams, dtype=float), 1.0 / n
    best, best_dual = np.full(L, M / n), np.zeros(L)  # every slack is 1 at A = 0
    best_alpha, tol = np.zeros((L, M)), HINGE_TOL * M / n
    history = [[b] for b in best.tolist()]
    stops = [f"the {max_iter}-iteration budget"] * L

    def score(rows, alpha):
        """Pair margins at dual rows ``alpha`` of ``lams[rows]``, scoring their objectives."""
        lam, margins = lams[rows], np.empty_like(alpha)
        for p in packs:
            margins[:, p.pairs] = p.margins(alpha[:, p.pairs], lam)
        sq = np.einsum("ij,ij->i", alpha, margins) / (2.0 * lam)  # |A|**2 = alpha^T Q alpha / 2 lam
        primal = np.maximum(1.0 - margins, 0.0).sum(axis=1) / n + lam * sq
        better = primal < best[rows]
        if better.any():
            best[rows[better]], best_alpha[rows[better]] = primal[better], alpha[better]
        best_dual[rows] = np.maximum(best_dual[rows], alpha.sum(axis=1) - lam * sq)
        for r in rows.tolist():
            history[r].append(best[r])
        return margins

    def certified(rows):
        done = best[rows] - best_dual[rows] <= tol
        for r in rows[done].tolist():
            stops[r] = None
        return done

    rows = np.arange(L)
    m = score(rows, np.full((L, M), u))  # iteration 1 probes the box's upper corner
    keep = ~certified(rows) & (max_iter > 1)
    rows, m = rows[keep], m[keep] / 2.0  # margins are linear in alpha: the box centre's
    alpha = np.full((len(rows), M), u / 2.0)
    root = np.sqrt((m - 1.0) ** 2 + 4.0)  # multipliers with z - w = m - 1, z w = 1
    z, w = (root + m - 1.0) / 2.0, (root - m + 1.0) / 2.0
    g = m - 1.0  # the gradient Q alpha - 1
    del m
    final = np.zeros(len(rows), dtype=bool)  # certified rows, due their last step
    floor = 0.05 * tol / (2 * M)  # a centring target whose gap is well inside tol
    for it in range(1, max_iter + 1):
        if not len(rows):
            break
        s = u - alpha
        da, dz, dw, failed = _mehrotra_direction(
            packs, lams[rows], alpha, s, z, w, g, floor, final
        )
        t = np.minimum(1.0, STEP_FRACTION * _boundary_step(alpha, s, z, w, da, dz, dw))[:, None]
        stepped = alpha + t * da
        if final.any():  # a certified iterate takes one uncentred step, clipped onto the box
            stepped[final] = np.minimum(np.maximum(alpha[final] + da[final], 0.0), u)
        alpha, z, w = stepped, z + t * dz, w + t * dw
        if failed.any():
            for r in rows[failed & ~final].tolist():  # a final row keeps its certified iterate
                stops[r] = "a numerically singular Newton matrix"
            rows, alpha, z, w, final = (a[~failed] for a in (rows, alpha, z, w, final))
            if not len(rows):
                break
        g = score(rows, alpha)
        g -= 1.0
        for r in rows[final].tolist():
            del history[r][-2]  # the step's entry replaces the certified one
        done = certified(rows) & ~final
        keep = done | (~final & (it < max_iter - 1))
        if not keep.all():
            rows, alpha, z, w, g = (a[keep] for a in (rows, alpha, z, w, g))
        final = done[keep]
    node_rows = [(p.pairs, p.rows) for p in packs]
    del packs

    def nodes(r):
        """Node rows ``G`` of the best primal point of ``lams[r]``."""
        G = np.zeros((1, table.tree.q + 1, X.shape[1]))
        for at, scorer in node_rows:
            scorer.node_rows(best_alpha[r : r + 1, at], G)
        return G[0]

    return nodes, history, stops, best, best - best_dual, tol
