"""Truncated forms, main part, killing part and the reflected form.

For a cutoff phi in the form domain with 0 <= phi <= 1 the truncated form is

    T_phi(f) = Q(phi f) - Q(phi f^2, phi),

which strips every killing term and localizes the difference part: on graph
forms it equals the weighted pair sum with both endpoints damped by phi.  The
main part is the supremum of T_phi over admissible cutoffs, computed as a
monotone limit along an exhaustion.  The killing part is the monotone
completion of Q - main on the domain, computed as a supremum over cutoff
times clamp products.  Their sum is the reflected form: an extension of Q
that carries the boundary and killing energy explicitly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import pairwise
from typing import NamedTuple

import numpy as np

from .forms import GraphForm, as_function, energy_terms, increments_settled, unscale
from .graph import Exhaustion, WeightedGraph


@dataclass
class TruncatedFormValue:
    phi: np.ndarray
    f: np.ndarray
    value: float


def _check_cutoff(q: GraphForm, phi) -> np.ndarray:
    phi = as_function(q.graph, phi)
    if (phi < -1e-12).any() or (phi > 1 + 1e-12).any():
        raise ValueError("cutoff phi must take values in [0, 1]")
    if not q.in_domain(phi):
        raise ValueError("cutoff phi must vanish off the active set")
    return phi


def _truncated(q: GraphForm, phi: np.ndarray, f: np.ndarray) -> tuple:
    """(Q(phi f), T_phi(f)) for a checked cutoff and function, from the exact sums
    Q(phi f) and Q(phi f^2, phi) (``GraphForm.exact_sums``).

    phi f lies in the domain, because phi does.
    """

    def operands(h, _):
        ph = phi * h
        return [(ph, ph), (ph * h, phi)]

    energy, second = q.exact_sums(f, f, operands)
    return energy, energy - second


def truncated_form(q: GraphForm, phi, f) -> TruncatedFormValue:
    """T_phi(f) = Q(phi f) - Q(phi f^2, phi) for a cutoff phi in the domain.

    Raises when phi leaves [0, 1] or is nonzero off the active set; phi f then
    lies in the domain for every finite f.
    """
    phi = _check_cutoff(q, phi)
    f = as_function(q.graph, f)
    return TruncatedFormValue(phi, f, _truncated(q, phi, f)[1])


def truncated_oracle(q: GraphForm, phi, f) -> float:
    """Exact pair-sum value of the truncated form on a graph form.

    sum over ordered pairs of b(x,y) phi(x) phi(y) (f(x)-f(y))^2, plus the
    analogous coupling terms.  Independent of the definitional route above.
    """
    phi = as_function(q.graph, phi)
    f = as_function(q.graph, f)
    g = q.graph
    du = f[g.edge_u] - f[g.edge_v]
    terms = list(2.0 * g.edge_b * phi[g.edge_u] * phi[g.edge_v] * du * du)
    terms.extend(
        cp.w * phi[cp.u] * phi[cp.v] * (f[cp.u] - f[cp.v]) ** 2 for cp in q.couplings
    )
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Level walk
# ---------------------------------------------------------------------------

#: Rows per block of a level sum.  A block's terms are formed and extracted on
#: their own, so a sum's temporaries stay near 10 MB at any size; a ball of
#: n = 9941 vertices has ~77 000 rows, one block.
_BLOCK_ROWS = 2**17


def _check_truncation(q: GraphForm, ex: Exhaustion) -> None:
    if ex.graph.n != q.n:
        raise ValueError(
            f"exhaustion and form live on different truncations ({ex.graph.n} vs {q.n} vertices)"
        )


def _spans(begin: np.ndarray, end: np.ndarray) -> tuple:
    """(index, level) rows with begin[index] <= level < end[index], and the position
    of each span's last row; every span must be nonempty."""
    span = end - begin
    stop = np.cumsum(span)
    index = np.repeat(np.arange(len(span)), span)
    return index, np.arange(len(index)) - np.repeat(stop - span - begin, span), stop - 1


def _running_sums(terms: np.ndarray, slot: np.ndarray, n_levels: int) -> list:
    """For each level k, a few floats whose exact sum is that of the terms in slots
    <= k (running terms) plus that of the terms in slot n_levels + k (point terms).

    Error-free vector extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31, 2008): for sigma = 2^s with
    max |x| <= 2^-M sigma and len(x) < 2^M, q = (sigma + x) - sigma and x - q are
    exact, and every q lies on the grid 2^-53 sigma with |q| <= 2^-M sigma, so
    every sum of q's is exact, in any order.  A round thus yields one exact sum
    per level and leaves remainders of at most 2^-53 sigma.  At sigma = 2^-1022
    the grid is the subnormal spacing, so that round takes everything.

    ``bits`` comes from len(terms), zeros included: a zero adds an exact zero to
    every sum, so the bound holds however many of the remaining values are zero.
    The zeros and their slots are dropped only once they are at least half of
    what remains, since a drop copies the rest: the first round of a sum with
    few zero terms would copy every term and drop none.
    """
    bits = len(terms).bit_length()  # len(terms) < 2^bits
    x, rounds = terms, []
    while nonzero := np.count_nonzero(x):
        if 2 * nonzero <= len(x):
            keep = x != 0.0
            x, slot = x[keep], slot[keep]
        top = int(np.frexp(np.abs(x).max())[1])
        sigma = math.ldexp(1.0, max(top + bits, -1022))
        q = (sigma + x) - sigma
        by_slot = np.bincount(slot, weights=q, minlength=2 * n_levels)
        rounds.append(np.cumsum(by_slot[:n_levels]) + by_slot[n_levels:])
        x = x - q
    if not rounds:
        return [[] for _ in range(n_levels)]
    return [[v for v in col if v] for col in np.array(rounds).T.tolist()]


class _Rows(NamedTuple):
    """A block of the row table: the pair rows (endpoints, cutoff values and 2^-k f
    at both endpoints, and the weight), the vertex rows (vertex, cutoff value, 2^-k
    f and total killing), and the slot of every row, pairs first."""

    ends: np.ndarray
    chi_p: np.ndarray
    f_p: np.ndarray
    w: np.ndarray
    verts: np.ndarray
    chi_x: np.ndarray
    f_x: np.ndarray
    c: np.ndarray
    slot: np.ndarray


def _pick(rows: _Rows, k: np.ndarray) -> _Rows:
    """The table of pair rows k and every vertex row of a block."""
    return rows._replace(ends=rows.ends[:, k], chi_p=rows.chi_p[:, k], f_p=rows.f_p[:, k],
                         w=rows.w[k], slot=np.concatenate((rows.slot[k], rows.slot[len(rows.w):])))


class _Walk:
    """The levels of one exhaustion, checked once for a form and a function.

    It reads the exhaustion only through its levels' interface (graph.py), and its
    pairs from the form's pair table (``GraphForm.pairs``).  A pair (edge or
    coupling) enters with its first endpoint and freezes with its last (see
    ``enter_freeze``); the cutoffs need not be nested.  Before a pair enters, both
    its cutoff values are 0, so its terms are exact zeros; from its freeze on, both
    equal the last cutoff's, so each term is the same float at every later level.
    Each frozen term is computed once, at the freeze level; only the window, the
    entered pairs and vertices that are not yet frozen, is evaluated per level.
    ``_running_sums`` extracts, from the frozen and the window terms together, a
    few floats per level with the level's exact sum, and one fsum over them is the
    level sum.  The rows, with everything the sums read of them, are gathered once
    into a row table (``blocks``) that the sums of both parts share.

    Q(chi f) and Q(chi f^2, chi) of the main part, and Q(g) of a clamped killing
    level, read every row.  The killing part's Q(g^2, 1) reads only each block's
    crossing table (``crossing``): the pair rows whose endpoints differ in activity,
    and the vertex rows, all of which carry killing.  A pair enters through an
    active endpoint, so every other pair row joins two active vertices, and its
    term w (a_u - a_v) (1 - 1) is an exact zero, because the terms of 2^-k f are
    finite.

    Every term is a product of two factors of f, so the terms are formed from 2^-k
    f, k = ``GraphForm.shift`` (0 unless f is huge), taken up front: each level sum
    is the correctly rounded sum of those terms, times 2^2k.  That is the float the
    whole graph's sum gives whenever no scaled term or intermediate result is
    subnormal.  A level sum past the float range raises OverflowError; with a
    non-finite weight (``GraphForm.finite``) no rows are built and every level sum
    is NaN.  ``monotone`` is False when explicit cutoffs decrease somewhere; the
    last level is then no supremum, and neither part reports convergence.
    """

    def __init__(self, q: GraphForm, ex: Exhaustion, f):
        _check_truncation(q, ex)
        self.q, self.f = q, as_function(q.graph, f)
        self.full = np.where(q.active, 1.0, 0.0)
        levels = ex._levels
        self.levels, self.monotone = levels.levels, levels.monotone
        enter, freeze = levels.enter_freeze()
        if (enter[~q.active] < self.levels).any():
            raise ValueError("exhaustion cutoff is nonzero on the boundary; mask it first")
        for chi in levels.arrays:
            _check_cutoff(q, chi)
        self.saturated = bool(np.all(levels.cutoff(self.levels - 1)[q.active] == 1.0))
        self.shift = q.shift(self.f) if q.finite else 0
        if q.finite:
            self._rows(enter, freeze, levels.values)

    def _rows(self, enter, freeze, values) -> None:
        """Set up the row table: the rows of each pair and vertex, from its entry to
        its freeze, with everything every level sum reads of them (f scaled by
        2^-k), and their slots, in blocks of at most ``_BLOCK_ROWS`` rows."""
        q, n_levels = self.q, self.levels
        f = np.ldexp(self.f, -self.shift)
        ends, w = q.pairs
        pair_enter = enter[ends].min(axis=0)
        pairs = np.flatnonzero((pair_enter < n_levels) & (w != 0.0))
        verts = np.flatnonzero((enter < n_levels) & (q.c_total != 0.0))
        # take, not ends[:, pairs]: numpy's indexing is several times slower on a column.
        pair_ends = ends.take(pairs, axis=1)
        pair_freeze = freeze[pair_ends].max(axis=0)
        crosses = np.not_equal(*q.active[pair_ends])
        ip, lp, last_p = _spans(pair_enter[pairs], pair_freeze + 1)
        iv, lv, last_v = _spans(enter[verts], freeze[verts] + 1)
        # A row at its freeze level, the last of its span, counts at every later level
        # too (slot = level), a window row at its own level only (slot = n_levels + level).
        n_p = len(ip)
        slot = np.concatenate((lp, lv)) + n_levels
        slot[np.concatenate((last_p, n_p + last_v))] -= n_levels
        # Block b holds rows b B to (b + 1) B - 1 of the pair rows followed by the
        # vertex rows, B = _BLOCK_ROWS; there is one block even without rows.
        self.blocks, self.crossing = [], []
        for lo in range(0, max(n_p + len(iv), 1), _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            bp, bv = slice(min(lo, n_p), min(hi, n_p)), slice(max(lo - n_p, 0), max(hi - n_p, 0))
            wp, wv = pairs[ip[bp]], verts[iv[bv]]
            rows = ends.take(wp, axis=1)
            block = _Rows(rows, values(lp[bp], rows), f[rows], w[wp],
                          wv, values(lv[bv], wv), f[wv], q.c_total[wv], slot[lo:hi])
            self.blocks.append(block)
            self.crossing.append(_pick(block, np.flatnonzero(crosses[ip[bp]])))

    def _terms(self, rows: _Rows, h, killing, with_energy, with_second=True) -> list:
        """``energy_terms`` of Q(phi h) if ``with_energy`` and of Q(phi h^2, phi) if
        ``with_second``, on a table's rows; the table is not written to."""
        if h is self.f:
            h_p, h_x = rows.f_p, rows.f_x
        else:  # a clamped f, scaled
            h_p, h_x = h[rows.ends], h[rows.verts]
        if killing:  # phi is the full cutoff and h = chi * fn
            phi_p, h_p = self.full[rows.ends], rows.chi_p * h_p
            phi_x, h_x = self.full[rows.verts], rows.chi_x * h_x
        else:
            phi_p, phi_x = rows.chi_p, rows.chi_x
        pf, pfx = phi_p * h_p, phi_x * h_x
        out = [energy_terms(pf, pf, rows.w, pfx, pfx, rows.c)] if with_energy else []
        if with_second:
            pf *= h_p  # phi h^2
            pfx *= h_x
            out.append(energy_terms(pf, phi_p, rows.w, pfx, phi_x, rows.c))
        return out

    def level_sums(self, h: np.ndarray, killing: bool, energy=None) -> list:
        """Per level l, the exact sums (Q(chi_l h), Q(chi_l h^2, chi_l)) for the main
        part, or (Q(g), Q(g^2, 1)) with g = chi_l h for the killing part, of h = f or
        a clamped f scaled by 2^-k; given ``energy``, the first sums already known,
        only the second are evaluated.  Each block's terms are extracted on their own,
        and each level sum is one fsum over the floats of every block, times 2^2k.
        """
        if not self.q.finite:
            return [(math.nan, math.nan)] * self.levels
        parts = None
        for rows, crossing in zip(self.blocks, self.crossing):
            if killing:  # Q(g) on every row, Q(g^2, 1) on the crossing table
                work = [] if energy is not None else [
                    (t, rows.slot) for t in self._terms(rows, h, True, True, False)]
                work += [(t, crossing.slot) for t in self._terms(crossing, h, True, False)]
            else:
                work = [(t, rows.slot) for t in self._terms(rows, h, False, True)]
            got = [_running_sums(terms, slot, self.levels) for terms, slot in work]
            parts = got if parts is None else [
                [a + b for a, b in zip(old, new)] for old, new in zip(parts, got)
            ]
        sums = [[unscale(math.fsum(v), 2 * self.shift) for v in level] for level in parts]
        if energy is not None:
            sums.insert(0, energy)
        return list(zip(*sums))


# ---------------------------------------------------------------------------
# Main part
# ---------------------------------------------------------------------------


@dataclass
class PartResult:
    value: float
    trace: list
    converged: bool


def main_part(q: GraphForm, ex: Exhaustion, f, rel_tol: float = 1e-8) -> PartResult:
    """Main-part value of f: monotone limit of T_chi(f) along the exhaustion.

    The cutoffs must already be masked to the active set.  The trace is
    nondecreasing; the value is the last entry.  Convergence holds when the
    final cutoff saturates the active set (the supremum is then attained,
    making the value exact for the truncation) or when the last two relative
    increments drop below rel_tol, and never for cutoffs that decrease somewhere.
    """
    return _main(_Walk(q, ex, f), rel_tol)[0]


def _main(walk: _Walk, rel_tol: float) -> tuple:
    """The main part on a walk, and its level energies Q(chi_k f)."""
    sums = walk.level_sums(walk.f, killing=False)
    trace = [a - b for a, b in sums]
    converged = walk.monotone and not math.isnan(trace[-1]) and (
        walk.saturated or increments_settled(trace, rel_tol))
    return PartResult(value=trace[-1], trace=trace, converged=converged), [a for a, _ in sums]


# ---------------------------------------------------------------------------
# Killing part
# ---------------------------------------------------------------------------


def killing_part(
    q: GraphForm,
    ex: Exhaustion,
    f,
    clamp_levels=None,
    rel_tol: float = 1e-8,
) -> PartResult:
    """Killing-part value of f: supremum of Q(g) - main(g) over g = chi * f^(n).

    The search space runs over the masked exhaustion cutoffs chi and the clamp
    ladder f^(n) = (f and n) or (-n); the resulting grid is nondecreasing in
    both indices, so the supremum is the last entry.  The default single clamp
    level max|f| is exact for bounded f.  A given ladder must be nonempty,
    positive and nondecreasing.  The trace is the grid flattened row per clamp
    level.
    """
    return _killing(_Walk(q, ex, f), clamp_levels, rel_tol)


def _killing(walk: _Walk, clamp_levels, rel_tol: float, energy=None) -> PartResult:
    """The killing part on a walk; ``energy``, the main part's level energies, if known."""
    top = float(np.max(np.abs(walk.f)))
    clamp_levels = [top if top > 0 else 1.0] if clamp_levels is None else list(clamp_levels)
    if not clamp_levels:
        raise ValueError("clamp ladder must not be empty")
    if not all(level > 0 for level in clamp_levels):
        raise ValueError("clamp levels must be positive")
    if not all(a <= b for a, b in pairwise(clamp_levels)):
        raise ValueError("clamp levels must be nondecreasing")
    # main(g) is attained at the full admissible cutoff on a finite truncation,
    # and Q(full * g) is Q(g) bit for bit because g vanishes off the active set.
    # At a level >= max|f|, fn is f and each term of Q(g) = Q(chi f) is the float
    # main_part formed (1.0 * (chi f) is chi f, and masked zeros keep their sign),
    # so the main part's level energies are reused when given, and the row table's
    # gathers of f serve the second sums; a clamped fn is scaled and gathered fresh.
    grid = []
    for level in clamp_levels:
        whole = level >= top
        fn = walk.f if whole else np.ldexp(np.clip(walk.f, -level, level), -walk.shift)
        grid.append([e - (e - b) for e, b in walk.level_sums(fn, True, energy if whole else None)])
    value = grid[-1][-1]
    saturated = walk.saturated and clamp_levels[-1] >= top
    converged = walk.monotone and not math.isnan(value) and (
        saturated or increments_settled(grid[-1], rel_tol))
    return PartResult(value=value, trace=grid, converged=converged)


# ---------------------------------------------------------------------------
# Reflected form
# ---------------------------------------------------------------------------


@dataclass
class DecompositionResult:
    """Main, killing and reflected values of one test function, with traces."""

    f: np.ndarray
    main_value: float
    killing_value: float
    reflected_value: float
    main_trace: list
    killing_trace: list
    converged: bool
    nest_assumed: bool

    def to_dict(self) -> dict:
        return {
            "f": [float(v) for v in self.f],
            "main": self.main_value,
            "killing": self.killing_value,
            "reflected": self.reflected_value,
            "main_trace": [float(v) for v in self.main_trace],
            "killing_trace": [[float(v) for v in row] for row in self.killing_trace],
            "converged": self.converged,
            "nest_assumed": self.nest_assumed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def reflected_form(
    q: GraphForm,
    ex: Exhaustion,
    f,
    clamp_levels=None,
    rel_tol: float = 1e-8,
) -> DecompositionResult:
    """Decompose the energy of f into main and killing parts; reflected = sum.

    The exhaustion may be unmasked; it is masked to the active set here.  For
    f in the form domain the reflected value reproduces Q(f) (the extension
    property of the reflected form).
    """
    _check_truncation(q, ex)
    walk = _Walk(q, ex.masked(q.active), f)  # one walk, checked and set up once for both parts
    main, energy = _main(walk, rel_tol)
    kill = _killing(walk, clamp_levels, rel_tol, energy)
    return DecompositionResult(
        f=walk.f,
        main_value=main.value,
        killing_value=kill.value,
        reflected_value=main.value + kill.value,
        main_trace=main.trace,
        killing_trace=kill.trace,
        converged=main.converged and kill.converged,
        nest_assumed=ex.nest_assumed,
    )


# ---------------------------------------------------------------------------
# Exact graph oracles
# ---------------------------------------------------------------------------


def graph_oracle_main(graph: WeightedGraph, active, f, couplings=()) -> float:
    """Ordered-pair energy over pairs with both endpoints active.

    This is the closed-form main part of a masked graph form; couplings with
    both endpoints active contribute their single term.
    """
    active = np.asarray(active, dtype=bool)
    f = as_function(graph, f)
    both = active[graph.edge_u] & active[graph.edge_v]
    du = f[graph.edge_u] - f[graph.edge_v]
    terms = list(2.0 * graph.edge_b[both] * du[both] * du[both])
    terms.extend(
        cp.w * (f[cp.u] - f[cp.v]) ** 2
        for cp in couplings
        if active[cp.u] and active[cp.v]
    )
    return math.fsum(terms)


def effective_killing(graph: WeightedGraph, active, extra_killing=None, couplings=()) -> np.ndarray:
    """Per-vertex killing after folding boundary edges into the diagonal.

    c_eff(x) = c(x) + extra(x) + 2 * sum of b(x, y) over inactive neighbors y,
    plus coupling weights whose other endpoint is inactive (counted once).
    Vanishes on inactive vertices.
    """
    active = np.asarray(active, dtype=bool)
    ceff = np.where(active, graph.c, 0.0).astype(float)
    if extra_killing is not None:
        ceff = ceff + np.where(active, np.asarray(extra_killing, dtype=float), 0.0)
    u = np.concatenate((graph.edge_u, [cp.u for cp in couplings])).astype(int)
    v = np.concatenate((graph.edge_v, [cp.v for cp in couplings])).astype(int)
    w = np.concatenate((2.0 * graph.edge_b, [cp.w for cp in couplings]))
    # Edges in order, then couplings in order: each vertex adds in the loop's order.
    crossing = active[u] != active[v]
    np.add.at(ceff, np.where(active[u], u, v)[crossing], w[crossing])
    return ceff


def graph_oracle_killing(
    graph: WeightedGraph, active, f, extra_killing=None, couplings=()
) -> float:
    """sum over active x of c_eff(x) f(x)^2, the closed-form killing part."""
    f = as_function(graph, f)
    ceff = effective_killing(graph, active, extra_killing, couplings)
    return math.fsum(ceff * f * f)


def form_oracle_main(q: GraphForm, f) -> float:
    return graph_oracle_main(q.graph, q.active, f, q.couplings)


def form_oracle_killing(q: GraphForm, f) -> float:
    return graph_oracle_killing(q.graph, q.active, f, q.killing_extra, q.couplings)


# ---------------------------------------------------------------------------
# Recurrence
# ---------------------------------------------------------------------------


def recurrence_check(q: GraphForm, ex: Exhaustion) -> dict:
    """Main part at the constant 1 (always 0) and the reflected value at 1.

    The reflected value at 1 is the total effective killing mass; the form is
    recurrent exactly when it vanishes.
    """
    ones = np.ones(q.n)
    result = reflected_form(q, ex, ones)
    return {
        "recurrent_main": bool(result.main_value == 0.0),
        "reflected_value_at_1": result.reflected_value,
    }
