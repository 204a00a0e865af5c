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

import numpy as np

from .forms import GraphForm, as_function, increments_settled
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


def _truncated(q: GraphForm, phi: np.ndarray, f: np.ndarray, support=None) -> tuple:
    """(Q(phi f), T_phi(f)) for a checked cutoff and function, summed over ``support``.

    ``support`` must carry every nonzero term of both energies (``q._support(phi)``
    does); phi f then lies in the domain, because phi does.
    """
    pf = phi * f
    energy = math.fsum(q._terms(pf, pf, support))
    return energy, energy - math.fsum(q._terms(pf * f, phi, support))


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
# Main part
# ---------------------------------------------------------------------------


@dataclass
class PartResult:
    value: float
    trace: list
    converged: bool


def _checked_cutoffs(q: GraphForm, ex: Exhaustion) -> list:
    for chi in ex.cutoffs:
        if not q.in_domain(chi):
            raise ValueError(
                "exhaustion cutoff is nonzero on the boundary; mask it first"
            )
    return [_check_cutoff(q, chi) for chi in ex.cutoffs]


def _full_cutoff_reached(q: GraphForm, chi: np.ndarray) -> bool:
    return bool(np.all(chi[q.active] == 1.0))


def main_part(q: GraphForm, ex: Exhaustion, f, rel_tol: float = 1e-8) -> PartResult:
    """Main-part value of f: monotone limit of T_chi(f) along the exhaustion.

    The cutoffs must already be masked to the active set.  The trace is
    nondecreasing; the value is the last entry.  Convergence holds when the
    final cutoff saturates the active set (the supremum is then attained,
    making the value exact for the truncation) or when the last two relative
    increments drop below rel_tol.
    """
    f = as_function(q.graph, f)
    trace = [_truncated(q, chi, f, q._support(chi))[1] for chi in _checked_cutoffs(q, ex)]
    converged = _full_cutoff_reached(q, ex.cutoffs[-1]) or increments_settled(trace, rel_tol)
    return PartResult(value=trace[-1], trace=trace, converged=converged)


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
    level max|f| is exact for bounded f.  The trace is the grid flattened row
    per clamp level.
    """
    f = as_function(q.graph, f)
    cutoffs = _checked_cutoffs(q, ex)
    if clamp_levels is None:
        top = float(np.max(np.abs(f)))
        clamp_levels = [top if top > 0 else 1.0]
    # main(g) is attained at the full admissible cutoff on a finite truncation,
    # and Q(full * g) is Q(g) bit for bit because g vanishes off the active set.
    full_cutoff = np.where(q.active, 1.0, 0.0)
    grid = []
    for level in clamp_levels:
        if not level > 0:
            raise ValueError("clamp levels must be positive")
        fn = np.clip(f, -level, level)
        row = []
        for chi in cutoffs:
            energy, main = _truncated(q, full_cutoff, chi * fn, q._support(chi))
            row.append(energy - main)
        grid.append(row)
    value = grid[-1][-1]
    saturated = _full_cutoff_reached(q, ex.cutoffs[-1]) and clamp_levels[-1] >= float(
        np.max(np.abs(f))
    )
    converged = saturated or increments_settled(grid[-1], rel_tol)
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
    f = as_function(q.graph, f)
    mex = ex.masked(q.active)
    main = main_part(q, mex, f, rel_tol=rel_tol)
    kill = killing_part(q, mex, f, clamp_levels=clamp_levels, rel_tol=rel_tol)
    return DecompositionResult(
        f=f,
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
    for u, v, b in zip(graph.edge_u, graph.edge_v, graph.edge_b):
        if active[u] and not active[v]:
            ceff[u] += 2.0 * b
        elif active[v] and not active[u]:
            ceff[v] += 2.0 * b
    for cp in couplings:
        if active[cp.u] and not active[cp.v]:
            ceff[cp.u] += cp.w
        elif active[cp.v] and not active[cp.u]:
            ceff[cp.v] += cp.w
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
        "recurrent_main": bool(abs(result.main_value) <= 1e-10),
        "reflected_value_at_1": result.reflected_value,
    }
