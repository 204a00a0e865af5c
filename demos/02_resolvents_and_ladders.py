"""Markovian resolvents and the approximating-form ladder.

The generator L of a form satisfies <Lf, g>_m = Q(f, g); its resolvent
G_alpha = (L + alpha)^{-1} is positivity preserving and alpha G_alpha is
sub-Markov.  The continuous approximating form

    E^(alpha)(f) = <f, (I - alpha G_alpha) f>_m

satisfies alpha E^(alpha)(f) increasing to Q(f), which turns form values into
resolvent computations.  The same ladder evaluated on cutoff products
recovers truncated-form values without touching the energy directly.
"""

import numpy as np

from graphforms import (
    ResolventHandle,
    assemble,
    default_alpha_ladder,
    make_path,
    truncated_coefficients,
    truncated_form,
    truncated_form_via_resolvent,
)

# killing at the center vertex makes the resolvent lose mass there
q = assemble(make_path(7, 0.25), extra_killing={"v3": 2.0})
handle = ResolventHandle(q)

ones = np.ones(handle.dim)
print("sub-Markov check, alpha G_alpha 1 stays in [0, 1]:")
for alpha in (0.5, 5.0, 500.0):
    u = alpha * handle.apply(alpha, ones)
    print(f"  alpha={alpha:7g}:  min={u.min():.6f}  max={u.max():.6f}")

rng = np.random.default_rng(1)
f = rng.uniform(-2, 2, handle.dim)
print(f"\ntarget energy Q(f) = {q.evaluate(f):.10f}")
print("alpha * E^(alpha)(f) climbs monotonically towards it:")
for alpha in default_alpha_ladder(handle):
    print(f"  alpha={alpha:12.4g}  ->  {alpha * handle.approximating_form(alpha, f):.10f}")

# The same mechanism estimates truncated forms: the ladder of
# alpha (E^(a)(phi f) - E^(a)(phi f^2, phi)) converges to the
# algebraically computed truncation.
phi = np.minimum(1.0, rng.uniform(0.3, 1.2, q.n))
res = truncated_form_via_resolvent(handle, phi, f)
alg = truncated_form(q, phi, f).value
print(f"\ntruncated form, algebraic route:  {alg:.10f}")
print(f"truncated form, resolvent ladder: {res.limit:.10f} (converged={res.converged})")

# For simple functions the approximating form decomposes into edge and
# killing coefficients; damping by a cutoff never increases them.
table = truncated_coefficients(handle, 2.0, phi, [["v1"], ["v3"], ["v5"]])
print("\ncoefficient table at alpha = 2 (plain vs cutoff-damped):")
print("  b[0,1] =", f"{table.b[0,1]:.6f}", " b_phi[0,1] =", f"{table.b_phi[0,1]:.6f}")
print("  c[0]   =", f"{table.c[0]:.6f}", " c_phi[0]   =", f"{table.c_phi[0]:.6f}")
