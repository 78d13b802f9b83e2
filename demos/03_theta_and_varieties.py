"""The substitution map into the model and the variety-side point counts.

Run with: python3 demos/03_theta_and_varieties.py
"""

from frobkern.commvar import (
    conjecture_check,
    dim_estimate,
    u3_y_closed_form,
    u4_component_counts,
    x_variety_system,
)
from frobkern.grmodel import (
    model_context,
    theta_degree_U3,
    theta_power_identities,
    theta_substitution,
)

print("=== theta on the Heisenberg quotient, height 2, p = 3 ===")
ctx = model_context("A", 2, i=1, stage=3, r=2, p=3)
theta = theta_substitution(ctx)
for name in sorted(theta.images):
    print(f"  {name:14s} -> {theta.images[name]}")
for ident in theta_power_identities(theta):
    print(
        f"  commutation ({ident.twist},{ident.twist2}) maps onto the level-2 "
        f"relation to the p^{ident.power} (sign {ident.sign:+d})"
    )

print("\n=== degree of the quotient-model extension ===")
for r, p in [(1, 3), (2, 3), (3, 3), (2, 5)]:
    print(f"  r={r}, p={p}: degree {theta_degree_U3(r, p)}")

print("\n=== exact point counts over small fields ===")
for r in (1, 2, 3):
    system = x_variety_system(3, r)
    for q in (3, 5):
        count = system.count(q)
        closed = u3_y_closed_form(q, r) * q**r
        est = dim_estimate(count, q)
        print(
            f"  r={r} q={q}: {count:7d} (closed form {closed}), "
            f"log_q = {est:.3f} vs dim {2 * r + 1}"
        )

print("\n=== the two four-strand components at height 2 ===")
for q, c in u4_component_counts(2, (3, 5)).items():
    counts = {label: c[label] for label in ("V1", "V2", "V1&V2")}
    print(f"  q={q}: Y={c['Y']}  {counts}  inclusion-exclusion residual {c['residual']}")

print("\n=== five strands: conjectural component family, evidence only ===")
report = conjecture_check(5, 2, q_list=(3,))
for member in report.family.members:
    print(
        f"  {member.label():12s} predicted dim {member.predicted_dim(2)}  "
        f"count {report.component_counts[member.label()][3]}"
    )
print(f"  |Y| = {report.y_counts[3]}, residual {report.residuals[3]}")
