"""Differentials, the Steenrod fragment and the weight-space search.

Run with: python3 demos/04_spectral_formulas.py
"""

from frobkern.grmodel import model_context
from frobkern.rootsys import Root
from frobkern.specseq import (
    ExtensionPage,
    aj_E1_enumerate,
    d2_on_y,
    first_nonvanishing_differential,
    permanent_cycle_monomial,
    steenrod_apply,
    transgression_power,
    uniqueness_witness,
)

beta = Root((1, 1))
ctx = model_context("A", 2, i=1, stage=3, r=2, p=3)
page = ExtensionPage(ctx)

print("=== the second-page differential on the fiber classes ===")
for twist in range(2):
    print(f"  d(y[{beta.label()}]({twist})) = {d2_on_y(page, beta, twist)}")

print("\n=== transgressions of p-th power classes ===")
for twist, j in [(0, 0), (1, 0), (0, 1)]:
    value = transgression_power(page, beta, twist, j)
    page_no = 2 * 3**j + 1
    print(f"  page {page_no}, twist {twist}: {value if not value.is_zero() else 0}")

print("\n=== deriving the transgression with the Bockstein composite ===")
lhs = steenrod_apply(page, "bP0", d2_on_y(page, beta, 0))
print(f"  bP0(d(y)) = {lhs}")
print(f"  agrees with the transgression: {lhs == transgression_power(page, beta, 0, 0)}")

print("\n=== permanent cycles in the fiber polynomial part ===")
for mono in [{(beta, 1): 1}, {(beta, 0): 1}, {(beta, 0): 3}, {(beta, 0): 3, (beta, 1): 2}]:
    label = " * ".join(f"x[{b.label()}]({t})^{n}" for (b, t), n in mono.items())
    by_rule = permanent_cycle_monomial(mono, r=2, p=3)
    scan = first_nonvanishing_differential(page, mono)
    shown = "permanent" if by_rule else f"dies on page {2 * 3**scan[0] + 1}"
    print(f"  {label:28s} {shown} (rule and scan agree: {by_rule == (scan is None)})")

print("\n=== the weight-space search behind the lifted classes ===")
roots = [Root((1, 0)), Root((0, 1)), beta]
monos = aj_E1_enumerate(roots, r=2, p=3, total_degree=6, target_weight=(9, 9))
print(f"  degree 6, weight (9,9): {len(monos)} monomials")
for m in monos:
    print(f"    {m.name}")
report = uniqueness_witness(ctx, beta)
print(f"  survivors after the first-differential classification: {report.surviving_count}")
for mono, why in report.paired:
    print(f"    removed {mono.name}: {why}")
