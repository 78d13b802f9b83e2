"""Build the Heisenberg model algebra at height 2 over F_3 and inspect it.

Run with: python3 demos/02_model_algebras.py
"""

from frobkern.grmodel import (
    build_Q,
    build_Sbar,
    model_context,
    top_free_factor,
)
from frobkern.polyalg import graded_dimension

ctx = model_context("A", 2, i=1, stage=3, r=2, p=3)
print(f"context: {ctx.label()}")

sbar = build_Sbar(ctx)
print("\n=== generators ===")
for g in sbar.generators:
    print(f"  {g.display():22s} degree {g.degree:2d}  weight {g.weight()}")

print("\n=== defining relations ===")
for rel in sbar.relations:
    print(f"  {rel} = 0")

print("\n=== graded dimensions (Hilbert values) ===")
for d in range(0, 11, 2):
    print(f"  degree {d:2d}: {sbar.graded_dimension(d)}")

print("\n=== the splitting: quotient part (x) free top part ===")
q_model = build_Q(ctx)
top = top_free_factor(ctx)
for d in range(0, 11, 2):
    conv = sum(
        q_model.graded_dimension(a) * graded_dimension(top, d - a) for a in range(d + 1)
    )
    mark = "ok" if conv == sbar.graded_dimension(d) else "MISMATCH"
    print(f"  degree {d:2d}: convolution {conv:4d}  [{mark}]")

print("\n=== a weight-refined slice ===")
for w in [(3, 0), (9, 9), (12, 3)]:
    dims = [sbar.graded_dimension(d, weight=w) for d in range(0, 9, 2)]
    print(f"  weight {w}: dims by degree 0..8 = {dims}")
