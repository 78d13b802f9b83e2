"""Restriction along increasing height: what survives the inverse limit.

Run with: python3 demos/05_stabilization.py
"""

from frobkern.grmodel import (
    bracket_p,
    build_Sbar,
    in_bracket_image,
    iterated_bracket,
    model_context,
)

ctx = model_context("A", 2, i=1, stage=3, r=3, p=3)
model = build_Sbar(ctx)
print(f"height-3 model: {model!r}")

print("\n=== one height step down ===")
bracket = bracket_p(model)
for v in model.ring.variables:
    print(f"  {v.name:16s} -> {bracket.apply(model.ring.var(v.name))}")

print("\n=== relation images stay inside the smaller ideal ===")
from frobkern.polyalg import normal_form

for rel, image in bracket.relation_images():
    remainder = normal_form(image, bracket.target.relations)
    print(f"  {rel}  ->  {image if not image.is_zero() else 0}   remainder {remainder}")

print("\n=== collapse of the top-level part in the limit ===")
target_ctx = model_context("A", 2, i=1, stage=3, r=2, p=3)
target = build_Sbar(target_ctx)
for s in (1, 2):
    print(f"  image of the {s}-fold composite into the height-2 model:")
    top = [g for g in target.generators if g.name in target.top_generators()]
    for g in top:
        hit = in_bracket_image(target, target.ring.var(g.name), s)
        deg = g.degree
        note = f"degree {deg} < p^{s} = {3 ** s}" if deg < 3**s else f"degree {deg}"
        print(f"    {g.name:14s} in image: {hit}   ({note})")
    power = target.var("w", top[0].root, 0) ** (3**s)
    print(f"    ...but its p^{s}-th power is hit: {in_bracket_image(target, power, s)}")

print("\n=== composing two steps ===")
composite = iterated_bracket(model, 2)
print(f"  lands in: {composite.target!r}")
sample = model.ring.var(model.top_generators()[0])
print(f"  {sample} -> {composite.apply(sample)}")
