#!/usr/bin/env python3
"""Cyclic group codes: interleaving, structure, the gcd test, and joins."""

import groupcodes as gc
from groupcodes.catalog import binary_repetition, even_weight_code, repetition_code

# D is cyclic: shifting any codeword lands in the code.
D = even_weight_code(3)
print("D cyclic:", gc.is_cyclic(D), " shift orbits:", gc.shift_orbit_sizes(D))

# Interleaving rearranges l copies of a cyclic code into a cyclic code of
# length l*m, via sigma(s*m+r) = (r-1)*l + (s+1) applied in push form.
sigma = gc.interleave_permutation(3, 2)
print("\ninterleaving permutation for m=3, l=2:", sigma)
C = gc.interleave(D, 2)
equiv = gc.Equivalence(tuple(s - 1 for s in sigma))
print("the 16 rows (input from D^2 -> output in C):")
for a in D.words:
    for b in D.words:
        src = a + b
        print("   ", src, "->", gc.apply_push(equiv, src))
print("output cyclic:", gc.is_cyclic(C), " |C| =", C.size)

# A decomposable cyclic group code always splits into pairwise-isomorphic,
# individually cyclic components.
s = gc.cyclic_structure(C)
print("\nstructure of the interleaved code: multiplicity", s.multiplicity,
      " component is D again:", gc.gc_isomorphic(s.component, D) is not None)

full = gc.full_space(gc.cyclic_group(2), 3)
s = gc.cyclic_structure(full)
print("structure of (Z/2)^3: multiplicity", s.multiplicity,
      " component length", s.component.length)

# The gcd certificate: if the exponent gcd of |C| is coprime to n, the
# code cannot decompose (all components would be isomorphic, forcing the
# multiplicity to divide both).
for code, name in [(D, "D (|C|=4, n=3)"),
                   (full, "(Z/2)^3 (|C|=8, n=3)"),
                   (binary_repetition(4), "repetition (|C|=2, n=4)")]:
    print(f"gcd certificate for {name}:", gc.gcd_certificate(code))
print("absence proves nothing: (Z/2)^3 is decomposable anyway:",
      gc.is_decomposable(full))

# The join bundles equal-length cyclic codes over the product group.
joined = gc.join([binary_repetition(2), repetition_code(gc.cyclic_group(3), 2)])
print("\njoin over", joined.alphabet.label, "has", joined.size,
      "words and is cyclic:", gc.is_cyclic(joined))
