#!/usr/bin/env python3
"""Split criterion, indecomposability certificates, canonical decomposition."""

import random

import groupcodes as gc
from groupcodes.catalog import binary_repetition, even_weight_code, z4_example_code

# A code splits along (J, K) exactly when |C| = |pi_J| * |pi_K|.
# The Z/4 example fails every bipartition, so it is indecomposable.
C = z4_example_code()
print("the Z/4 example, |C| = 8:")
for J in ((0,), (1,), (2,)):
    K = tuple(i for i in range(3) if i not in J)
    pj, pk = gc.projection(C, J).size, gc.projection(C, K).size
    print(f"  |pi_{J}| * |pi_{K}| = {pj} * {pk} = {pj * pk}  (needs 8)")
print("split witness:", gc.is_decomposable(C))

# Certificates skip the exponential search when a theorem already decides:
# nontrivial MDS, nontrivial perfect, nondegenerate constant-weight group
# codes, and nondegenerate prime-cardinality codes are all indecomposable.
for code, name in [(binary_repetition(3), "repetition"),
                   (even_weight_code(3), "even-weight"),
                   (gc.full_space(gc.cyclic_group(2), 2), "full plane")]:
    print(f"{name}: certificate = {gc.indecomposability_certificate(code)}")

# Decomposition takes the canonical witness of the rest as a final block,
# block by block, and groups the components into isotypes, with a
# coordinate-permutation witness.
D = even_weight_code(3)
square = gc.direct_sum(D, D)
dec = gc.decompose(square)
print("\nD + D decomposes with blocks", dec.partition.blocks,
      "and isotypes", dec.isotypes)

# Scramble a sum by a random automorphism-compatible isometry and watch
# the decomposition recover the construction exactly.
rng = random.Random(1)
total = gc.direct_sum(D, gc.direct_sum(binary_repetition(3), binary_repetition(3)))
perm = list(range(total.length))
rng.shuffle(perm)
iso = gc.from_permutation(tuple(perm), 2)
scrambled = gc.GroupCode.from_words(total.alphabet, total.length,
                                    gc.apply_to_code(iso, total).words)
dec = gc.decompose(scrambled)
print("\nscrambled D + R + R came back as:")
for rep_idx, alpha in dec.isotypes:
    comp = dec.components[rep_idx]
    print(f"  alpha = {alpha}  component with n = {comp.length}, |C| = {comp.size}")
rebuilt = gc.apply_to_code(dec.witness, scrambled)
print("witness reassembles the direct sum exactly:",
      rebuilt.words == gc.direct_sum_all(list(dec.components)).words)
