"""commlab: exact-arithmetic experiments on explicit matrix groups.

Discreteness and freeness for two-parabolic groups, shortest relators,
Bruhat-Tits tree computations, and irreducibility diagnostics for
S-arithmetic subgroups of SL(2, Q). Everything is exact; no floats.
"""
