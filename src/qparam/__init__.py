"""Parameterized quantum complexity toolkit.

Weight-restricted local-Hamiltonian minimization, fixed-weight witness
gadgets, statevector circuit simulation with weft metrics, Monte-Carlo
amplitude/gap estimators, exact slice deciders, and the path-model
Jones-polynomial pipeline — all with exact brute-force oracles at desk scale.
"""
__version__ = "0.1.0"
