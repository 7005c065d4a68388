"""Two delta-interacting particles on a star graph.

Explicit construction of the complete real-momentum eigensolution basis
and numerical verification of every boundary condition, linear system
and kernel dimension involved: vertex matching, diagonal continuity and
jump, transform-side conditions, kernel decompositions, and quadrature
synthesis of square-integrable eigenfunctions.
"""
