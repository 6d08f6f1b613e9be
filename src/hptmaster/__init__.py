"""Exact homotopy transfer for dg Lie and BV algebras over the rationals.

Everything is exact: maps, structure tables and eliminations keep int
numerators over a common denominator, and fractions.Fraction values are
built at the boundary and in the BV and Maurer-Cartan layers.  It
covers contractions onto homology, the twisting-cochain recursion
producing the transferred higher structure, the basic perturbation
lemma, the Gerstenhaber/BV formality pipelines, and the Maurer-Cartan
deformation layer.
"""

__version__ = "0.1.0"
