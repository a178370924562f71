"""singlab: exact invariants of graded hypersurface singularities.

Modules:

* ``abgroup``    finitely generated abelian groups, Smith normal form,
  box-minus products and degree maps
* ``weightcalc`` weight sequences, Gorenstein parameters, decomposition
  summaries, exceptional-object counts, graded doubling
* ``decompose``  ADE classification, minimal partitions h(d)/q(d),
  Rouquier-dimension verdicts
* ``quiverlab``  ADE quiver path algebras: Cartan/Coxeter data, module
  homs and extensions, ghost certificates
* ``mfengine``   graded matrix factorizations: strand cohomology,
  endomorphism checks, grading restriction and orbit identities
* ``linalg``     the one exact sparse elimination: rank, independent rows,
  pivot columns, nullspace and solve
* ``cli``        command-line front end with deterministic JSON reports
"""

__version__ = "0.1.0"
