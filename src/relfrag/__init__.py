"""Decision machinery for bounded-occurrence fragments of the calculus
of relations: terms and finite-model semantics, the four-class constant
quotient, context words over the four-letter alphabet, shortlex string
rewriting, pattern automata with cofiniteness checking, the equation
search loop, and first-order proof-obligation export.  Import the
submodules (``relfrag.decide``, ``relfrag.terms``, ...) directly."""

__version__ = "0.1.0"
