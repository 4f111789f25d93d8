"""Moduli of convexity and separated sequences in finite-dimensional l^p.

Computes the modulus of convexity of l^p-type spaces (closed form,
implicit equation, randomized adversarial estimation), constructs
separated sequences on unit spheres via Ramsey dichotomy plus greedy
normalized differences, and verifies the quantitative uniform Kadec-Klee
statements by randomized search with reproducible counterexample reports.

The API lives in the submodules :mod:`uconvex.spaces`,
:mod:`uconvex.rounding`, :mod:`uconvex.curves`, :mod:`uconvex.modulus`,
:mod:`uconvex.sequences`, :mod:`uconvex.sampling`, :mod:`uconvex.search`,
:mod:`uconvex.verify` and :mod:`uconvex.errors`; this package module imports none of them, so
``import uconvex`` loads no numpy and :mod:`uconvex.cli` can set up
numpy's environment before numpy is imported.
"""

__version__ = "0.1.0"
