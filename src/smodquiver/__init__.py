"""Quivers with quadratic relations for categories of special modules.

The pipeline: a `JordanSpec` (simple ideals plus a square-zero radical)
maps to a graded Lie datum, whose module category is presented by a colored
quiver with quadratic relations; exact character computations over the
classical root systems back every step, and a resolution engine certifies
linearity of the graded resolutions.

Callers import a name from its home module (`from smodquiver import
jordan`, then `jordan.validate_spec`).  Importing the package loads no
submodule, so each CLI subcommand loads only the layers it runs.
"""
