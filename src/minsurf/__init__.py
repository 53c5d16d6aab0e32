"""Numerical laboratory for minimal surfaces in products of 2D real
space forms carrying the neutral product metric (g, -g).

Subpackages by role: ``algebra`` (signature linear algebra and the
unified complex / split-complex scalar), ``product`` (the two
(para-)Kahler structures of the ambient product), ``immersion``
(sampled surfaces, jets, curvatures), ``surfaces`` (named example
constructors), ``fundata`` (fundamental data extraction and the
compatibility system), ``gordon`` (sinh/sin-Gordon solvers and the
explicit families), ``frenet`` (frame reconstruction), ``cli`` (the
``minsurf`` command).
"""

__version__ = "0.1.0"

from .algebra import ScalarEps  # noqa: F401
from .immersion import GridSpec, ImmersionGrid  # noqa: F401
from .fundata import FundamentalData  # noqa: F401
from .gordon import GordonSolution  # noqa: F401
