"""scepoly: exact closed-form antiderivatives of x^n sin x, x^n cos x and
x^n e^(mx), the polynomial families they are made of, their generating
functions, and the degenerate-weight generating-function formula.  The
public names are those of each library module's ``__all__``."""

from . import families, genfunc, integrals, poly, rational, report, suites
from .families import *  # noqa: F403
from .genfunc import *  # noqa: F403
from .integrals import *  # noqa: F403
from .poly import *  # noqa: F403
from .rational import *  # noqa: F403
from .report import *  # noqa: F403
from .suites import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name for module in (families, genfunc, integrals, poly, rational, report, suites) for name in module.__all__
] + ["__version__"]
