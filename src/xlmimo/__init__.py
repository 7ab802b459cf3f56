"""Near-field, spatially non-stationary channel synthesis for extremely
large aperture arrays, with a metrics engine and a command-line pipeline.

Names are imported from their submodules (``from xlmimo import channel``);
the package root exports none, so ``import xlmimo`` loads no numpy.
"""

from ._threads import apply_thread_env as _apply_thread_env
from .errors import ConfigError

try:
    _apply_thread_env()
except ConfigError:
    pass  # importing stays possible; cli.main reports the value with exit 2

__version__ = "0.1.0"
