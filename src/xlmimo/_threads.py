"""Thread-pool capping via the XLMIMO_NUM_THREADS environment variable.

Linear-algebra backends size their pools when numpy first loads, so this
must run before that import; both the package root and the CLI call it
first thing.  The package root skips a bad value, so that importing never
fails; ``cli.main`` reports it as a configuration error (exit 2).
"""

import os

from .errors import ConfigError

ENV_VAR = "XLMIMO_NUM_THREADS"

_BACKEND_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def apply_thread_env() -> None:
    """Propagate ``XLMIMO_NUM_THREADS`` to the backend thread-pool variables.

    Existing backend settings are left untouched.  Raises ``ConfigError``
    for a non-positive or non-integer value.
    """
    value = os.environ.get(ENV_VAR)
    if value is None:
        return
    if not (value.isascii() and value.isdigit()) or int(value) < 1:
        raise ConfigError(f"{ENV_VAR} must be a positive integer, got {value!r}")
    for var in _BACKEND_VARS:
        os.environ.setdefault(var, value)
