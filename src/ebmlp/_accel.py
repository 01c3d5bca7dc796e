"""Sampling-kernel backend selection.

The kernels in ``_kernels`` are vectorized numpy, and numpy is the only
backend. The EBMLP_BACKEND environment variable and the ``backend``
option are kept so that existing settings keep working: both accept
"numpy" (or nothing) and reject any other name, "numba" included, with an
error that lists what is available.
"""

import os

BACKENDS = ("numpy",)


def check_backend(backend):
    """Return ``backend`` when it names an available backend (None picks
    the default); raise ValueError otherwise."""
    if backend is None or backend in BACKENDS:
        return backend
    raise ValueError(f"unknown backend {backend!r}; available: {', '.join(BACKENDS)} (the numba kernels were removed)")


def _resolve_backend():
    choice = os.environ.get("EBMLP_BACKEND", "").strip().lower()
    try:
        check_backend(choice or None)
    except ValueError as exc:
        raise ValueError(f"EBMLP_BACKEND: {exc}") from None
    return BACKENDS[0]


BACKEND = _resolve_backend()


def active_backend():
    """Name of the sampling-kernel backend in use."""
    return BACKEND


def available_backends():
    """Backends usable on this machine, preferred first."""
    return BACKENDS
