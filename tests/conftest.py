"""Shared pytest set-up.

On a failing example, hypothesis's pytest plugin imports
``hypothesis.extra._patching``, whose ``libcst`` import warns
``DeprecationWarning`` (from ``mypy_extensions.TypedDict``).  The
``error::DeprecationWarning`` filter in ``pyproject.toml`` would turn that
warning into an internal error that ends the session after the first
failing property test, so the module is imported once here, with its
import-time warnings silenced.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin never reaches this import
        pass
