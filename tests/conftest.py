"""Test-session setup.

Importing ``gbs_page.cli`` before any test module loads numpy applies the
CLI's BLAS thread rule to the whole session: unless one of
``BLAS_THREAD_VARS`` is set, all of them are set to 1. Tests that run
samples on several worker threads then get one BLAS thread per worker, as
the CLI's users do, instead of BLAS threads that compete for the cores.
"""

import gbs_page.cli  # noqa: F401
