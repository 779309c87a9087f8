"""Entry point of the installed ``majorant`` script.

The script imports this module, not ``majorant.cli``: neither this module
nor the package's ``__init__`` imports NumPy, so the collector can be
turned off before ``majorant.cli`` and its imports load, as it is when
``python -m majorant.cli`` runs that module as ``__main__``.
"""

import gc


def run() -> None:
    """Run ``majorant.cli.run_process`` with the collector off during its imports."""
    gc.disable()  # ``run_process`` turns it back on
    from .cli import run_process

    run_process()
