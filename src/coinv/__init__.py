"""coinv: exact-arithmetic workbench for cosovereign Hopf coactions.

Builds the universal cosovereign Hopf algebra of an invertible rational
matrix F, coactions on free bimodule algebras, degree-truncated relation
ideals, and certified coinvariant computations, and uses them to certify
free and classical first-fundamental-theorem statements over Q.
"""

import sys

__version__ = "0.1.0"


def main() -> None:
    """The `coinv` console script and `python -m coinv.cli`: run the command
    line, and exit 4, cli's internal-error code, on any exception.  The
    engine is imported inside that guard, so running out of memory while
    importing it exits 4 too, never 1, the mismatch code."""
    try:
        from .cli import run
        code = run(sys.argv[1:])
    except Exception:
        try:  # exit 4 even if the traceback cannot be printed, say out of memory
            import traceback  # only an internal error needs it, so start-up skips it
            traceback.print_exc()
        finally:
            sys.exit(4)
    sys.exit(code)
