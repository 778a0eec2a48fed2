"""``python -m atlm ...`` runs the command-line interface (see :mod:`atlm.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
