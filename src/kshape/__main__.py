"""``python -m kshape``: the same command line as the ``kshape`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
