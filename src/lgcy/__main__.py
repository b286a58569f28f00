"""``python -m lgcy``: the batch front-end of ``lgcy.cli``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
