"""``python -m hypershuffle``: the same command line as ``hypershuffle``."""

import sys

from .cli import main

sys.exit(main())
