"""python -m quivercount: the command-line interface of quivercount.cli."""

import sys

from .cli import main

sys.exit(main())
