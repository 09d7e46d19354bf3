"""python -m dephaser: the dephaser command line (see cli)."""

import sys

from .cli import main

sys.exit(main())
