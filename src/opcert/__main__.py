"""``python -m opcert``: the ``opcert`` command line."""

import sys

from .cli import main

sys.exit(main())
