"""``python -m hkxor``: the ``hkxor`` command line, runnable without installing."""

import sys

from .cli import main

sys.exit(main())
