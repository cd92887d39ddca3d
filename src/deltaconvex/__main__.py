"""``python -m deltaconvex``: the ``deltaconvex`` command line."""

import sys

from .cli import main

sys.exit(main())
