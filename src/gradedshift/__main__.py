"""``python -m gradedshift``: the ``gradedshift`` command."""

import sys

from .cli import main

sys.exit(main())
