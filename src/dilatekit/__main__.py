"""``python -m dilatekit``: the ``dilatekit`` command line."""
from .cli import main

raise SystemExit(main())
