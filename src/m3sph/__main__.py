"""``python -m m3sph``: the command-line interface of m3sph.cli."""

from .cli import main

raise SystemExit(main())
