"""``python -m crysred``: the command-line interface, with its exit codes."""
from .cli import main

raise SystemExit(main())
