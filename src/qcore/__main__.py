"""``python -m qcore``: one command in a fresh process.

The cyclic collector goes off before the first import, so compiling and
importing ``cli``, ``products``, ``series`` and the rest runs without
collections; ``cli.run`` says why a one-shot process does without it.
"""

import gc

gc.disable()

from .cli import run  # noqa: E402  (after the collector is off)

run()
