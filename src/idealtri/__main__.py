"""``python -m idealtri``: the ``idealtri`` console script."""

from .cli import main

main()
