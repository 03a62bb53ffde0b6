"""``python -m citenoise``: the same command line as the ``citenoise`` script."""

from .cli import main

if __name__ == "__main__":
    main()
