"""The command line as a module: python -m genxmod <command> ..."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
