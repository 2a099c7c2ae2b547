"""``python -m parsym``: the command line of ``parsym.cli``."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
