"""``python -m stampcover`` runs the same entry point as the console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
