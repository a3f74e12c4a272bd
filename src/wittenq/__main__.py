"""`python -m wittenq`: the wittenq command, also from a source checkout."""
from .cli import run

run()
