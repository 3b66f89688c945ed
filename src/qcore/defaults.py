"""Defaults of verification, shared by ``identities`` and the command-line
parser; a module of their own, so that building the parser imports no
registry."""

DEFAULT_ORDER = 1000    # the working order of verify (and of bfile)
DEFAULT_KMAX = 3        # the largest k a family is checked at
