"""Copies of polymod's record classes with some fields changed, for the
tests that plant faults in a built complex or Lorentz model."""


def replace(obj, **changes):
    """A copy of record ``obj`` with ``changes`` applied; ``__post_init__`` runs again."""
    return type(obj)(**{**{f: getattr(obj, f) for f in type(obj).__match_args__}, **changes})
