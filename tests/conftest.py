"""The Hypothesis profile every property test runs under: no deadline,
as one example may build a large image, and no example database, so a
run replays only what its seed draws."""

from hypothesis import settings

settings.register_profile("forest_cycles", deadline=None, database=None)
settings.load_profile("forest_cycles")
