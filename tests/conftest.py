"""One Hypothesis profile and one seed rule for every property test.

The profile turns off the deadline (a first run pays numpy's warm-up) and
the example database (a run draws only what its seed gives).  Each
property is seeded from its module and name alone, so it draws the same
cases after any edit of its body or helpers, on every Python, and under
`-k` as in the full run.  An `@settings` holds only its `max_examples`;
`test_properties.test_every_property_runs_under_the_profile_with_its_names_seed`
checks both rules."""

import zlib

from hypothesis import is_hypothesis_test, seed, settings

PROFILE = "cukf"

# Built on Hypothesis's own "default" profile, not on the active one:
# Hypothesis loads its "ci" profile (derandomize=True) when it sees a CI
# environment.
settings.register_profile(PROFILE, settings.get_profile("default"),
                          deadline=None, database=None)
settings.load_profile(PROFILE)


def name_seed(test):
    """The seed of a property: the CRC-32 of `module.qualname`."""
    return zlib.crc32(f"{test.__module__}.{test.__qualname__}".encode())


def pytest_collection_modifyitems(items):
    for item in items:
        if is_hypothesis_test(getattr(item, "obj", None)):
            seed(name_seed(item.obj))(item.obj)
