"""The drawn matroids of ``_draws``: each size cap that a property test
draws at reaches every family, and keeps to its cap."""

import pytest
from hypothesis import Phase, find, settings
from hypothesis.errors import NoSuchExample

from _draws import FAMILIES, admitted, draws

# the size caps of the property tests' draws
SIZES = [7, 9, 10, 11]


@pytest.mark.parametrize("max_size", SIZES)
def test_each_setting_reaches_every_family(max_size):
    families = list(FAMILIES)
    assert admitted(max_size) == families
    seen = set()

    def all_seen(drawn):
        assert len(drawn.matroid.ground) <= max_size, drawn
        seen.add(drawn.family)
        return seen == set(families)

    try:
        find(draws(max_size), all_seen, settings=settings(max_examples=2000, phases=[Phase.generate]))
    except NoSuchExample:
        pass
    assert seen == set(families), set(families) - seen
