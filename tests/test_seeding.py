import pytest

from hopmap.seeding import run_seed


@pytest.mark.parametrize(
    "part, error, message",
    [(-1, ValueError, "seed path entries must be nonnegative, got -1"),
     (1.5, TypeError, "seed path entries must be int or str, got float")],
)
def test_bad_path_entry_rejected(part, error, message):
    with pytest.raises(error) as info:
        run_seed(0, part)
    assert str(info.value) == message
