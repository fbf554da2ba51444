import pickle

import pytest

from gridmono.errors import CapacityError, FormatError, IntegrityError, NotGoodError


@pytest.mark.parametrize("error", [
    CapacityError("grid", 1 << 70, 1 << 62),
    CapacityError("line sweep", 17, 16, "points per axis"),
    IntegrityError("pilot rate not separated from zero"),
    NotGoodError("pair is not layered"),
    FormatError("bad header"),
])
def test_errors_survive_a_pickle_round_trip(error):
    # a worker process's exception reaches the caller through pickle
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back) == vars(error)
