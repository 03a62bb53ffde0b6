"""Seeded random systems, and documents as lists, shared by the test modules."""

import numpy as np

from citenoise import build_system


def as_lists(value):
    """``value`` with every array in it, at any depth, as its ``.tolist()``,
    each record of a structured array as a dict of its fields (a nested
    record as a nested dict), and every dict and list rebuilt: a copy of a
    document to edit, or to pass to ``json.dumps``."""
    if isinstance(value, np.ndarray):
        return _records_as_dicts(value.tolist(), value.dtype)
    if type(value) is dict:
        return {key: as_lists(item) for key, item in value.items()}
    if type(value) is list:
        return [as_lists(item) for item in value]
    return value


def _records_as_dicts(item, dtype):
    """``item``, from ``.tolist()`` of an array of ``dtype``, with each record
    as a dict; a field with a shape of its own comes out as an array."""
    if dtype.names is None:
        return as_lists(item)
    if type(item) is list:
        return [_records_as_dicts(x, dtype) for x in item]
    return {name: _records_as_dicts(x, dtype[name].base) for name, x in zip(dtype.names, item)}


def random_system(rng, max_authors=8, max_papers=30, max_cited=15):
    """Small random system with every author owning at least one paper."""
    n_authors = rng.integers(1, max_authors + 1)
    j = rng.integers(n_authors, max_papers + 1)
    k = rng.integers(1, max_cited + 1)
    owners = list(range(n_authors)) + list(rng.integers(0, n_authors, j - n_authors))
    rng.shuffle(owners)
    realized = rng.integers(0, 2, (j, k))
    accurate = rng.integers(0, 2, (j, k))
    return build_system(
        [f"a{i}" for i in range(n_authors)],
        [(f"p{idx}", o) for idx, o in enumerate(owners)],
        [f"c{kk}" for kk in range(k)],
        realized,
        accurate,
    )
