"""Seeded random systems shared by the test modules."""

from citenoise import build_system


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
