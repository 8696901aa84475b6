"""A planted relational file that only the bilinear form can fit.

24 entities in 6 types of 4, and 20 relations. Relation r links every
entity of type t to every entity of type pi_r(t), for its own random
permutation pi_r of the types. Every (lhs, rel, rhs) triple is listed:
11,520 records, one in six of them positive.

The linear energy's lhs-rhs term, ``el^T W_l1^T W_r1 eh``, is the same for
every relation, so relations that map the types by different permutations
are out of its reach. The bilinear form contracts the relation embedding
into its maps and can fit each one.
"""

import numpy as np

N_TYPES, PER_TYPE, N_RELATIONS = 6, 4, 20


def permutation_records(seed: int):
    """(lhs, rel, rhs, label) records of the planted file drawn with ``seed``."""
    rng = np.random.default_rng(seed)
    kind = np.arange(N_TYPES * PER_TYPE) // PER_TYPE
    records = []
    for r in range(N_RELATIONS):
        image = rng.permutation(N_TYPES)
        for a, ka in enumerate(kind):
            for b, kb in enumerate(kind):
                records.append((f"e{a}", f"r{r}", f"e{b}", int(image[ka] == kb)))
    return records
