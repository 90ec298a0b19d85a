"""Committed expected data for the reproduction targets.

The rt rows are compared up to rotation and inversion of each word; the
other tables are compared literally.
"""

# (m, n) -> row; n = None means infinite order.
TABLE1 = {
    (2, 3): {"trace_c": 3, "lambdas": [1], "modulus": 2, "traces": [1, 3]},
    (2, None): {"trace_c": 6, "lambdas": [1, 5], "modulus": 8, "traces": [-2, 6]},
    (3, 3): {"trace_c": 6, "lambdas": [1, 5], "modulus": 8, "traces": [-2, 6]},
    (3, None): {"trace_c": 18, "lambdas": [1, 17], "modulus": 32, "traces": [-14, 18]},
}

# (m, n, t) -> (representatives, representatives in the derived subgroup)
RT_TABLE = {
    (2, 3, 3): (["a b a-1 b-1"], ["a b a-1 b-1"]),
    (2, None, 6): (["a b a-1 b-1", "a b3", "a b-3", "a b a b2", "a b-1 a b-2"],
                   ["a b a-1 b-1"]),
    (3, 3, 6): (["a b a-1 b-1", "a b2 a-1 b-2"],
                ["a b a-1 b-1", "a b2 a-1 b-2"]),
    (3, None, 14): (["b2 a2", "a b-2"], []),
    (3, None, 18): (["a b a-1 b-1", "a b-1 a-1 b"],
                    ["a b a-1 b-1", "a b-1 a-1 b"]),
}

# defining generators; "c" rows double-checked as commutators of a and b
EMBEDDINGS = {
    (2, 3): {"a": [[0, -1], [1, 0]], "b": [[0, -1], [1, 1]], "c": [[2, 1], [1, 1]]},
    (2, None): {"a": [[0, -1], [1, 0]], "b": [[0, 1], [-1, -2]], "c": [[5, 2], [2, 1]]},
    (3, 3): {"a": [[0, -1], [1, 1]], "b": [[1, -1], [1, 0]], "c": [[1, -2], [-2, 5]]},
    (3, None): {"a": [[0, -1], [1, 1]], "b": [[-3, 1], [-1, 0]], "c": [[1, -4], [-4, 17]]},
}

CLASS_NUMBERS = {70: 1, 108: 1, 329: 2, 460: 2, 3780: 1}

# class representatives for k = 329 and their invariant profiles
GENUS_329 = [
    {"rep": [-4, 4, 11], "profile": {"2": 1, "3": 1, "5": 1, "13": 1, "inf": 1}},
    {"rep": [-3, 8, 8], "profile": {"2": 1, "5": -1, "13": -1, "inf": 1}},
]

# commutator-trace images in Z/9 and Z/16, the one copy of the trace
# obstruction that markoff.admissible_t reads; `repro hfu2-images` checks
# them against quotients.trace_commutator_image
HFU2_IMAGES = {
    9: [0, 2, 3, 6, 7],
    16: [2, 3, 6, 7, 11, 14, 15],
}
