"""The walks pinned on the benchmark's market shapes.

Each market pins, for the student-side legal walk, the school-side legal
walk and the consent walk at rate 0.5, the counters and a sha256 of the
removed edges in removal order; for the legal subinstance, its counters
and a sha256 of its sorted legal edges.  A change to a walk that keeps its
assignments but moves a removal, a scan or a rotation fails here.
"""
import hashlib

import pytest

from legalassign import (Counters, GenConfig, generate, legal_subinstance, rotate_remove,
                         rotate_remove_consent, sample_consent)

#: the four tall-top10 markets and the square-complete one
MARKETS = [GenConfig(2000, 20, quota_model="nyc", list_length=10, seed=k) for k in range(4)]
MARKETS.append(GenConfig(300, 300, quota_lo=1, quota_hi=1, seed=0))

#: per market: (Counters fields, digest) of rotate_remove(inst, "students"),
#: rotate_remove(inst, "schools"), rotate_remove_consent at consent rate 0.5
#: (seed 0) and legal_subinstance
PINS = [
    (
        ((15519, 15519, 17498, 46, 12494, 1), "a808966db0b1442b619125ede416a250720a534465e43411c2eed3ea58cf4207"),
        ((2548, 6435, 4500, 40, 368, 1), "58cf7ae9c2cfe1f4c49330f0bde66b8789e96d837aba2e8496865a67c5890714"),
        ((2548, 6435, 289, 0, 4225, 1), "78a359762830a9cd7f43645bb58071addca65bcd9c61d116264eeb7dff9a4ccc"),
        ((2548, 6435, 21998, 86, 12862, 1), "8f68d5af72c7c33e523dc839dfa707b902879ec08a8144451c3cbf97eedee16d"),
    ),
    (
        ((3344, 3344, 9868, 1, 1664, 1), "d00fd91678f61979c36e71c73b382a3186ea9088e038c54138990eec1131504a"),
        ((10133, 23599, 17012, 498, 3677, 1), "dfb9110eef7800605a49af0494d6ef347331312e85bd1f94da57f8bd915d127a"),
        ((10133, 23599, 114, 2, 16594, 1), "bee697285260c467e3597ecaabdde6cb0faf0772c659659004956519db99d367"),
        ((10133, 23599, 26880, 499, 5341, 1), "554e878e5ffaaa2fe1f19a65ead66ec898a9a57abc9a392cd3590efc747d7bb1"),
    ),
    (
        ((14517, 14517, 17329, 104, 10030, 1), "2600dde66a99d48ff3ced7d03c63cd7ac7ecf046af5f80b44d35d8741d5d5827"),
        ((2775, 7479, 5546, 89, 376, 1), "1e6803036b70136f5046ca1ec29394722f2e97d2c8892459aea26fc888535f42"),
        ((2775, 7479, 335, 6, 5188, 1), "603d0eb9ae07561a055fd416a394d307dd5a1f41fde51233ca614178f4987bd6"),
        ((2775, 7479, 22875, 193, 10406, 1), "9dff531a5fba0e1dd35df1fec3114965fa5e0e85f0d811a5d7ecd24043eab57c"),
    ),
    (
        ((16752, 16752, 17674, 52, 13380, 1), "c41994ad101078306f473c7146a852961f307a52bb61703b92a412e5127fcbe0"),
        ((2376, 5212, 3260, 26, 286, 1), "13236cce224c7c6b4c47b89be534ddec245197d4782dc41fd357f2994ce2fae4"),
        ((2376, 5212, 258, 0, 3012, 1), "fc69b9a39226a74480184ac84093d247dcebc9497d14cac5e3a89ef4b803bfe7"),
        ((2376, 5212, 20937, 79, 13666, 1), "f93ec9e33545220b1d71689235527dbba7d3220e373ac3e9db45440f64c1a43a"),
    ),
    (
        ((1973, 1973, 76177, 29, 427, 1), "e278826b367ba10f8dd93ddd956488c9a65f790f4ec9ef860098ad818e188f1d"),
        ((2096, 32406, 77888, 28, 589, 1), "d4409408eafc0e3e31613c7f1f97c95b3cab8095b8395989642baa77e1967d4a"),
        ((2096, 32406, 32601, 12, 45765, 1), "606dcb5bb41f8c9725f13b8bc3bf46dcc38cda1a3a8de16ef3877f31bf9618ed"),
        ((2096, 32406, 165871, 110, 1016, 1), "78b4ca26bd1dca2722383c47a2b1f24461cdde0bfdb57f2d5a8273ef77964d08"),
    ),
]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("cfg, pins", zip(MARKETS, PINS),
                         ids=[f"tall-top10-{k}" for k in range(4)] + ["square-complete"])
def test_walks_are_pinned(cfg, pins):
    inst = generate(cfg)
    runs = [rotate_remove(inst, "students"), rotate_remove(inst, "schools"),
            rotate_remove_consent(inst, sample_consent(inst, 0.5, 0))]
    got = [(run.counters, _digest(run.removed_edges)) for run in runs]
    report = legal_subinstance(inst)
    got.append((report.counters, _digest(sorted(report.legal_edges))))
    assert got == [(Counters(*fields), digest) for fields, digest in pins]
