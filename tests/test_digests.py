"""Every benchmark job repeats its outputs bit for bit.

For each workload of perfbench/workloads.py, read as the benchmark runs it,
and each of four seeds, the test writes the inputs, sets up, runs one job and
hashes the job's digest (picks, estimates, alphas, gamma, tau, report fields)
with every float written by float.hex().  The properties digest holds no value
of f, so its hash also takes verify.subset_values of each oracle.  A change
that moves one bit of any of these fails here.

From CPython 3.12 on, the builtin sum of floats is compensated, so values
differ in their last bits between 3.11 and 3.12; each side has its table.
Print the table of the running interpreter with

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest

from pairsub import verify

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is no package)

SEEDS = (1, 2, 3, 9001)

LEFT_TO_RIGHT_SUM = {  # CPython 3.10 and 3.11
    ('city_optimistic', 1): 'e5fdf9f307f08304bf48a13b3cbaefc15b2d09ef2e35888292128e82f27679b3',
    ('city_optimistic', 2): '16285c84b9e261501e0b75c7799333d664afe8a39038af42f063b870a03db6e5',
    ('city_optimistic', 3): 'ed7b3df31ce50621c8c97f5108ef09f7211a1f4e475c4992e07b412b8e224c4b',
    ('city_optimistic', 9001): 'a3265755b8140d39593ae6337be40cb597deadc22668e6e88662fbf4510e0053',
    ('properties', 1): 'a533a96c8b56fdd65ec678c54a1617f78bea2bd09d1cf1ad7dda11938e9b4843',
    ('properties', 2): '4d32a6c93bc68cee8a700992592796e0c05cb960b2f092e1f98540a04b255440',
    ('properties', 3): 'dfd7d09f2f7668b1ea572e1b2f0bd2578e7ec347f062c8c8b2e3450f680839a6',
    ('properties', 9001): '859087bb8dd318a4aa6caf1fe6dcb7b444801ae5e2c16fa79883bff0d696df5d',
    ('sparse_pessimistic', 1): 'bf07540c13cb144113457d5bbe2eb1766c387520e19e8079601a48add3b76503',
    ('sparse_pessimistic', 2): 'ecad6df142d32d0ad5d81b868fd14034fc1e6f147d274ce9fd3e15b5e15bd13f',
    ('sparse_pessimistic', 3): 'e6ccbe9c325840603fb20bd6b9ef321e67d49e5670e8ba4b3827fc7cda79c1ef',
    ('sparse_pessimistic', 9001): 'bfe60e0b392cec7c410a7ae302cfd9afb849bfd0ae7292045f4c8ddc859e5d95',
    ('town_audit', 1): '32b604ff3965b2c456802237d5165c209bf7253916d86e6dd6419dfdb0bb552a',
    ('town_audit', 2): '213ac99c70071e3380efad27fc491c97a3f1d16ad76adadced7e9e9c4897e260',
    ('town_audit', 3): 'cd21012690d24432be8bf89e509d46734415e9787f8a8ff301fabd185b14df04',
    ('town_audit', 9001): 'dbf5ab32c291ed3ac8a4cb97349069842426dd1ea6e4c2cd6c3d1fe7b45b41d2',
}

COMPENSATED_SUM = {  # CPython 3.12 and 3.13
    ('city_optimistic', 1): 'f53f10d584fb3d0e72ce2acd8006dce73716b0f666431865786ce6fafe4e3bad',
    ('city_optimistic', 2): 'b7b41a991be38de7a94edfc9985213cdfa1ce0c632042535a2be93af16b9638d',
    ('city_optimistic', 3): '6ffdc38605d9ff90347158b4535113d64761a2a9f34681672d059ec8e56bb883',
    ('city_optimistic', 9001): 'f5c29499a3a04cc803c11212a308232ed9a70587d46bdebd0b51be42a81c1ec3',
    ('properties', 1): 'a0b7f4bc980d25d696317f014289de1367ac1f9eafd8227b3da344037338b659',
    ('properties', 2): '5482ee6afd2315282dc1e09365c5ac1df3cdb046e6803609e0198a9711f36fe4',
    ('properties', 3): '317210521ace3e0e4dd3d588741245faa9da06b003f10d6c4caccc12c9815d60',
    ('properties', 9001): 'f35b3cae587ada028d443460bc016cee87d3af9434de6074e5250dc123b9b143',
    ('sparse_pessimistic', 1): '6da5856a4e130b10e9bacb5392a90afc9208e2e239aba24797e4c040aa26cb68',
    ('sparse_pessimistic', 2): '9efb97a4d3c0a72b4c3165fcb07cf3c7e683ed8767e513d142d4fc590529fff8',
    ('sparse_pessimistic', 3): 'dafd892d531faeb4955b361cb4ed12081bd6092f4371d0b2a46eb8d325a72b00',
    ('sparse_pessimistic', 9001): '846decdbc2b7014acbb2f3fe4dd62edcfd77cfe38b01b96d3f1b7971a1544430',
    ('town_audit', 1): '56f95027567a9ab27c646cd58cd14f5a1b33c366b19a8f92fa51dfb1e02efa83',
    ('town_audit', 2): 'c82e3f1879262b031a1da14d52c5180171f502139f8f11feb6aa88b929e48a33',
    ('town_audit', 3): '89c2d030f25a84948a6c9ed68d9a479b82427ab23c8dda0b267714916d375416',
    ('town_audit', 9001): '733c3dd4ac5146a7770001a3fae2f772fab59ac769be464e1757489f835d5e6e',
}


def _text(value) -> str:
    """value with every float as float.hex(), so equal text is equal bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(_text, value)) + ")"
    return repr(value)


def job_hash(name: str, seed: int, directory: Path) -> str:
    """sha256 of one job's digest on workload name's inputs at seed."""
    workload = workloads.WORKLOADS[name]
    state = workload.setup(workload.write_inputs(random.Random(seed), directory))
    output = workload.job(state)
    expected = None
    if isinstance(workload, workloads.Pairwise):
        # the run's own order and estimates stand in for the reference, which
        # costs a second on the sparse instance: the hash pins them anyway
        run, _ = output
        expected = run.selected_order, [s.estimate for s in run.selections]
    outcome = workload.check(state, output, expected)
    assert outcome.problems == []
    digest = outcome.digest
    if isinstance(workload, workloads.Properties):
        digest += tuple(map(verify.subset_values, state))
    return hashlib.sha256(_text(digest).encode()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_digest_is_pinned(name, seed, tmp_path):
    table = LEFT_TO_RIGHT_SUM if sys.version_info < (3, 12) else COMPENSATED_SUM
    assert job_hash(name, seed, tmp_path) == table[name, seed]


if __name__ == "__main__":
    import tempfile

    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as directory:
                print(f"    ({name!r}, {seed}): {job_hash(name, seed, Path(directory))!r},")
