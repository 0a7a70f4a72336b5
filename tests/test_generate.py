from fractions import Fraction

import pytest

from flowreject.generate import SplitMix64, WorkloadSpec, generate

# Reference outputs of the published 64-bit mix generator this PRNG
# implements. The seed-1234567 row is the test vector circulated with the
# reference implementation; the others were produced by an independent
# transcription of the same algorithm and frozen here.
REFERENCE_STREAMS = {
    1234567: [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ],
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
    1: [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67],
    42: [0xBDD732262FEB6E95, 0x28EFE333B266F103],
    (1 << 64) - 1: [0xE4D971771B652C20, 0xE99FF867DBF682C9],
}


@pytest.mark.parametrize("seed", sorted(REFERENCE_STREAMS))
def test_prng_matches_reference_vector(seed):
    rng = SplitMix64(seed)
    expect = REFERENCE_STREAMS[seed]
    assert [rng.next_u64() for _ in expect] == expect


def test_prng_uniform_bounds_and_determinism():
    rng = SplitMix64(99)
    draws = [rng.uniform(3, 9) for _ in range(500)]
    assert all(3 <= d <= 9 for d in draws)
    assert set(draws) == set(range(3, 10))  # all values reachable
    rng2 = SplitMix64(99)
    assert [rng2.uniform(3, 9) for _ in range(500)] == draws


def test_prng_uniform_degenerate_and_empty():
    assert SplitMix64(0).uniform(5, 5) == 5
    with pytest.raises(ValueError):
        SplitMix64(0).uniform(5, 4)


def spec(**overrides):
    base = dict(
        n=10, m=2, p_min=1, p_max=10, w_min=1, w_max=10,
        mean_interarrival=3, seed=1,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def test_generate_deterministic():
    assert generate(spec()) == generate(spec())


def test_generate_seed_changes_output():
    assert generate(spec(seed=1)) != generate(spec(seed=2))


def test_generate_empty():
    inst = generate(spec(n=0))
    assert inst.jobs == ()
    assert inst.machines == 2


def test_generate_degenerate_processing_bounds():
    inst = generate(spec(p_min=1, p_max=1))
    assert all(p == 1 for j in inst.jobs for p in j.proc.values())


def test_generate_respects_bounds_and_grid():
    inst = generate(spec(n=50, p_min=2, p_max=5, w_min=3, w_max=4, m=3))
    assert len(inst.jobs) == 50
    for j in inst.jobs:
        assert 3 <= j.weight <= 4
        assert set(j.proc) == {0, 1, 2}
        assert all(2 <= p <= 5 for p in j.proc.values())
        assert j.release.denominator == 1
    assert inst.integer_grid


def test_generate_releases_nondecreasing_within_gap_bound():
    inst = generate(spec(n=30, mean_interarrival=4))
    last = Fraction(0)
    for j in inst.jobs:
        assert 0 <= j.release - last <= 8
        last = j.release


def test_generate_carries_epsilon():
    inst = generate(spec(epsilon=Fraction(1, 4)))
    assert inst.epsilon == Fraction(1, 4)


@pytest.mark.parametrize(
    "bad",
    [
        dict(n=-1),
        dict(m=0),
        dict(p_min=0),
        dict(p_min=5, p_max=4),
        dict(w_min=0),
        dict(mean_interarrival=0),
        dict(seed=-1),
        dict(seed=1 << 64),
        dict(epsilon=Fraction(1)),
    ],
)
def test_workload_spec_validation(bad):
    with pytest.raises(ValueError):
        spec(**bad)
