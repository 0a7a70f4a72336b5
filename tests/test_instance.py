from fractions import Fraction

import pytest

from flowreject.instance import (
    BadEpsilon,
    DuplicateJobId,
    Instance,
    InstanceError,
    JobSpec,
    MissingProcessingTime,
    NonPositiveValue,
    density,
    instance_digest,
    make_instance,
    parse_instance,
    serialize_instance,
    validate,
)


def job(id=0, r=0, w=1, p=None, m=1):
    proc = p if p is not None else {i: Fraction(1) for i in range(m)}
    return JobSpec(id=id, release=Fraction(r), weight=Fraction(w), proc=proc)


VALID_TEXT = (
    '{"machines":2,"epsilon":"1/2"}\n'
    '{"id":0,"r":0,"w":3,"p":{"m0":2,"m1":5}}\n'
    '{"id":1,"r":1,"w":"1/2","p":{"m0":"7/3","m1":1}}\n'
    '{"id":2,"r":1,"w":4,"p":{"m0":1,"m1":1}}\n'
)


def test_density_examples():
    assert density(job(w=6, p={0: Fraction(3)}), 0) == 2
    assert density(job(w=1, p={0: Fraction(3)}), 0) == Fraction(1, 3)
    assert density(job(w=5, p={0: Fraction(4)}), 0) == Fraction(5, 4)


def test_density_unknown_machine():
    with pytest.raises(MissingProcessingTime):
        density(job(p={0: Fraction(1)}), 1)


def test_density_times_p_equals_w():
    for w in (1, 3, 7):
        for p in (2, 5):
            j = job(w=w, p={0: Fraction(p)})
            assert density(j, 0) * j.proc[0] == j.weight


def test_parse_valid_roundtrip():
    inst = parse_instance(VALID_TEXT)
    assert inst.machines == 2
    assert len(inst.jobs) == 3
    assert serialize_instance(inst) == VALID_TEXT


def test_parse_accepts_bytes():
    inst = parse_instance(VALID_TEXT.encode("utf-8"))
    assert serialize_instance(inst) == VALID_TEXT


def test_parse_sorts_jobs():
    text = (
        '{"machines":1,"epsilon":"1/2"}\n'
        '{"id":5,"r":3,"w":1,"p":{"m0":1}}\n'
        '{"id":1,"r":0,"w":1,"p":{"m0":1}}\n'
    )
    inst = parse_instance(text)
    assert [j.id for j in inst.jobs] == [1, 5]


def test_parse_duplicate_id():
    text = (
        '{"machines":1,"epsilon":"1/2"}\n'
        '{"id":7,"r":0,"w":1,"p":{"m0":1}}\n'
        '{"id":7,"r":1,"w":1,"p":{"m0":1}}\n'
    )
    with pytest.raises(DuplicateJobId):
        parse_instance(text)


def test_parse_missing_machine_entry():
    text = '{"machines":2,"epsilon":"1/2"}\n{"id":0,"r":0,"w":1,"p":{"m0":1}}\n'
    with pytest.raises(MissingProcessingTime):
        parse_instance(text)


def test_parse_nonpositive_values():
    base = '{"machines":1,"epsilon":"1/2"}\n'
    with pytest.raises(NonPositiveValue):
        parse_instance(base + '{"id":0,"r":0,"w":0,"p":{"m0":1}}\n')
    with pytest.raises(NonPositiveValue):
        parse_instance(base + '{"id":0,"r":0,"w":1,"p":{"m0":0}}\n')
    with pytest.raises(NonPositiveValue):
        parse_instance(base + '{"id":0,"r":-1,"w":1,"p":{"m0":1}}\n')


@pytest.mark.parametrize(
    "job_line",
    [
        '{"id":0,"r":"1_0","w":1,"p":{"m0":1}}',
        '{"id":0,"r":0,"w":"\u0661","p":{"m0":1}}',
        '{"id":0,"r":0,"w":1,"p":{"m0":1,"m00":2}}',
        '{"id":0,"r":0,"w":1,"p":{"m00":1}}',
        '{"id":0,"r":0,"w":1,"p":{"m0":1,"m0":2}}',
        '{"id":0,"id":1,"r":0,"w":1,"p":{"m0":1}}',
        # Rationals that parse but do not round-trip.
        '{"id":0,"r":"4/2","w":1,"p":{"m0":1}}',
        '{"id":0,"r":" 3","w":1,"p":{"m0":1}}',
        '{"id":0,"r":0,"w":"+3","p":{"m0":1}}',
        '{"id":0,"r":0,"w":"06","p":{"m0":1}}',
        '{"id":0,"r":"-0","w":1,"p":{"m0":1}}',
        '{"id":0,"r":0,"w":1,"p":{"m0":"3/1"}}',
        '{"id":0,"r":0,"w":1,"p":{"m0":"3"}}',
        '{"id":0,"r":0,"w":"2/4","p":{"m0":1}}',
    ],
)
def test_parse_rejects_noncanonical_input(job_line):
    with pytest.raises(InstanceError):
        parse_instance('{"machines":1,"epsilon":"1/2"}\n' + job_line + "\n")


def test_parse_bad_epsilon():
    with pytest.raises(BadEpsilon):
        parse_instance('{"machines":1,"epsilon":1}\n')
    with pytest.raises(BadEpsilon):
        parse_instance('{"machines":1,"epsilon":"0"}\n')
    for raw in ("2/4", " 1/2", "+1/2", "1/02"):
        with pytest.raises(BadEpsilon):
            parse_instance('{"machines":1,"epsilon":"%s"}\n' % raw)


def test_integer_grid_flag():
    on_grid = parse_instance(
        '{"machines":1,"epsilon":"1/2"}\n{"id":0,"r":2,"w":"1/2","p":{"m0":3}}\n'
    )
    assert on_grid.integer_grid  # fractional weight does not matter
    off_grid = parse_instance(
        '{"machines":1,"epsilon":"1/2"}\n{"id":0,"r":0,"w":1,"p":{"m0":"1/2"}}\n'
    )
    assert not off_grid.integer_grid


def test_validate_passes_on_valid():
    validate(parse_instance(VALID_TEXT))


def test_validate_bad_epsilon():
    inst = make_instance(1, [job()], Fraction(1, 2))
    with pytest.raises(BadEpsilon):
        validate(Instance(machines=1, jobs=inst.jobs, epsilon=Fraction(1)))


def test_validate_unsorted_jobs():
    jobs = (job(id=1, r=5), job(id=0, r=0))
    with pytest.raises(InstanceError):
        validate(Instance(machines=1, jobs=jobs, epsilon=Fraction(1, 2)))


def test_make_instance_sorts_and_validates():
    inst = make_instance(1, [job(id=1, r=5), job(id=0, r=0)], Fraction(1, 2))
    assert [j.id for j in inst.jobs] == [0, 1]
    with pytest.raises(NonPositiveValue):
        make_instance(1, [job(w=-1)], Fraction(1, 2))


def test_digest_stable_and_content_sensitive():
    a = parse_instance(VALID_TEXT)
    b = parse_instance(VALID_TEXT)
    assert instance_digest(a) == instance_digest(b)
    c = make_instance(2, [job(id=9, m=2)], Fraction(1, 2))
    assert instance_digest(a) != instance_digest(c)


def test_total_weight():
    inst = parse_instance(VALID_TEXT)
    assert inst.total_weight == Fraction(15, 2)
