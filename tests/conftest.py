from __future__ import annotations

import pathlib
from fractions import Fraction

import pytest

from flowreject.engine import simulate
from flowreject.instance import parse_instance

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_fixture_instance(name: str):
    return parse_instance((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def e1_instance():
    return load_fixture_instance("e1_instance.jsonl")


@pytest.fixture(scope="session")
def e1_outcome(e1_instance):
    return simulate(e1_instance)


@pytest.fixture(scope="session")
def e3_instance():
    return load_fixture_instance("e3_instance.jsonl")


@pytest.fixture(scope="session")
def counter_tail_instance():
    return load_fixture_instance("counter_tail_instance.jsonl")


@pytest.fixture(scope="session")
def idling_instance():
    return load_fixture_instance("idling_instance.jsonl")


def frac(text) -> Fraction:
    return Fraction(text)
