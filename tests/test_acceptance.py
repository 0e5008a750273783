"""End-to-end acceptance gate.

One test per headline criterion; each prints its measured-vs-threshold line
(through capture, so it is visible in normal runs) and fails if the
measurement misses the stated tolerance or runtime budget.
"""

import pytest

from attiq import verify
from attiq.synthesis import default_design_noise, synthesize_schedule


@pytest.fixture(scope="module")
def schedule():
    return synthesize_schedule(default_design_noise())


@pytest.fixture(scope="module")
def design_noise():
    return default_design_noise()


def check(capsys, result):
    with capsys.disabled():
        print()
        print(result.line())
    assert result.passed, result.line()


def test_criterion_1_case3_pitch_accuracy(capsys, schedule):
    check(capsys, verify.criterion_1_case3_pitch(schedule))


def test_criterion_2_case4_relative_accuracy(capsys, schedule, design_noise):
    check(capsys, verify.criterion_2_case4_relative(schedule, design_noise))


def test_criterion_3_step_time_ratio(capsys, schedule, design_noise):
    check(capsys, verify.criterion_3_timing(schedule, design_noise))


def test_criterion_4_synthesis_route_agreement(capsys, design_noise):
    check(capsys, verify.criterion_4_route_agreement(design_noise))


def test_criterion_5_scalar_closed_forms(capsys):
    check(capsys, verify.criterion_5_scalar_closed_form())


def test_criterion_6_noiseless_tracking(capsys, schedule):
    check(capsys, verify.criterion_6_noiseless_tracking(schedule))


def test_criterion_7_convergence_from_20deg(capsys, schedule):
    check(capsys, verify.criterion_7_convergence(schedule))


def test_criterion_8_property_suites(capsys):
    check(capsys, verify.criterion_8_property_suites())
